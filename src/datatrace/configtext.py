"""INI text form of the config dataclasses.

A section is written with one ``key = value`` line per dataclass field, in
field order, and read back by the field's annotated type. Formatting goes by
value type: ints as ``str``, floats as ``repr``, tuples joined with commas
and ``None`` as ``auto``. A field whose metadata maps names to dataclasses
under ``"choices"`` (the training schedule) is written ``name(key=value,...)``,
or ``name`` alone for a class without fields, and its body is read back by
``read_section`` with the same strictness as a section. Experiment identity
hashes this text, so changing a format here changes every config hash.
"""

from __future__ import annotations

import configparser
import dataclasses
import numbers
import typing

from .exceptions import ConfigError


def _format(value, choices=None):
    if choices is not None:
        return format_choice(value, choices)
    if value is None:
        return "auto"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _fields(obj):
    """``(key, text)`` of each field of a dataclass instance, in field order."""
    return [
        (f.name, _format(getattr(obj, f.name), f.metadata.get("choices")))
        for f in dataclasses.fields(obj)
    ]


def format_choice(value, choices):
    """``name(key=value,...)`` of an instance of ``choices[name]``, or ``name`` alone."""
    name = next(name for name, cls in choices.items() if type(value) is cls)
    body = ",".join(f"{key}={text}" for key, text in _fields(value))
    return f"{name}({body})" if body else name


def read_choice(where, text, choices):
    """The instance that ``format_choice`` wrote as ``text``; errors name ``where``."""
    name, paren, body = text.strip().partition("(")
    if name not in choices or (paren and not body.endswith(")")):
        raise ConfigError(f"{where}: cannot parse {text!r}; names are {', '.join(choices)}")
    pairs = [part.partition("=") for part in body[:-1].split(",") if part.strip()]
    items = {key.strip(): value for key, _, value in pairs}
    if len(items) < len(pairs):
        raise ConfigError(f"{where}: repeated key in {text!r}")
    return read_section(where, items, choices[name], defaults={})


def _parser(field, hint, where):
    if "choices" in field.metadata:
        return lambda text: read_choice(where, text, field.metadata["choices"])
    if hint is tuple:
        return lambda text: tuple(int(v) for v in text.split(",") if v.strip())
    if hint == float | None:
        return lambda text: None if text == "auto" else float(text)
    return hint


def check_ints(obj):
    """Raise ConfigError for an ``int`` field of a dataclass instance not holding an integer.

    Its text form would not read back: ``2.0`` and ``True`` do not parse as ``int``.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ConfigError(f"{type(obj).__name__}.{f.name} must be an integer, not {value!r}")


def parse_sections(text):
    """``{section: {key: value text}}`` of INI text."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
        return {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config text: {exc}") from exc


def write_section(name, obj, skip=()):
    """The ``[name]`` block of a dataclass instance or of a ``{key: value}`` dict."""
    pairs = [(k, _format(v)) for k, v in obj.items()] if isinstance(obj, dict) else _fields(obj)
    lines = [f"[{name}]"] + [f"{k} = {v}" for k, v in pairs if k not in skip]
    return "\n".join(lines) + "\n"


def read_section(name, items, cls, defaults=None, skip=()):
    """Build ``cls`` from the ``{key: value text}`` pairs of section ``name``.

    Keys absent from ``items`` take their value from ``defaults`` and then
    from the dataclass defaults; with ``defaults=None`` every key other than
    those in ``skip`` is required. Unknown keys, unparsable values, missing
    required fields and values the dataclass rejects raise ConfigError naming
    the section or key.
    """
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    values = {}
    for key, text in items.items():
        if key not in known:
            raise ConfigError(f"unknown config key {name}.{key}")
        try:
            values[key] = _parser(known[key], hints[key], f"{name}.{key}")(text.strip())
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{name}.{key}: cannot parse {text!r} ({exc!r})") from exc
    if defaults is None:
        missing = [key for key in known if key not in values]
        if missing:
            raise ConfigError(f"missing config key {name}.{missing[0]}")
        defaults = {}
    try:
        return cls(**{**defaults, **values})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{name}] {exc}") from exc

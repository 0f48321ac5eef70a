"""INI text form of the config dataclasses.

A section is written with one ``key = value`` line per dataclass field, in
field order, and read back by the field's annotated type. Formatting goes by
value type: ints as ``str``, floats as ``repr``, bools in lower case, tuples
joined with commas, schedules by ``describe()`` and ``None`` as ``auto``. A
field whose text form needs its own reader names it in its metadata under
``"parse"``. Experiment identity hashes this text, so changing a format here
changes every config hash.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing

from .exceptions import ConfigError

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _format(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if hasattr(value, "describe"):
        return value.describe()
    return str(value)


def _parser(field, hint):
    if "parse" in field.metadata:
        return field.metadata["parse"]
    if hint is bool:
        return lambda text: _BOOLS[text.lower()]
    if hint is tuple:
        return lambda text: tuple(int(v) for v in text.split(",") if v.strip())
    if hint == float | None:
        return lambda text: None if text == "auto" else float(text)
    return hint


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
    if isinstance(obj, dict):
        pairs = obj.items()
    else:
        pairs = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    lines = [f"[{name}]"] + [f"{k} = {_format(v)}" for k, v in pairs if k not in skip]
    return "\n".join(lines) + "\n"


def read_section(name, items, cls, defaults=None, skip=()):
    """Build ``cls`` from the ``{key: value text}`` pairs of section ``name``.

    Keys absent from ``items`` take their value from ``defaults`` and then
    from the dataclass defaults; with ``defaults=None`` every key other than
    those in ``skip`` is required. Unknown keys, unparsable values and values
    the dataclass rejects raise ConfigError naming the section or key.
    """
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    values = {}
    for key, text in items.items():
        if key not in known:
            raise ConfigError(f"unknown config key {name}.{key}")
        try:
            values[key] = _parser(known[key], hints[key])(text.strip())
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{name}.{key}: cannot parse {text!r} ({exc!r})") from exc
    if defaults is None:
        missing = [key for key in known if key not in values]
        if missing:
            raise ConfigError(f"missing config key {name}.{missing[0]}")
        defaults = {}
    try:
        return cls(**{**defaults, **values})
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc

"""Experiment orchestration and the command-line interface.

Configuration lives in one INI-style text file; flags override individual
fields. Every random choice flows from a named seed in the config, so a rerun
of the same config reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, attribution, configtext, data, hypergrad, models, oracle, reports
from . import trainer
from .influence import _METHOD_TAGS, InverseHvpConfig
from .influence import influence as influence_fn
from .exceptions import ConfigError

METHODS = ("exact", "approx", *_METHOD_TAGS.values(), "oracle_fd", "oracle_loo")
_SOLVERS = {tag: solver for solver, tag in _METHOD_TAGS.items()}

OUTPUT_ROOT_ENV = "DATATRACE_OUTPUT_ROOT"


@dataclass(frozen=True)
class DatasetConfig:
    source: str = "synthetic"  # synthetic | idx | csv
    classes: int = 2
    per_class: int = 25
    dim: int = 5
    separation: float = 3.0
    seed: int = 1
    test_per_class: int = 25
    test_seed: int = 2
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_csv: str = ""
    test_csv: str = ""

    def __post_init__(self):
        if self.source not in ("synthetic", "idx", "csv"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.classes < 1:
            raise ConfigError(f"dataset.classes = {self.classes} must be >= 1")
        for key in ("per_class", "test_per_class"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} = {getattr(self, key)} must be >= 0")
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ConfigError(f"separation = {self.separation!r} must be finite and >= 0")
        if self.source == "synthetic" and self.dim < self.classes - 1:
            raise ConfigError(
                f"dataset.dim = {self.dim} must be >= dataset.classes - 1 = {self.classes - 1}: "
                "the synthetic class means are the vertices of a simplex"
            )


@dataclass(frozen=True)
class TrackingConfig:
    selection: str = "all"  # all | random_k | explicit | per_class_fraction
    k: int = 10
    seed: int = 3
    indices: tuple = ()
    fraction: float = 0.1

    def __post_init__(self):
        if self.selection not in ("all", "random_k", "explicit", "per_class_fraction"):
            raise ConfigError(f"unknown tracked-sample selection {self.selection!r}")


@dataclass(frozen=True)
class NoiseConfig:
    fraction: float = 0.0
    seed: int = 5

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:  # NaN fails the comparison too
            raise ConfigError(f"fraction = {self.fraction!r} must lie in [0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: models.ModelSpec
    training: trainer.TrainingConfig
    tracking: TrackingConfig
    methods: tuple
    noise: NoiseConfig
    inverse_hvp: InverseHvpConfig
    oracle_delta: float
    output_dir: str

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if self.noise.fraction > 0.0 and self.dataset.classes < 2:
            raise ConfigError("noise.fraction > 0 flips labels: it needs dataset.classes >= 2")


# ---------------------------------------------------------------------------
# Config file parsing / canonical serialization.


def _read_value(sections, name, key, parse, default):
    """The one value of a hand-mapped section, or ``default`` when absent."""
    items = sections.pop(name, {})
    for other in items:
        if other != key:
            raise ConfigError(f"unknown config key {name}.{other}")
    try:
        return parse(items.get(key, default).strip())
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: cannot parse {items[key]!r}") from exc


def _config_from_sections(sections):
    """ExperimentConfig from ``{section: {key: value text}}``."""
    sections = dict(sections)

    def read(name, cls, skip=(), **defaults):
        return configtext.read_section(name, sections.pop(name, {}), cls, defaults, skip)

    dataset = read("dataset", DatasetConfig)
    # Keyword defaults are where the file's defaults differ from the library's.
    cfg = ExperimentConfig(
        dataset=dataset,
        model=read(
            "model",
            models.ModelSpec,
            kind="logistic_regression",
            layer_widths=(dataset.dim, dataset.classes),
        ),
        training=read(
            "training",
            trainer.TrainingConfig,
            epochs=100,
            batch_size=0,
            initial_lr=0.1,
            weight_decay=0.01,
            seed=7,
        ),
        tracking=read("tracking", TrackingConfig),
        methods=_read_value(
            sections,
            "methods",
            "methods",
            lambda text: tuple(m.strip() for m in text.split(",") if m.strip()),
            "exact,approx",
        ),
        noise=read("noise", NoiseConfig),
        # The per-method tag picks the solver at call time, so it is not a key.
        inverse_hvp=read("influence", InverseHvpConfig, skip=("method",), seed=11),
        oracle_delta=_read_value(sections, "oracle", "delta", float, "1e-3"),
        output_dir=_read_value(sections, "output", "directory", str, "out"),
    )
    if sections:
        raise ConfigError(f"unknown config section {next(iter(sections))!r}")
    return cfg


def parse_config_text(text):
    return _config_from_sections(configtext.parse_sections(text))


def config_to_text(cfg, include_output=True):
    """Canonical lossless text form; hashing this identifies the experiment.

    The [output] section is excluded from the identity hash so the same
    experiment written to two directories hashes identically.
    """
    blocks = [
        configtext.write_section("dataset", cfg.dataset),
        configtext.write_section("model", cfg.model),
        configtext.write_section("training", cfg.training),
        configtext.write_section("tracking", cfg.tracking),
        configtext.write_section("methods", {"methods": cfg.methods}),
        configtext.write_section("noise", cfg.noise),
        configtext.write_section("influence", cfg.inverse_hvp, skip=("method",)),
        configtext.write_section("oracle", {"delta": cfg.oracle_delta}),
    ]
    if include_output:
        blocks.append(configtext.write_section("output", {"directory": cfg.output_dir}))
    else:
        # The identity text has always ended in a blank line; hashes depend on it.
        blocks.append("")
    return "\n".join(blocks)


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# Pipeline pieces.


_PATH_KEYS = {
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("train_csv", "test_csv"),
}


def build_datasets(cfg):
    """Train/test splits plus the noise record (None when fraction is 0).

    An empty training split, or an empty path key of a file source, raises
    ConfigError here, before any file is opened or any command creates its
    output directory.
    """
    ds = cfg.dataset
    for key in _PATH_KEYS.get(ds.source, ()):
        if not getattr(ds, key):
            raise ConfigError(f"dataset.{key} is empty: the {ds.source} source reads a file")
    if ds.source == "synthetic":
        # Both splits share the class means: one simplex for the two.
        means = data._simplex_means(ds.classes, ds.dim, ds.separation)
        train = data._gaussian_blobs(means, ds.per_class, ds.seed, "train")
        test = data._gaussian_blobs(means, ds.test_per_class, ds.test_seed, "test")
    elif ds.source == "idx":
        train = data.load_idx(ds.train_images, ds.train_labels, ds.classes, "train")
        test = data.load_idx(ds.test_images, ds.test_labels, ds.classes, "test")
    else:
        train = data.load_csv(ds.train_csv, ds.classes, "train")
        test = data.load_csv(ds.test_csv, ds.classes, "test")
    trainer.check_training_set(train)
    data.check_disjoint(train, test)
    noise_record = None
    if cfg.noise.fraction > 0.0:
        train, noise_record = data.inject_noise(train, cfg.noise.fraction, cfg.noise.seed)
    return train, test, noise_record


def select_tracked(cfg, train):
    tk = cfg.tracking
    n = len(train)
    if tk.selection == "all":
        return np.arange(n)
    if tk.selection == "explicit":
        if not tk.indices:
            raise ConfigError("tracking.indices is empty for the explicit selection")
        return np.sort(data.training_indices(tk.indices, n))
    if tk.selection == "random_k":
        if tk.k < 1:
            raise ConfigError(f"tracking.k = {tk.k} must be >= 1 for random_k")
        rng = np.random.default_rng([tk.seed, 0x7AC4])
        return np.sort(rng.choice(n, size=min(tk.k, n), replace=False))
    # per_class_fraction
    if not 0.0 < tk.fraction <= 1.0:
        raise ConfigError(f"tracking.fraction = {tk.fraction!r} must lie in (0, 1]")
    rng = np.random.default_rng([tk.seed, 0x7AC5])
    chosen = []
    for c in range(train.class_count):
        rows = np.flatnonzero(train.labels == c)
        if rows.size:  # a loaded split may hold no row of a class
            k = max(1, int(np.floor(tk.fraction * len(rows))))
            chosen.extend(rng.choice(rows, size=k, replace=False))
    return np.array(sorted(chosen), dtype=np.int64)


def compute_report(cfg, method, record, train, test, tracked):
    """One contribution report for one method over the tracked indices."""
    if method == "exact":
        return hypergrad.contribution_exact(record, train, tracked, test)
    if method == "approx":
        return hypergrad.contribution_approx(record, train, tracked, test)
    if method in _SOLVERS:
        return influence_fn(
            cfg.model,
            record.final_params,
            train,
            test,
            [int(i) for i in tracked],
            config=replace(cfg.inverse_hvp, method=_SOLVERS[method]),
            weight_decay=cfg.training.weight_decay,
        )
    if method == "oracle_fd":
        results = [
            oracle.finite_difference_hypergradient(
                cfg.model, train, cfg.training, int(i), test,
                delta=cfg.oracle_delta, nominal=record,
            )
            for i in tracked
        ]
        return reports.oracle_results_to_report(results, len(train), "oracle_fd")
    if method == "oracle_loo":
        results = [
            oracle.leave_one_out(cfg.model, train, cfg.training, int(i), test, nominal=record)
            for i in tracked
        ]
        return reports.oracle_results_to_report(results, len(train), "oracle_loo")
    raise ConfigError(f"unknown method {method!r}")


def _resolve_output(cfg, override=None):
    out = override or cfg.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    os.makedirs(out, exist_ok=True)
    return out


def _file_sha256(path):
    import hashlib  # loads OpenSSL (about 3.5 MB resident) on the first digest only

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg, out_dir, files):
    import hashlib

    manifest = {
        "config_hash": hashlib.sha256(
            config_to_text(cfg, include_output=False).encode()
        ).hexdigest(),
        "version": __version__,
        "seeds": {
            "dataset": cfg.dataset.seed,
            "dataset_test": cfg.dataset.test_seed,
            "training": cfg.training.seed,
            "tracking": cfg.tracking.seed,
            "noise": cfg.noise.seed,
            "influence": cfg.inverse_hvp.seed,
        },
        "files": {name: _file_sha256(os.path.join(out_dir, name)) for name in sorted(files)},
    }
    return reports.write_json(manifest, os.path.join(out_dir, "manifest.json"))


def run_experiment(cfg, output_dir=None):
    """train -> contributions per method -> analytics -> emit.

    Everything is computed before the output directory is created, so a run
    that raises leaves no directory behind.
    """
    train, test, noise_record = build_datasets(cfg)
    models.check_test_subset(test)
    tracked = select_tracked(cfg, train)
    record = trainer.train(cfg.model, train, cfg.training)
    method_reports = {
        method: compute_report(cfg, method, record, train, test, tracked)
        for method in cfg.methods
    }
    stats = {method: attribution.distribution_stats(rep) for method, rep in method_reports.items()}
    ref_tag = "exact" if "exact" in method_reports else next(iter(method_reports), None)
    comparisons = {
        f"compare_{ref_tag}_vs_{method}.json": attribution.compare_methods(
            method_reports[ref_tag], rep
        )
        for method, rep in method_reports.items()
        if method != ref_tag
    }

    out = _resolve_output(cfg, output_dir)
    # The output location is implicit (the file's own directory), so it is
    # omitted; every byte of the emitted tree is then location-independent.
    with open(os.path.join(out, "config.ini"), "w") as fh:
        fh.write(config_to_text(cfg, include_output=False))
    files = ["config.ini"]
    if noise_record is not None:
        noise = {
            "flipped_indices": [int(i) for i in noise_record.flipped_indices],
            "original_labels": [int(l) for l in noise_record.original_labels],
            "new_labels": [int(l) for l in noise_record.new_labels],
            "seed": noise_record.seed,
        }
        reports.write_json(noise, os.path.join(out, "noise.json"))
        files.append("noise.json")
    trainer.save_trajectory(record, os.path.join(out, "trajectory"))
    for method, rep in method_reports.items():
        reports.write_report_csv(rep, os.path.join(out, f"contrib_{method}.csv"))
        attribution.write_stats_json(stats[method], os.path.join(out, f"stats_{method}.json"))
        files += [f"contrib_{method}.csv", f"stats_{method}.json"]
    for name, cmp_ in comparisons.items():
        attribution.write_comparison_json(cmp_, os.path.join(out, name))
        files.append(name)
    _write_manifest(cfg, out, files)
    return out


def run_cleaning(cfg, output_dir=None):
    """inject noise -> approx contributions -> discard bottom r% -> retrain -> accuracies."""
    if not 0.0 < cfg.noise.fraction < 1.0:
        raise ConfigError("cleaning requires a noise fraction in (0, 1)")
    train, test, noise_record = build_datasets(cfg)
    models.check_test_subset(test)
    record = trainer.train(cfg.model, train, cfg.training)
    tracked = np.arange(len(train))
    rep = compute_report(cfg, "approx", record, train, test, tracked)
    retained = attribution.clean_dataset(rep, cfg.noise.fraction)

    discarded = sorted(set(range(len(train))) - set(int(i) for i in retained))
    flipped = set(int(i) for i in noise_record.flipped_indices)
    recovered = len(flipped & set(discarded)) / max(1, len(flipped))

    acc_nofilter = models.accuracy(cfg.model, record.final_params, test)
    cleaned_train = train.subset(retained)
    cleaned_record = trainer.train(cfg.model, cleaned_train, cfg.training)
    acc_cleaned = models.accuracy(cfg.model, cleaned_record.final_params, test)

    payload = {
        "method": rep.method,
        "noise_fraction": cfg.noise.fraction,
        "flipped_recovered_fraction": recovered,
        "accuracy_no_filtering": acc_nofilter,
        "accuracy_cleaned": acc_cleaned,
        "n_discarded": len(discarded),
    }
    out = _resolve_output(cfg, output_dir)
    attribution.write_retained_indices(retained, os.path.join(out, "retained.txt"))
    reports.write_json(payload, os.path.join(out, "cleaning.json"))
    return payload


def run_bound_trace(cfg, output_dir=None):
    """Exact-vs-approx error trace with the analytic bound, per tracked index."""
    if cfg.training.weight_decay <= 0.0:
        raise ConfigError("bound-trace requires weight_decay > 0")
    train, _, _ = build_datasets(cfg)
    tracked = select_tracked(cfg, train)
    record = trainer.train(cfg.model, train, cfg.training)
    traces = hypergrad.error_trace(record, train, tracked)
    constants = {
        i: {"lipschitz_estimate": trace.lipschitz_estimate, "nabla_max": trace.nabla_max}
        for i, trace in traces.items()
    }

    out = _resolve_output(cfg, output_dir)
    path = os.path.join(out, "bound_trace.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["train_index", "step", "error_norm", "bound"])
        for i, trace in traces.items():
            for t, err, bnd in zip(trace.steps, trace.error_norms, trace.bounds):
                writer.writerow([i, int(t), repr(float(err)), repr(float(bnd))])
    reports.write_json(constants, os.path.join(out, "bound_constants.json"))
    return path


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file (INI)")
    sub.add_argument("--output", help="output directory")
    sub.add_argument("--seed", type=int, help="training seed override")
    sub.add_argument("--epochs", type=int, help="epoch count override")
    sub.add_argument("--methods", help="comma-separated method list override")
    sub.add_argument("--noise-fraction", dest="noise_fraction", type=float)
    sub.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override any config field (repeatable)",
    )


def _config_from_args(args):
    """The config file's sections with ``--set`` and the flags applied, parsed once."""
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    sections = configtext.parse_sections(text)
    for item in args.set or []:
        key, _, value = item.partition("=")
        section, _, option = key.partition(".")
        sections.setdefault(section, {})[option.strip().lower()] = value
    flags = {
        ("training", "seed"): args.seed,
        ("training", "epochs"): args.epochs,
        ("methods", "methods"): args.methods,
        ("noise", "fraction"): args.noise_fraction,
        ("output", "directory"): args.output,
    }
    for (section, option), value in flags.items():
        if value is not None:
            sections.setdefault(section, {})[option] = str(value)
    return _config_from_sections(sections)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="datatrace",
        description="Training-data attribution through optimization trajectories",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "track", "influence", "oracle", "clean", "bound-trace", "run"):
        sub = subparsers.add_parser(name)
        _add_common(sub)
    cmp_sub = subparsers.add_parser("compare")
    cmp_sub.add_argument("--reference", required=True, help="gold-standard CSV")
    cmp_sub.add_argument("--candidate", required=True, help="candidate CSV")
    cmp_sub.add_argument("--output", required=True, help="comparison JSON path")

    args = parser.parse_args(argv)

    if args.command == "compare":
        ref = reports.read_report_csv(args.reference)
        cand = reports.read_report_csv(args.candidate)
        comparison = attribution.compare_methods(ref, cand)
        attribution.write_comparison_json(comparison, args.output)
        print(f"wrote {args.output}")
        return 0

    cfg = _config_from_args(args)

    if args.command == "train":
        train_ds, _, _ = build_datasets(cfg)
        record = trainer.train(cfg.model, train_ds, cfg.training)
        out = _resolve_output(cfg)
        trainer.save_trajectory(record, os.path.join(out, "trajectory"))
        print(f"trained {record.steps} steps -> {out}/trajectory")
        return 0

    if args.command == "clean":
        print(json.dumps(run_cleaning(cfg), sort_keys=True))
        return 0

    if args.command == "bound-trace":
        print(f"wrote {run_bound_trace(cfg)}")
        return 0

    # run, or one method family's run
    wanted = {
        "track": ("exact", "approx"),
        "influence": tuple(_METHOD_TAGS.values()),
        "oracle": ("oracle_fd", "oracle_loo"),
    }.get(args.command)
    if wanted:
        cfg = replace(cfg, methods=tuple(m for m in cfg.methods if m in wanted) or wanted[:1])
    print(f"experiment complete -> {run_experiment(cfg)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

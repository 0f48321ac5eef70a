"""Command-line interface: config parsing, subcommands, deterministic outputs."""

import ast
import hashlib
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import datatrace as dt
from datatrace import cli
from datatrace.exceptions import ConfigError

SMALL_CONFIG = """
[dataset]
source = synthetic
classes = 2
per_class = 10
dim = 4
separation = 3.0
seed = 1
test_per_class = 8
test_seed = 2

[model]
kind = logistic_regression
layer_widths = 4,2

[training]
epochs = 20
batch_size = 0
initial_lr = 0.05
weight_decay = 0.01
seed = 7

[tracking]
selection = all

[methods]
methods = exact,approx

[output]
directory = out
"""


@pytest.fixture
def small_config(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(SMALL_CONFIG)
    return str(p)


def test_config_round_trip_is_lossless(small_config):
    cfg = cli.load_config(small_config)
    text = cli.config_to_text(cfg)
    again = cli.parse_config_text(text)
    assert cli.config_to_text(again) == text
    assert again == cfg


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="unknown method"):
        cli.parse_config_text("[methods]\nmethods = exact,telepathy\n")


def _demo_config():
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "06_cli_experiment.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return next(
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CONFIG"
    )


@pytest.mark.parametrize("text, digest", [
    ("", "510b1a0560d156fe32c4ce27223a9342a7f06d86d186377fff8eec50fce09092"),
    (SMALL_CONFIG, "5aea2c30355e1eab292ce3770d7a94febd395e87114824e45c138cd540d9c214"),
    (_demo_config(), "7339990ec8f259aed3a27167e267f0407e40dd7c40800936ef588815104ddf6f"),
], ids=["defaults", "small", "demo06"])
def test_config_hash_is_pinned(text, digest):
    # The manifest's config_hash; a change here invalidates every recorded run.
    identity = cli.config_to_text(cli.parse_config_text(text), include_output=False)
    assert hashlib.sha256(identity.encode()).hexdigest() == digest


_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", max_size=12)
_counts = st.integers(0, 10**9)
_reals = st.floats(allow_nan=False, allow_infinity=False)
_positive_reals = st.floats(0.0, exclude_min=True, allow_infinity=False)
_rates = st.floats(0.0, 1.0, exclude_min=True)
_widths = st.integers(1, 1000)
_schedules = st.one_of(
    st.just(dt.ConstantSchedule()),
    st.builds(dt.StepDecaySchedule, _rates, st.integers(1, 10**6)),
    st.builds(dt.ExponentialSchedule, _rates),
    st.builds(dt.ReduceOnPlateauSchedule, _rates, st.integers(1, 10**6),
              st.floats(0.0, 1.0, exclude_max=True)),
)
_model_options = dict(
    activation=st.sampled_from(dt.models.ACTIVATIONS), loss=st.sampled_from(dt.models.LOSSES)
)
_models = st.builds(
    dt.ModelSpec, kind=st.just("logistic_regression"),
    layer_widths=st.tuples(_widths, _widths), **_model_options,
) | st.builds(
    dt.ModelSpec, kind=st.just("mlp"),
    layer_widths=st.lists(_widths, min_size=2, max_size=4), **_model_options,
)


def _dataset(**fields):
    """A DatasetConfig whose synthetic class means (a simplex) fit in its dimensions."""
    if fields["source"] == "synthetic":
        fields["dim"] = max(fields["dim"], fields["classes"] - 1)
    return cli.DatasetConfig(**fields)


def _experiment(noise, **fields):
    """An ExperimentConfig whose noise flips no label when there is no other class."""
    if fields["dataset"].classes < 2:
        noise = replace(noise, fraction=0.0)
    return cli.ExperimentConfig(noise=noise, **fields)


_experiments = st.builds(
    _experiment,
    dataset=st.builds(
        _dataset,
        source=st.sampled_from(["synthetic", "idx", "csv"]),
        classes=st.integers(1, 10**9), per_class=_counts, dim=_counts,
        separation=st.floats(0.0, allow_infinity=False),
        seed=_counts, test_per_class=_counts, test_seed=_counts,
        train_images=_names, train_labels=_names, test_images=_names,
        test_labels=_names, train_csv=_names, test_csv=_names,
    ),
    model=_models,
    training=st.builds(
        dt.TrainingConfig,
        epochs=st.integers(1, 10**6), batch_size=_counts,
        initial_lr=st.floats(1e-6, 10.0), schedule=_schedules,
        momentum=st.floats(0.0, 1.0, exclude_max=True),
        weight_decay=st.floats(0.0, 0.099), seed=_counts,
    ),
    tracking=st.builds(
        cli.TrackingConfig,
        selection=st.sampled_from(["all", "random_k", "explicit", "per_class_fraction"]),
        k=_counts, seed=_counts,
        indices=st.lists(_counts, max_size=5).map(tuple), fraction=_reals,
    ),
    methods=st.lists(st.sampled_from(cli.METHODS), unique=True).map(tuple),
    noise=st.builds(cli.NoiseConfig, fraction=st.floats(0.0, 1.0), seed=_counts),
    inverse_hvp=st.builds(
        cli.InverseHvpConfig,
        damping=st.floats(0.0, 1e6), cg_max_iters=st.integers(1, 10**9),
        cg_tolerance=_positive_reals, neumann_depth=st.integers(1, 10**9),
        neumann_repeats=st.integers(1, 10**9),
        neumann_scale=st.none() | _positive_reals, seed=_counts,
    ),
    oracle_delta=_reals,
    output_dir=_names,
)


# No shrinking: over this many fields it takes minutes, and the assertion's
# dataclass diff already names the field that did not survive the round trip.
@settings(max_examples=200, deadline=None, phases=[Phase.generate], derandomize=True)
@given(_experiments)
def test_config_text_round_trips_any_config(cfg):
    assert cli.parse_config_text(cli.config_to_text(cfg)) == cfg


@pytest.mark.parametrize("text, key", [
    ("[trainig]\nepochs = 3\n", "trainig"),
    ("[training]\nepoch = 3\n", "training.epoch"),
    ("[training]\nepochs = abc\n", "training.epochs"),
    ("[training]\nschedule = step_decay(factor=0.5)\n", "training.schedule"),
    ("[training]\nschedule = step_decay(factor=0.5,epoch=3,bogus=1)\n",
     "training.schedule.bogus"),
    ("[training]\nschedule = step_decay(factor=0.5,epoch=2.7)\n", "training.schedule.epoch"),
    ("[training]\nschedule = reduce_on_plateau(factor=0.5,patience=2.9)\n",
     "training.schedule.patience"),
    ("[training]\nschedule = reduce_on_plateau(factor=0.5,rel_threshold=nan)\n",
     "training.schedule"),
    ("[training]\nschedule = cosine(c=0.5)\n", "training.schedule"),
    ("[training]\nschedule = exponential(c=0.5,c=0.9)\n", "training.schedule"),
    ("[influence]\nmethod = dense\n", "influence.method"),
    ("[methods]\nmethod = exact\n", "methods.method"),
    ("[oracle]\ndelta = small\n", "oracle.delta"),
    ("[dataset]\nsource = hdf5\n", "dataset"),
    ("[dataset]\nper_class = -1\n", "per_class"),
    ("[dataset]\ntest_per_class = -1\n", "test_per_class"),
    ("[training]\ninitial_lr = nan\n", "initial_lr"),
    ("[training]\ninitial_lr = inf\n", "initial_lr"),
    ("[training]\nweight_decay = nan\n", "weight_decay"),
    ("[training]\nsnapshot_stride = 3\n", "training.snapshot_stride"),
    ("[influence]\ninclude_regularizer_in_hessian = true\n",
     "influence.include_regularizer_in_hessian"),
    ("[noise]\nfraction = nan\n", "fraction"),
    ("[noise]\nfraction = 1.5\n", "fraction"),
    ("[noise]\nfraction = -0.1\n", "fraction"),
    ("[dataset]\nseparation = -1\n", "separation"),
    ("[dataset]\nseparation = nan\n", "separation"),
    ("[dataset]\nseparation = inf\n", "separation"),
    ("[dataset]\nclasses = 1\n[noise]\nfraction = 0.1\n", "dataset.classes"),
    ("[dataset]\nclasses = 3\ndim = 1\n", "dataset.dim"),
    ("[dataset]\nclasses = 0\n", "dataset.classes"),
    ("[dataset]\nclasses = -2\nsource = csv\n", "dataset.classes"),
    ("[dataset]\nsource = idx\n", "dataset.train_images"),
    ("[dataset]\nsource = idx\ntrain_images = a\ntrain_labels = b\ntest_images = c\n",
     "dataset.test_labels"),
    ("[dataset]\nsource = csv\n", "dataset.train_csv"),
    ("[dataset]\nsource = csv\ntrain_csv = a.csv\n", "dataset.test_csv"),
])
def test_invalid_config_is_rejected_by_name(text, key):
    # Parsing checks every field; building the splits checks the file paths
    # before it opens any.
    with pytest.raises(ConfigError, match=re.escape(key)):
        cli.build_datasets(cli.parse_config_text(text))


def test_set_dataset_dim_matches_file_dim(tmp_path):
    via_set, via_file = str(tmp_path / "set"), str(tmp_path / "file")
    cli.main(["train", "--output", via_set, "--set", "dataset.dim=7", "--epochs", "2"])
    path = tmp_path / "dim7.ini"
    path.write_text("[dataset]\ndim = 7\n")
    cli.main(["train", "--config", str(path), "--output", via_file, "--epochs", "2"])
    rec = dt.load_trajectory(os.path.join(via_set, "trajectory"))
    assert rec.model.layer_widths == (7, 2)
    assert rec.config == dt.load_trajectory(os.path.join(via_file, "trajectory")).config


def test_flag_overrides(small_config, tmp_path):
    out = str(tmp_path / "o")
    rc = cli.main([
        "train", "--config", small_config, "--output", out,
        "--epochs", "5", "--seed", "9",
        "--set", "training.initial_lr=0.02",
    ])
    assert rc == 0
    assert os.path.isdir(os.path.join(out, "trajectory"))
    rec = dt.load_trajectory(os.path.join(out, "trajectory"))
    assert rec.config.epochs == 5
    assert rec.config.seed == 9
    assert rec.config.initial_lr == 0.02


def test_run_outputs_are_byte_identical_across_reruns(small_config, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cli.main(["run", "--config", small_config, "--output", out1])
    cli.main(["run", "--config", small_config, "--output", out2])
    names = sorted(str(p.relative_to(out1)) for p in Path(out1).rglob("*") if p.is_file())
    assert sorted(str(p.relative_to(out2)) for p in Path(out2).rglob("*") if p.is_file()) == names
    assert "manifest.json" in names and "contrib_exact.csv" in names
    assert "trajectory/config.txt" in names and "trajectory/velocities.npy" in names
    for n in names:
        a = Path(out1, n).read_bytes()
        b = Path(out2, n).read_bytes()
        assert a == b, f"{n} differs between reruns"


def test_run_emits_comparisons_and_manifest(small_config, tmp_path):
    out = str(tmp_path / "r")
    cli.main(["run", "--config", small_config, "--output", out])
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert set(manifest) == {"config_hash", "version", "seeds", "files"}
    assert "compare_exact_vs_approx.json" in manifest["files"]
    cmp_ = json.loads(Path(out, "compare_exact_vs_approx.json").read_text())
    assert -1.0 <= cmp_["spearman_rho"] <= 1.0


def test_track_and_compare_subcommands(small_config, tmp_path):
    out = str(tmp_path / "t")
    cli.main(["track", "--config", small_config, "--output", out])
    ref = os.path.join(out, "contrib_exact.csv")
    cand = os.path.join(out, "contrib_approx.csv")
    result = str(tmp_path / "cmp.json")
    cli.main(["compare", "--reference", ref, "--candidate", cand, "--output", result])
    payload = json.loads(Path(result).read_text())
    assert payload["reference"] == "exact"
    assert payload["candidate"] == "approx"


def _write_contrib_csv(path, method, values):
    rows = "".join(f"{method},{i},ALL,{v!r}\n" for i, v in enumerate(values))
    path.write_text("method,train_index,test_index_or_ALL,contribution\n" + rows)
    return str(path)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_compare_writes_null_for_a_constant_candidate(tmp_path):
    ref = _write_contrib_csv(tmp_path / "ref.csv", "exact", [0.3, -1.2, 2.5])
    cand = _write_contrib_csv(tmp_path / "cand.csv", "approx", [0.0, 0.0, 0.0])
    result = tmp_path / "cmp.json"
    cli.main(["compare", "--reference", ref, "--candidate", cand, "--output", str(result)])
    payload = json.loads(result.read_text(), parse_constant=_refuse_constant)
    assert payload["spearman_rho"] is None
    assert payload["n_compared"] == 3


def test_compare_output_bytes_are_pinned(tmp_path):
    # Bytes written when rho came from scipy.stats.spearmanr; one tie per side.
    ref = _write_contrib_csv(tmp_path / "ref.csv", "exact", [0.3, -1.2, 2.5, 0.7, -0.1, 0.7])
    cand = _write_contrib_csv(tmp_path / "cand.csv", "approx", [0.2, -0.9, 1.5, 2.0, 0.1, 0.4])
    result = tmp_path / "cmp.json"
    cli.main(["compare", "--reference", ref, "--candidate", cand, "--output", str(result)])
    assert result.read_text() == (
        "{\n"
        '  "candidate": "approx",\n'
        '  "n_compared": 6,\n'
        '  "reference": "exact",\n'
        '  "sign_error_rate": 0.16666666666666666,\n'
        '  "spearman_rho": 0.898645105261295\n'
        "}\n"
    )


def test_influence_subcommand(small_config, tmp_path):
    out = str(tmp_path / "inf")
    cli.main([
        "influence", "--config", small_config, "--output", out,
        "--methods", "influence_cg",
    ])
    assert os.path.exists(os.path.join(out, "contrib_influence_cg.csv"))


def test_oracle_subcommand(small_config, tmp_path):
    out = str(tmp_path / "orc")
    cli.main([
        "oracle", "--config", small_config, "--output", out,
        "--methods", "oracle_loo",
        "--set", "tracking.selection=explicit",
        "--set", "tracking.indices=0,3",
    ])
    rep = dt.read_report_csv(os.path.join(out, "contrib_oracle_loo.csv"))
    assert sorted(rep.values) == [0, 3]


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_oracle_refuses_a_non_finite_delta(small_config, tmp_path, delta):
    out = tmp_path / "orc"
    with pytest.raises(ConfigError, match="delta"):
        cli.main([
            "oracle", "--config", small_config, "--output", str(out),
            "--methods", "oracle_fd", "--set", f"oracle.delta={delta}",
        ])
    assert not out.exists()


@pytest.mark.parametrize("argv, error, message", [
    (["run", "--methods", "exact,oracle_fd", "--set", "oracle.delta=nan"],
     ConfigError, "delta"),
    (["oracle", "--set", "oracle.delta=-1"], ConfigError, "delta"),
    (["run", "--methods", "exact,oracle_fd", "--set", "dataset.per_class=150"],
     ValueError, "oracle limited to 200 samples"),
    (["run", "--methods", "approx,influence_dense", "--set", "dataset.dim=5",
      "--set", "model.kind=mlp", "--set", "model.layer_widths=5,400,2"],
     ValueError, "exceeds dense-Hessian cap"),
    (["clean", "--set", "model.loss=squared_error", "--noise-fraction", "0.3"],
     dt.ShapeError, "squared_error"),
    (["run", "--set", "dataset.classes=3", "--set", "dataset.dim=1"],
     ConfigError, "dataset.dim"),
    (["run", "--set", "model.layer_widths=5,2", "--set", "dataset.classes=0"],
     ConfigError, "dataset.classes"),
    (["run", "--set", "dataset.source=idx"], ConfigError, "dataset.train_images"),
    (["train", "--set", "dataset.source=csv", "--set", "dataset.train_csv=missing.csv"],
     ConfigError, "dataset.test_csv"),
], ids=["run-nan-delta", "oracle-negative-delta", "oracle-row-guard", "dense-cap",
        "clean-squared-error", "synthetic-dim", "no-class", "idx-without-paths",
        "csv-without-test-path"])
def test_a_failing_command_leaves_no_output_directory(small_config, tmp_path,
                                                      argv, error, message):
    # All but the last raise only after training, so the whole command computes first.
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        cli.main([*argv, "--config", small_config, "--output", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, methods", [
    (["track"], ("exact", "approx")),
    (["influence", "--methods", "influence_cg,influence_dense"],
     ("influence_cg", "influence_dense")),
    (["oracle", "--methods", "oracle_fd,oracle_loo"], ("oracle_fd", "oracle_loo")),
], ids=["track", "influence", "oracle"])
def test_method_family_commands_write_a_run_tree(small_config, tmp_path, command, methods):
    out, ref = tmp_path / command[0], tmp_path / "run"
    cli.main([*command, "--config", small_config, "--output", str(out)])
    cli.main(["run", "--methods", ",".join(methods), "--config", small_config,
              "--output", str(ref)])
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json", "trajectory"}
    assert set(manifest["files"]) == written
    assert cli.load_config(str(out / "config.ini")).methods == methods
    for method in methods:
        name = f"contrib_{method}.csv"
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_run_refuses_an_empty_test_split(small_config, tmp_path):
    empty = ["--config", small_config, "--set", "dataset.test_per_class=0"]
    # clean needs a noise fraction; the others accept one.
    for command in ("run", "clean", "track", "influence", "oracle"):
        out = tmp_path / command
        with pytest.raises(ValueError, match="empty test subset"):
            cli.main([command, *empty, "--output", str(out), "--noise-fraction", "0.3"])
        assert not out.exists()
    # Neither reads the test split.
    for command in ("train", "bound-trace"):
        assert cli.main([command, *empty, "--output", str(tmp_path / command)]) == 0


def test_every_command_refuses_an_empty_training_split(small_config, tmp_path):
    empty = ["--config", small_config, "--set", "dataset.per_class=0"]
    # clean needs a noise fraction; the others accept one.
    for command in ("train", "run", "clean", "track", "influence", "oracle", "bound-trace"):
        out = tmp_path / command
        with pytest.raises(ConfigError, match="empty training set"):
            cli.main([command, *empty, "--output", str(out), "--noise-fraction", "0.3"])
        assert not out.exists()


@pytest.mark.parametrize("selection, error", [
    (["tracking.selection=explicit", "tracking.indices="], "tracking.indices is empty"),
    (["tracking.selection=per_class_fraction", "tracking.fraction=0"], "tracking.fraction"),
])
def test_a_bad_tracked_selection_is_refused_before_any_output(small_config, tmp_path,
                                                              selection, error):
    sets = [arg for item in selection for arg in ("--set", item)]
    for command in ("run", "track", "influence", "oracle", "bound-trace"):
        out = tmp_path / command
        with pytest.raises(ConfigError, match=error):
            cli.main([command, "--config", small_config, *sets, "--output", str(out)])
        assert not out.exists()


def test_a_missing_dataset_leaves_no_output_directory(small_config, tmp_path):
    missing = ["--set", "dataset.source=csv", "--set", f"dataset.train_csv={tmp_path / 'no.csv'}",
               "--set", f"dataset.test_csv={tmp_path / 'no_test.csv'}"]
    for command in ("run", "train", "track", "bound-trace"):
        out = tmp_path / command
        with pytest.raises(FileNotFoundError):
            cli.main([command, "--config", small_config, *missing, "--output", str(out)])
        assert not out.exists()


def test_clean_subcommand_reports_recovery(small_config, tmp_path):
    out = str(tmp_path / "cl")
    rc = cli.main([
        "clean", "--config", small_config, "--output", out,
        "--noise-fraction", "0.3", "--epochs", "100",
    ])
    assert rc == 0
    payload = json.loads(Path(out, "cleaning.json").read_text())
    assert 0.0 <= payload["flipped_recovered_fraction"] <= 1.0
    assert payload["n_discarded"] == 6  # floor(0.3 * 20)
    retained = [int(l) for l in Path(out, "retained.txt").read_text().splitlines()]
    assert len(retained) == 14


def test_clean_requires_noise_fraction(small_config, tmp_path):
    with pytest.raises(ConfigError, match="noise fraction"):
        cli.run_cleaning(cli.load_config(small_config), str(tmp_path / "x"))


def test_bound_trace_rejects_zero_weight_decay(small_config, tmp_path):
    cfg = cli.load_config(small_config)
    with pytest.raises(ConfigError, match="weight_decay"):
        cli.main([
            "bound-trace", "--config", small_config,
            "--output", str(tmp_path / "bt0"),
            "--set", "training.weight_decay=0.0",
        ])


def test_bound_trace_emits_trace_csv(small_config, tmp_path):
    out = str(tmp_path / "bt")
    cli.main([
        "bound-trace", "--config", small_config, "--output", out,
        "--set", "tracking.selection=explicit",
        "--set", "tracking.indices=0",
    ])
    lines = Path(out, "bound_trace.csv").read_text().splitlines()
    assert lines[0] == "train_index,step,error_norm,bound"
    assert len(lines) > 1
    rows = [l.split(",") for l in lines[1:]]
    assert all(float(err) <= float(bnd) for _, _, err, bnd in rows)


def test_bound_trace_runs_one_replay_for_repeated_explicit_indices(
    small_config, tmp_path, count_calls, monkeypatch
):
    from datatrace import models as models_mod
    from datatrace import trainer as trainer_mod
    from datatrace.hypergrad import _groups

    calls = count_calls((trainer_mod, "replay"), (models_mod, "power_iteration_max_eig"))
    rerun, reruns = trainer_mod.rerun, []

    def counted(record, dataset, starts, length):
        reruns.append((record, list(starts), length))
        return rerun(record, dataset, starts, length)

    monkeypatch.setattr(trainer_mod, "rerun", counted)
    out = str(tmp_path / "bt")
    cli.main([
        "bound-trace", "--config", small_config, "--output", out,
        "--set", "tracking.selection=explicit",
        "--set", "tracking.indices=3,1,3,7",
    ])
    # one walk: one re-run per lockstep group of the trained record
    assert calls == {"replay": 0, "power_iteration_max_eig": 1}
    record = reruns[0][0]
    assert [(starts, length) for _, starts, length in reruns] == _groups(record)
    assert all(r is record for r, _, _ in reruns)
    rows = [l.split(",") for l in Path(out, "bound_trace.csv").read_text().splitlines()[1:]]
    # 20 full-batch steps per index, in sorted index order, each index once
    assert [int(r[0]) for r in rows] == [1] * 20 + [3] * 20 + [7] * 20
    assert [int(r[1]) for r in rows] == list(range(1, 21)) * 3
    constants = json.loads(Path(out, "bound_constants.json").read_text())
    assert list(constants) == ["1", "3", "7"]


def test_output_root_environment_variable(small_config, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    cli.main(["train", "--config", small_config, "--output", "nested/run"])
    assert os.path.isdir(str(tmp_path / "nested" / "run" / "trajectory"))


def test_tracked_selection_modes(small_config):
    cfg = cli.load_config(small_config)
    train, _, _ = cli.build_datasets(cfg)
    from dataclasses import replace

    all_idx = cli.select_tracked(cfg, train)
    assert list(all_idx) == list(range(20))
    rk = replace(cfg, tracking=replace(cfg.tracking, selection="random_k", k=5))
    picked = cli.select_tracked(rk, train)
    assert len(picked) == 5 and len(set(picked.tolist())) == 5
    assert np.array_equal(picked, cli.select_tracked(rk, train))
    pf = replace(cfg, tracking=replace(cfg.tracking, selection="per_class_fraction",
                                       fraction=0.2))
    frac = cli.select_tracked(pf, train)
    labels = train.labels[frac]
    assert (labels == 0).sum() == 2 and (labels == 1).sum() == 2


@pytest.mark.parametrize("tracking, key", [
    ({"selection": "random_k", "k": 0}, "tracking.k"),
    ({"selection": "random_k", "k": -3}, "tracking.k"),
    ({"selection": "per_class_fraction", "fraction": 0.0}, "tracking.fraction"),
    ({"selection": "per_class_fraction", "fraction": -1.0}, "tracking.fraction"),
    ({"selection": "per_class_fraction", "fraction": 1.5}, "tracking.fraction"),
])
def test_bad_tracked_selection_is_rejected_by_name(small_config, tracking, key):
    from dataclasses import replace

    cfg = cli.load_config(small_config)
    cfg = replace(cfg, tracking=replace(cfg.tracking, **tracking))
    train, _, _ = cli.build_datasets(cfg)
    with pytest.raises(ConfigError, match=re.escape(key)):
        cli.select_tracked(cfg, train)


def test_per_class_fraction_skips_a_class_with_no_training_rows(small_config):
    # A loaded split of three classes may hold rows of two; the empty class
    # contributes no index.
    cfg = cli.load_config(small_config)
    cfg = replace(cfg, tracking=replace(cfg.tracking, selection="per_class_fraction",
                                        fraction=0.5))
    train = dt.LabeledDataset(np.arange(16.0).reshape(8, 2), np.array([0, 2] * 4), 3)
    picked = cli.select_tracked(cfg, train)
    assert np.bincount(train.labels[picked], minlength=3).tolist() == [2, 0, 2]


def test_a_noise_fraction_of_nan_is_refused_before_any_output(small_config, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="fraction = nan"):
        cli.main(["run", "--config", small_config, "--set", "noise.fraction=nan",
                  "--output", str(out)])
    assert not out.exists()

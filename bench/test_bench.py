"""Tests of the benchmark itself: span arithmetic, patch restore, output checks.

Run from the repository root with ``python3 -m pytest bench``.
"""

import copy
import importlib
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from datatrace import cli, models, trainer  # noqa: E402


def _row(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_union_of_children():
    tree = [
        _row("trainer.train", 0.0, 10.0, -1),
        _row("hypergrad.hook", 1.0, 3.0, 0),
        _row("models.hessian_vector_product", 1.5, 2.5, 1),
        _row("hypergrad.hook", 2.0, 5.0, 0),  # overlaps its sibling
        _row("data.subset", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 1.0, 3.0, 3.0])
    layers = spans.layer_metrics(tree)
    assert layers["hypergrad.hook_calls"] == 2
    assert layers["hypergrad.hook_self_s"] == pytest.approx(4.0)
    assert layers["trainer.self_s"] == pytest.approx(5.0)
    assert layers["models.hvp_s"] == pytest.approx(1.0)
    assert layers["trace.spans"] == 5


def test_spans_of_each_run_are_split_with_their_own_parents():
    first = [_row("trainer.train", 0.0, 4.0, -1), _row("data.subset", 1.0, 2.0, 0)]
    second = [_row("trainer.train", 5.0, 9.0, -1), _row("data.subset", 6.0, 8.0, 0)]
    for row in second:
        row[spans.RUN] = 1
    second[1][spans.PARENT] = 2  # parent indices count from the start of all spans
    runs = spans.by_run(first + second)
    assert runs[0] == first
    assert spans.self_times(runs[1]) == pytest.approx([2.0, 2.0])
    assert spans.layer_metrics(runs[1])["trainer.self_s"] == pytest.approx(2.0)


def _tiny(seed):
    cfg = wl._experiment(
        seed,
        cli.DatasetConfig(classes=2, per_class=10, dim=3, test_per_class=5),
        models.ModelSpec("logistic_regression", (3, 2)),
        trainer.TrainingConfig(epochs=10, batch_size=0, initial_lr=0.1, weight_decay=0.01),
        cli.TrackingConfig(selection="all"),
    )
    return cfg, [
        ("approx", "tracked"),
        ("exact", "tracked"),
        ("oracle_fd", 2),
        ("influence_dense", "tracked"),
        ("influence_cg", "tracked"),
        ("influence_neumann", 2),
    ]


@pytest.fixture(scope="module")
def inputs():
    return wl.setup(wl.Workload("tiny", "test-sized inputs", _tiny), seed=3)


@pytest.fixture(scope="module")
def plain(inputs, tmp_path_factory):
    p = wl.run_pass(inputs, str(tmp_path_factory.mktemp("plain")))
    wl.check_pass(inputs, p, None)
    assert not p.failed, {k: op.error for k, op in p.ops.items()}
    return p


def _patched_names():
    """Every (holder, attribute) a traced run replaces, with its current value."""
    found = {}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "datatrace"]
    for owner, attr, _, _ in spans.TARGETS:
        original = getattr(owner, attr)
        for holder in [owner] + modules:
            for key, value in vars(holder).items():
                if value is original:
                    found[(id(holder), key)] = value
    return found


def test_traced_run_restores_originals_and_writes_identical_csvs(inputs, plain, tmp_path):
    assert cli.influence_fn is importlib.import_module("datatrace.influence").influence
    before = _patched_names()
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.influence_fn is not before[(id(cli), "influence_fn")]
        traced = wl.run_pass(inputs, str(tmp_path))
    assert _patched_names() == before
    wl.check_pass(inputs, traced, plain)
    assert not traced.failed, {k: op.error for k, op in traced.ops.items()}
    for method in traced.reports:
        assert traced.ops[method].csv == plain.ops[method].csv
    layers = spans.layer_metrics(tracer.spans)
    assert layers["trainer.runs"] == 1 + 2 + 8  # train, two tracker replays, oracle retrains
    assert layers["hypergrad.replays"] == 2
    assert layers["oracle.retrains"] == 8
    assert layers["influence.solves"] == 20 + 20 + 2
    assert layers["models.dense_hessian_calls"] == 20
    assert layers["hypergrad.state_bytes"] == 20 * 2 * 8 * 8  # k * 2 * P * 8 bytes


@pytest.mark.parametrize(
    "method, perturb",
    [
        ("exact", lambda rep: rep.values.update({i: v * 1.01 for i, v in rep.values.items()})),
        ("influence_cg", lambda rep: rep.values.update({i: v * (1 + 1e-5) for i, v in rep.values.items()})),
        ("approx", lambda rep: rep.values.update({1: math.nan})),
        ("approx", lambda rep: rep.values.pop(2)),
    ],
)
def test_perturbed_contributions_are_flagged_failed(inputs, plain, method, perturb):
    bad = copy.deepcopy(plain)
    perturb(bad.reports[method])
    wl.check_pass(inputs, bad, None)
    assert bad.ops[method].failed
    assert [m for m, op in bad.ops.items() if op.failed] == [method]


def test_rerun_with_different_csv_bytes_is_flagged_failed(inputs, plain):
    rerun = copy.deepcopy(plain)
    rerun.ops["approx"].csv += b"\n"
    wl.check_pass(inputs, rerun, plain)
    assert [m for m, op in rerun.ops.items() if op.failed] == ["approx"]


def test_benchmark_json_matches_the_code():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()
    }
    layer_names = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names

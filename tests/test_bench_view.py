"""The benchmark's view of the library.

``bench/`` wraps library functions by name (``spans.TARGETS``), reads the
fields of their results, and drives the pipeline through ``workloads.compute``.
It is not part of this suite, so these tests fail here when a library change
would break what it uses.
"""

import hashlib
import os
import sys

import numpy as np
import pytest

from datatrace import hypergrad, trainer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [target[:2] for target in spans.TARGETS], ids=[t[2] for t in spans.TARGETS]
)
def test_every_span_target_resolves(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.fixture(scope="module")
def convex_all():
    """The convex-all workload's inputs and trained record, as the benchmark builds them."""
    inputs = workloads.setup(workloads.WORKLOADS["convex-all"], seed=3)
    cfg = inputs.cfg
    return inputs, trainer.train(cfg.model, inputs.train, cfg.training)


def test_state_bytes_reads_a_forward_tracking_result(convex_all):
    inputs, record = convex_all
    states = hypergrad.track_exact(record, inputs.train, [0, 5])
    # nabla and mom_deriv, P float64 values each, per tracked sample.
    assert spans._state_bytes((), {}, states) == 2 * 2 * record.final_params.size * 8


def test_compute_runs_every_convex_all_stage_with_one_oracle_index(convex_all):
    inputs, record = convex_all
    for stage in inputs.stages:
        indices = stage.indices[:1] if stage.method == "oracle_fd" else stage.indices
        report = workloads.compute(inputs, stage.method, record, indices)
        assert report.method == stage.method
        assert sorted(report.values) == sorted(indices.tolist())
        assert np.all(np.isfinite(list(report.values.values())))


# C(i) of mlp-minibatch seed 3 over its 16 tracked indices, as float.hex,
# recorded when each C(i) term became a directional derivative read from the
# re-run (within 1.3e-14 relative of the values before) and approx a forward
# walk on closed-form step weights.
MLP_MINIBATCH_PINS = {
    "approx": {
        70: "0x1.0e956cad8b432p-9", 93: "0x1.199a929635e8bp-7",
        173: "0x1.9ee49ff0be077p-6", 202: "-0x1.fa2f8f377f2e2p-8",
        223: "-0x1.418fffa08b8dep-6", 236: "-0x1.8adbf8aaf8a65p-8",
        248: "-0x1.710bb133b1abep-8", 265: "-0x1.c0d0dbb8b6181p-10",
        276: "0x1.460e87e17790dp-7", 277: "0x1.a07d5f9c0aec7p-8",
        352: "-0x1.47caba5a096f7p-6", 398: "-0x1.db54c4d0812b2p-6",
        411: "0x1.3d7da50e542aap-8", 453: "0x1.ccf47ef69dca2p-6",
        454: "0x1.d26054c691197p-7", 472: "0x1.bea682538ed67p-7",
    },
    "exact": {
        70: "0x1.4fe388c3c8db9p-10", 93: "0x1.7b9f1fe47f77dp-9",
        173: "0x1.321518db459ccp-10", 202: "0x1.cd7bf10c5b5a2p-16",
        223: "-0x1.307ceb9e07bc1p-9", 236: "-0x1.5d2124871b949p-11",
        248: "0x1.6d4a1e11ea078p-9", 265: "-0x1.1b24646c923dap-12",
        276: "0x1.e8b45cea8a3ffp-10", 277: "0x1.83ed57dad383dp-9",
        352: "-0x1.b0e85437fe11cp-8", 398: "-0x1.5c948b7a6ea0ep-9",
        411: "0x1.8f17a0ab120dbp-12", 453: "0x1.53d1b2f43fd39p-15",
        454: "0x1.3c19b1f254991p-12", 472: "-0x1.ca8c06f7bef0ep-13",
    },
}


@pytest.mark.parametrize("method", ["approx", "exact"])
def test_compute_keeps_mlp_minibatch_values_bit_for_bit(method):
    inputs = workloads.setup(workloads.WORKLOADS["mlp-minibatch"], seed=3)
    record = trainer.train(inputs.cfg.model, inputs.train, inputs.cfg.training)
    stage = next(stage for stage in inputs.stages if stage.method == method)
    report = workloads.compute(inputs, method, record, stage.indices)
    assert {i: v.hex() for i, v in report.values.items()} == MLP_MINIBATCH_PINS[method]


# C(i) of convex-all seed 3 as float.hex: oracle_fd recorded before the model
# kernel folded its class-axis reductions over columns (the row-heavy C = 2
# path), approx and exact at the same point as the mlp-minibatch pins (within
# 4.8e-14 relative of the values before). approx and exact track all 400
# samples: every 50th index is written out and a SHA-256 over "i:hex" of all
# of them, in index order, covers the rest.
CONVEX_ALL_PINS = {
    "approx": (
        {
            0: "0x1.118fd56262221p-12", 50: "0x1.c79f9be8cb468p-12",
            100: "0x1.50b549c37df8cp-11", 150: "0x1.3cb709db52fd7p-12",
            200: "0x1.4f68a53f9757cp-12", 250: "-0x1.25923d9a431d3p-9",
            300: "-0x1.c2d056c602843p-12", 350: "0x1.8ce522f1f2925p-10",
        },
        "9160c50a8e63836ed7af57f40da4bf5fe5f5301c475f6f35915e3a2be615d917",
    ),
    "exact": (
        {
            0: "0x1.36ee5fdbc1777p-15", 50: "0x1.fa782674246bbp-14",
            100: "0x1.4be0c5b3ede1dp-12", 150: "0x1.80b73d4e83b3fp-15",
            200: "0x1.31cffe2658be5p-14", 250: "-0x1.175e1e92846c3p-10",
            300: "-0x1.88f2d37c64580p-13", 350: "0x1.09643336838dap-13",
        },
        "d54331d1923d993a5173521e5e070d00d8f42c9e8322f51d0aee907051e71bef",
    ),
    "oracle_fd": (
        {
            61: "0x1.a1eada8398f80p-12", 119: "0x1.68473b1fb90aap-13",
            184: "0x1.7793a69044a00p-12", 359: "0x1.ad67f9c5dd956p-15",
        },
        "8cddcd0ae14ded37048e55c5114114287dea8805f6629fef106d5774a7f8f4fa",
    ),
}


@pytest.mark.parametrize("method", sorted(CONVEX_ALL_PINS))
def test_compute_keeps_convex_all_values_bit_for_bit(convex_all, method):
    inputs, record = convex_all
    stage = next(stage for stage in inputs.stages if stage.method == method)
    report = workloads.compute(inputs, method, record, stage.indices)
    hexes = {int(i): v.hex() for i, v in report.values.items()}
    shown, digest = CONVEX_ALL_PINS[method]
    assert {i: hexes[i] for i in shown} == shown
    text = " ".join(f"{i}:{h}" for i, h in sorted(hexes.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# C(i) of influence-mlp seed 3 on a fixed subset of its 200 samples, as
# float.hex, recorded at the same point.
INFLUENCE_MLP_SUBSET = [0, 7, 42, 99, 150, 199]
INFLUENCE_MLP_PINS = {
    "influence_dense": {
        0: "0x1.89a5ffc3711bcp-19", 7: "0x1.0c8ed8273891ep-15",
        42: "0x1.290519d8b908ap-14", 99: "0x1.508e4b4020f80p-13",
        150: "0x1.013f88ead33c4p-10", 199: "-0x1.1b9d005516983p-13",
    },
    "influence_cg": {
        0: "0x1.89a5ffc380843p-19", 7: "0x1.0c8ed82734280p-15",
        42: "0x1.290519d8c5603p-14", 99: "0x1.508e4b4005f2fp-13",
        150: "0x1.013f88ead8314p-10", 199: "-0x1.1b9d00553fc83p-13",
    },
}


@pytest.fixture(scope="module")
def influence_mlp():
    inputs = workloads.setup(workloads.WORKLOADS["influence-mlp"], seed=3)
    cfg = inputs.cfg
    return inputs, trainer.train(cfg.model, inputs.train, cfg.training)


@pytest.mark.parametrize("method", sorted(INFLUENCE_MLP_PINS))
def test_compute_keeps_influence_mlp_values_bit_for_bit(influence_mlp, method):
    inputs, record = influence_mlp
    report = workloads.compute(inputs, method, record, np.array(INFLUENCE_MLP_SUBSET))
    assert {i: v.hex() for i, v in report.values.items()} == INFLUENCE_MLP_PINS[method]

"""The benchmark's view of the library.

``bench/`` wraps library functions by name (``spans.TARGETS``), reads the
fields of their results, and drives the pipeline through ``workloads.compute``.
It is not part of this suite, so these tests fail here when a library change
would break what it uses.
"""

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

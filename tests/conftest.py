"""Shared probe builders for the test suite."""

import numpy as np
import pytest

import datatrace as dt

# One line per acceptance criterion, printed in the terminal summary so the
# verdicts are visible even when pytest captures per-test stdout.
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def gaussian_pair(classes=2, per_class=25, dim=5, separation=3.0, seed=1,
                  test_per_class=25, test_seed=None):
    """Matched train/test splits from the synthetic Gaussian generator."""
    if test_seed is None:
        test_seed = seed + 100
    train = dt.synth_gaussian(classes, per_class, dim, separation, seed, "train")
    test = dt.synth_gaussian(classes, test_per_class, dim, separation, test_seed, "test")
    return train, test


def central_difference_hvp(spec, params, rows, weights, v):
    """H^er v by a central difference of the weighted batch gradient, an oracle independent
    of the R-operator: step r = 1e-4 / max(1, ||v||) along each vector. ``v`` is one
    vector or a (k, P) stack, and the result has its shape."""
    flat = dt.as_flat(params)
    V = np.atleast_2d(v)
    out = np.empty_like(V)
    for i, vec in enumerate(V):
        r = 1e-4 / max(1.0, float(np.linalg.norm(vec)))
        gp = dt.batch_gradient(spec, flat + r * vec, rows, weights)
        gm = dt.batch_gradient(spec, flat - r * vec, rows, weights)
        out[i] = (gp - gm) / (2.0 * r)
    return out[0] if np.ndim(v) == 1 else out


def ridge_probe(targets=(0.0, 2.0), test_targets=(2.0,)):
    """1-D ridge regression: inputs are all 1, squared-error targets.

    The model output is c = W + b, so the regularized minimizer satisfies
    c* = sum(w_i a_i) / (sum(w_i) + lambda/2) with W = b = c/2.
    """
    spec = dt.ModelSpec("logistic_regression", (1, 1), loss="squared_error")
    n = len(targets)
    train = dt.LabeledDataset(
        np.ones((n, 1)), np.asarray(targets, dtype=np.float64).reshape(n, 1), 1, "train"
    )
    m = len(test_targets)
    test = dt.LabeledDataset(
        np.ones((m, 1)),
        np.asarray(test_targets, dtype=np.float64).reshape(m, 1),
        1,
        "test",
    )
    return spec, train, test


def bias_only_probe(targets):
    """Squared-error probe with zero inputs: only the bias parameter moves."""
    spec = dt.ModelSpec("logistic_regression", (1, 1), loss="squared_error")
    n = len(targets)
    data = dt.LabeledDataset(
        np.zeros((n, 1)), np.asarray(targets, dtype=np.float64).reshape(n, 1), 1, "train"
    )
    return spec, data


@pytest.fixture(scope="session")
def convex_probe():
    """Strongly convex logistic probe shared by several suites."""
    spec = dt.ModelSpec("logistic_regression", (5, 2))
    train, test = gaussian_pair()
    cfg = dt.TrainingConfig(
        epochs=500, batch_size=0, initial_lr=0.1, weight_decay=0.01, seed=7
    )
    record = dt.train(spec, train, cfg)
    return spec, train, test, cfg, record


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module functions to count their calls; returns ``{name: count}``.

    ``count_calls((module, "name"), ...)`` patches each function for the
    duration of the test.
    """
    calls = {}

    def install(*targets):
        for module, name in targets:
            original = getattr(module, name)
            calls[name] = 0

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    return install

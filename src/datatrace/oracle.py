"""Ground-truth generators based on full retraining.

The oracle perturbs a sample's data weight (never the dataset itself), so the
batch schedule is unchanged between the nominal and perturbed runs and the
measured difference isolates the derivative of test loss with respect to the
weight. Central finite differences of that derivative are the gold standard
the trajectory trackers are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, models, trainer
from .exceptions import ConfigError

MAX_ORACLE_SAMPLES = 200
MAX_ORACLE_STEPS = 5000


@dataclass
class OracleResult:
    index: int
    value: float  # central-difference d L_test / d eps_i
    delta: float  # step actually used
    loss_plus: float
    loss_minus: float
    loo_delta: float | None  # L_test(without i) - L_test(nominal)
    checksum_plus: str
    checksum_minus: str


def _params_checksum(params):
    import hashlib  # loads OpenSSL (about 3.5 MB resident) on the first digest only

    return hashlib.sha256(np.ascontiguousarray(params).tobytes()).hexdigest()


def _guard(dataset, test_dataset, config, force):
    """Refuse an empty test subset, then (unless ``force``) a run too large to retrain."""
    models.check_test_subset(test_dataset)
    n = len(dataset)
    if force:
        return
    if n > MAX_ORACLE_SAMPLES:
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_SAMPLES} samples (got {n}); pass force=True"
        )
    if config.epochs * len(trainer.batch_starts(n, config.batch_size)) > MAX_ORACLE_STEPS:
        raise ValueError("oracle step budget exceeded; pass force=True")


def _nominal(model, dataset, config, nominal):
    """``nominal``, or the run trained when it is None.

    The replays follow ``nominal`` while the test loss reads ``model`` and the
    guard reads ``config``, so a record trained with another model or config
    raises ConfigError, as does a stacked record, before any replay.
    """
    if nominal is None:
        return trainer.train(model, dataset, config)
    trainer.check_one_run(nominal, "the oracle")
    for name, given in (("model", model), ("config", config)):
        if getattr(nominal, name) != given:
            raise ConfigError(f"nominal record trained with another {name} than {given!r}")
    return nominal


def _retrain(model, dataset, record, index, offsets, test_dataset):
    """One replay of ``record`` with a weight row per offset added to sample ``index``.

    Returns each row's test loss and final parameters.
    """
    weights = np.tile(record.data_weights, (len(offsets), 1))
    weights[:, index] += offsets
    final = trainer.replay(record, dataset, data_weights=weights).final_params
    return [models.test_loss(model, params, test_dataset) for params in final], final


def finite_difference_hypergradient(
    model,
    dataset,
    config,
    index,
    test_dataset,
    delta=1e-3,
    nominal=None,
    richardson=True,
    force=False,
):
    """Central-difference d L_test / d eps_i via retraining.

    With ``richardson`` (the default) the estimates at delta and delta/2 are
    combined as (4*half - full) / 3, cancelling the O(delta^2) truncation
    term; the reported step is the smaller one actually used. The weights are
    perturbed around those of ``nominal``, and the 4 perturbed runs (2
    without ``richardson``) advance together in one stacked replay. A
    ``nominal`` trained with another ``model`` or ``config``, or a stacked
    one, raises ConfigError.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ConfigError(f"delta = {delta!r} must be finite and > 0")
    (index,) = data.training_indices([index], len(dataset)).tolist()
    _guard(dataset, test_dataset, config, force)
    nominal = _nominal(model, dataset, config, nominal)

    steps = (delta, delta / 2.0) if richardson else (delta,)
    losses, final = _retrain(
        model, dataset, nominal, index, [e for h in steps for e in (h, -h)], test_dataset
    )
    slopes = [(lp - lm) / (2.0 * h) for lp, lm, h in zip(losses[::2], losses[1::2], steps)]
    value = (4.0 * slopes[1] - slopes[0]) / 3.0 if richardson else slopes[0]
    return OracleResult(
        index=index,
        value=value,
        delta=steps[-1],
        loss_plus=losses[-2],
        loss_minus=losses[-1],
        loo_delta=None,
        checksum_plus=_params_checksum(final[-2]),
        checksum_minus=_params_checksum(final[-1]),
    )


def leave_one_out(model, dataset, config, index, test_dataset, nominal=None, force=False):
    """Test-loss change from retraining with eps_i = -1/N (sample removed).

    ``nominal`` is checked as in ``finite_difference_hypergradient``.
    """
    n = len(dataset)
    (index,) = data.training_indices([index], n).tolist()
    _guard(dataset, test_dataset, config, force)
    nominal = _nominal(model, dataset, config, nominal)
    nominal_loss = models.test_loss(model, nominal.final_params, test_dataset)
    (without_loss,), (without,) = _retrain(
        model, dataset, nominal, index, [-1.0 / n], test_dataset
    )
    # One-sided secant estimate of d L_test/d eps_i from the -1/N step;
    # loo_delta itself is the C(i)-comparable quantity.
    return OracleResult(
        index=index,
        value=-(without_loss - nominal_loss) * n,
        delta=1.0 / n,
        loss_plus=without_loss,
        loss_minus=nominal_loss,
        loo_delta=without_loss - nominal_loss,
        checksum_plus=_params_checksum(without),
        checksum_minus=_params_checksum(nominal.final_params),
    )

"""The contribution report every estimator returns, and its CSV schema.

Every method (trajectory trackers, influence functions, retraining oracles)
returns a ``ContributionReport`` on the C(i) scale and emits rows of (method,
train_index, test_index_or_ALL, contribution), so the outputs are directly
comparable. Floats use their shortest round-trip decimal form, which keeps
reruns byte-identical. ``write_json`` is the one writer of the JSON outputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

HEADER = ["method", "train_index", "test_index_or_ALL", "contribution"]


@dataclass
class ContributionReport:
    """Per-sample contribution values with method provenance."""

    method: str
    values: dict  # train index -> C(i)
    pair_values: dict | None  # (train index, test index) -> C(i, j)


def from_loss_derivatives(method, index, dloss, n_train):
    """The report of C = -dloss / N, with ``dloss`` of shape (1 [+ m], len(index)).

    ``dloss[0, r]`` is dL_test/d eps_i for i = ``index[r]``, the derivative of
    the test loss in the sample's upweighting, and gives C(i). Rows 1 + j, when
    present (``per_test``), hold the same derivative of test row j's loss and
    give C(i, j).
    """
    C = -dloss / n_train
    pair_values = None
    if len(C) > 1:
        pair_values = {
            (i, j): cij for r, i in enumerate(index) for j, cij in enumerate(C[1:, r].tolist())
        }
    return ContributionReport(method, dict(zip(index, C[0].tolist())), pair_values)


def write_json(payload, path):
    """``payload`` as JSON with sorted keys, two-space indents and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_report_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for i in sorted(report.values):
            writer.writerow([report.method, i, "ALL", repr(report.values[i])])
        if report.pair_values:
            for (i, j) in sorted(report.pair_values):
                writer.writerow(
                    [report.method, i, j, repr(report.pair_values[(i, j)])]
                )
    return path


def read_report_csv(path):
    values, pair_values = {}, {}
    method = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for method_tag, i, j, val in reader:
            method = method_tag
            if j == "ALL":
                values[int(i)] = float(val)
            else:
                pair_values[(int(i), int(j))] = float(val)
    return ContributionReport(method or "unknown", values, pair_values or None)


def oracle_results_to_report(results, n_train, method="oracle_fd"):
    """Map oracle outputs onto the C(i) scale.

    oracle_fd: ``value`` is dL_test/d eps_i, so C(i) = -(1/N) * value.
    oracle_loo: the measured test-loss delta from removal already matches C(i)
    to first order.
    """
    if method == "oracle_loo":
        return ContributionReport(
            method, {res.index: float(res.loo_delta) for res in results}, None
        )
    dloss = np.array([[res.value for res in results]], dtype=np.float64)
    return from_loss_derivatives(method, [res.index for res in results], dloss, n_train)

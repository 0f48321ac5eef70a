"""Common CSV schema for contribution-style reports.

Every method (trajectory trackers, influence functions, retraining oracles)
emits rows of (method, train_index, test_index_or_ALL, contribution) so the
outputs are directly comparable. Floats use their shortest round-trip
decimal form, which keeps reruns byte-identical. ``write_json`` is the one
writer of the JSON outputs.
"""

from __future__ import annotations

import csv
import json

from .hypergrad import ContributionReport

HEADER = ["method", "train_index", "test_index_or_ALL", "contribution"]


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
    return ContributionReport(
        method=method or "unknown",
        values=values,
        pair_values=pair_values or None,
        test_tag="test",
        n_train=len(values),
    )


def oracle_results_to_report(results, n_train, method="oracle_fd"):
    """Map oracle outputs onto the C(i) scale.

    oracle_fd: C(i) = -(1/N) * dL_test/d eps_i. oracle_loo: the measured
    test-loss delta from removal already matches C(i) to first order.
    """
    values = {}
    for res in results:
        if method == "oracle_loo":
            values[res.index] = float(res.loo_delta)
        else:
            values[res.index] = float(-res.value / n_train)
    return ContributionReport(
        method=method, values=values, pair_values=None, test_tag="test", n_train=n_train
    )

"""Attribution analytics: stats, comparisons, cleaning, clustering."""

import json
from pathlib import Path

import numpy as np
import pytest

import datatrace as dt
from datatrace import attribution
from datatrace.reports import ContributionReport


def _report(values, method="exact"):
    return ContributionReport(method=method, values=dict(values), pair_values=None)


def test_distribution_stats():
    rep = _report({0: 3.0, 1: -1.0, 2: 0.5, 3: 2.0})
    stats = dt.distribution_stats(rep, k=2)
    assert stats.mean == pytest.approx(1.125)
    assert stats.std == pytest.approx(np.std([3.0, -1.0, 0.5, 2.0]))
    assert stats.top == [(0, 3.0), (3, 2.0)]
    assert stats.bottom == [(1, -1.0), (2, 0.5)]


def test_compare_identical_and_negated():
    ref = _report({i: v for i, v in enumerate([1.0, -2.0, 3.0, 0.5])})
    same = dt.compare_methods(ref, _report(dict(ref.values), method="approx"))
    assert same.sign_error_rate == 0.0
    assert same.spearman_rho == pytest.approx(1.0)
    negated = dt.compare_methods(
        ref, _report({i: -v for i, v in ref.values.items()}, method="approx")
    )
    assert negated.sign_error_rate == 1.0
    assert negated.spearman_rho == pytest.approx(-1.0)


def test_textbook_spearman_arithmetic():
    # one adjacent transposition in 5 ranks: rho = 1 - 6*2/(5*24) = 0.9
    ref = _report({i: v for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])})
    cand = _report({i: v for i, v in enumerate([1.0, 3.0, 2.0, 4.0, 5.0])},
                   method="approx")
    cmp_ = dt.compare_methods(ref, cand)
    assert cmp_.spearman_rho == pytest.approx(0.9)
    assert cmp_.sign_error_rate == 0.0


def test_compare_rejects_mismatched_index_sets():
    ref = _report({0: 1.0, 1: 2.0})
    cand = _report({0: 1.0, 2: 2.0})
    with pytest.raises(ValueError):
        dt.compare_methods(ref, cand)


def test_clean_dataset_discards_floor_fraction_with_index_ties():
    rep = _report({0: 1.0, 1: 0.0, 2: 0.0, 3: 2.0, 4: -1.0})
    retained = dt.clean_dataset(rep, 0.4)  # floor(0.4*5) = 2 discarded
    # worst two are -1.0 (index 4) then the 0.0 tie broken by ascending index
    assert list(retained) == [0, 2, 3]
    with pytest.raises(ValueError):
        dt.clean_dataset(rep, 0.0)


def test_inter_class_matrix_values_and_normalization():
    pair_values = {
        (0, 0): 2.0, (1, 0): 4.0,   # train class 0 -> test class 0 mean 3
        (0, 1): 1.0, (1, 1): 1.0,   # train class 0 -> test class 1 mean 1
        (2, 0): -1.0, (2, 1): 0.5,  # train class 1
    }
    train_labels = [0, 0, 1]
    test_labels = [0, 1]
    m = dt.inter_class_matrix(pair_values, train_labels, test_labels, 2)
    assert np.allclose(m.raw, [[3.0, 1.0], [-1.0, 0.5]])
    row = m.raw.sum(axis=1)
    col = m.raw.sum(axis=0)
    expected = m.raw / np.sqrt(np.abs(row)[:, None] * np.abs(col)[None, :])
    assert np.allclose(m.normalized, expected)
    assert m.degenerate_sums  # a row sum is negative


def test_inter_class_matrix_requires_all_pairs():
    with pytest.raises(ValueError):
        dt.inter_class_matrix({(0, 0): 1.0}, [0, 1], [0], 2)


def test_sign_cluster_perfect_fixture_gets_jaccard_one():
    # correct samples agree with the probes, flipped ones anti-agree
    n_per, probes = 10, 6
    rows = []
    flips = []
    for c in range(2):
        for k in range(n_per):
            flipped = k < 3
            base = np.ones(probes) if not flipped else -np.ones(probes)
            rows.append(base)
            flips.append(flipped)
    labels = [0] * n_per + [1] * n_per
    ev = dt.sign_cluster(np.array(rows), labels, np.array(flips), seed=0)
    assert ev.mean_correct == 1.0
    assert ev.mean_flipped == 1.0
    for c in (0, 1):
        assert ev.per_class[c] == (1.0, 1.0)


def test_sign_cluster_zero_values_count_as_positive():
    rows = np.zeros((4, 3))
    rows[2:] = -1.0
    ev = dt.sign_cluster(rows, [0, 0, 0, 0], np.array([False, False, True, True]), seed=1)
    assert ev.per_class[0] == (1.0, 1.0)


def test_json_and_csv_writers_are_deterministic(tmp_path):
    rep = _report({0: 1.0 / 3.0, 1: -2.0 / 7.0, 2: 0.125})
    stats = dt.distribution_stats(rep, k=2)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    attribution.write_stats_json(stats, p1)
    attribution.write_stats_json(stats, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    payload = json.loads(Path(p1).read_text())
    assert payload["mean"] == stats.mean  # repr round-trip preserves the float

    m = dt.inter_class_matrix(
        {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}, [0, 1], [0, 1], 2
    )
    c1, c2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    attribution.write_matrix_csv(m, c1)
    attribution.write_matrix_csv(m, c2)
    assert Path(c1).read_bytes() == Path(c2).read_bytes()

"""Analytics over contribution reports.

Distribution statistics, influential-example ranking, inter-class
contribution matrices, method-vs-method comparisons (sign-error rate and
Spearman rank correlation), noisy-label cleaning, and sign-vector clustering
scored by Jaccard index.

Spearman's rho is computed in numpy: average ranks, then the ``np.corrcoef``
call that ``scipy.stats.spearmanr`` makes on them, so a defined rho has
scipy's bits and numpy is the only runtime dependency.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import reports


@dataclass
class DistributionStats:
    mean: float
    std: float  # population std
    top: list  # [(index, value)] best contributions, descending
    bottom: list  # [(index, value)] worst contributions, ascending


@dataclass
class InterClassMatrix:
    raw: np.ndarray  # class-pair means of C(i, j)
    normalized: np.ndarray  # raw / sqrt(|row sum| * |col sum|)
    class_labels: list
    degenerate_sums: bool  # a row/col sum was <= 0 (abs used, zeros flagged)


@dataclass
class MethodComparison:
    reference: str
    candidate: str
    sign_error_rate: float
    spearman_rho: float
    n_compared: int


@dataclass
class ClusterEvaluation:
    per_class: dict  # class -> (jaccard_correct, jaccard_flipped)
    mean_correct: float
    mean_flipped: float


def _sorted_items(report):
    return sorted(report.values.items())


def distribution_stats(report, k=5):
    """Mean/population-std of C(i) plus the k most and least useful samples."""
    items = _sorted_items(report)
    if not items:
        raise ValueError("empty contribution report")
    vals = np.array([v for _, v in items])
    order = np.argsort(-vals, kind="stable")
    top = [(items[j][0], items[j][1]) for j in order[:k]]
    bottom = [(items[j][0], items[j][1]) for j in order[::-1][:k]]
    return DistributionStats(float(vals.mean()), float(vals.std()), top, bottom)


def inter_class_matrix(pair_values, train_labels, test_labels, class_count):
    """Class-pair mean contributions, raw and sqrt-normalized.

    The normalizer uses absolute row/column sums so the heatmap stays
    defined when sums are negative; the entry sign is preserved. Zero sums
    yield normalized zeros and set the degenerate flag.
    """
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    sums = np.zeros((class_count, class_count))
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    for (i, j), val in pair_values.items():
        sums[train_labels[i], test_labels[j]] += val
        counts[train_labels[i], test_labels[j]] += 1
    if np.any(counts == 0):
        missing = np.argwhere(counts == 0)[0]
        raise ValueError(
            f"no (train class {missing[0]}, test class {missing[1]}) pairs"
        )
    raw = sums / counts
    row = raw.sum(axis=1)
    col = raw.sum(axis=0)
    degenerate = bool(np.any(row <= 0) or np.any(col <= 0))
    denom = np.sqrt(np.abs(row)[:, None] * np.abs(col)[None, :])
    normalized = np.divide(
        raw, denom, out=np.zeros_like(raw), where=denom > 0
    )
    return InterClassMatrix(raw, normalized, list(range(class_count)), degenerate)


def _average_ranks(x):
    """1-based ranks of ``x``; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(starts, append=len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman_rho(a, b):
    """Spearman's rank correlation of two equal-length 1-D arrays.

    NaN, without a warning, where rho is undefined: fewer than 2 samples, a
    constant side, or a NaN value.
    """
    if len(a) < 2 or np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    if (a == a[0]).all() or (b == b[0]).all():
        return float("nan")
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def compare_methods(reference_report, candidate_report):
    """Sign-error rate and Spearman rho of the candidate against a gold standard.

    ``spearman_rho`` is NaN where rho is undefined (see ``_spearman_rho``).
    """
    ref_items = _sorted_items(reference_report)
    if not ref_items:
        raise ValueError("empty contribution report")
    cand = candidate_report.values
    if sorted(cand) != [i for i, _ in ref_items]:
        raise ValueError("reports cover different training-index sets")
    ref = np.array([v for _, v in ref_items])
    can = np.array([cand[i] for i, _ in ref_items])
    sign_err = float(np.mean(np.sign(ref) != np.sign(can)))
    rho = _spearman_rho(ref, can)
    return MethodComparison(
        reference=reference_report.method,
        candidate=candidate_report.method,
        sign_error_rate=sign_err,
        spearman_rho=rho,
        n_compared=len(ref),
    )


def clean_dataset(report, noise_fraction):
    """Indices retained after discarding the floor(r*N) least useful samples.

    Ties break by ascending index; the returned array is sorted.
    """
    if not 0.0 < noise_fraction < 1.0:
        raise ValueError("noise_fraction must lie in (0, 1)")
    items = _sorted_items(report)
    k = int(np.floor(noise_fraction * len(items)))
    ranked = sorted(items, key=lambda iv: (iv[1], iv[0]))
    discarded = {i for i, _ in ranked[:k]}
    return np.array(sorted(i for i, _ in items if i not in discarded))


def _kmeans_two(X, seed, restarts=20, iters=100):
    """Deterministic 2-means with seeded restarts; returns assignments."""
    rng = np.random.default_rng([int(seed), 0x2EA5])
    best_assign, best_inertia = None, np.inf
    n = len(X)
    for _ in range(restarts):
        centers = X[rng.choice(n, size=2, replace=False)].astype(np.float64)
        assign = np.zeros(n, dtype=np.int64)
        for _ in range(iters):
            d = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
            new_assign = d.argmin(axis=1)
            for c in range(2):
                members = X[new_assign == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
                else:
                    centers[c] = X[rng.integers(n)]
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        inertia = float(
            ((X - centers[assign]) ** 2).sum()
        )
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign.copy()
    return best_assign


def _jaccard(a, b):
    a, b = set(a), set(b)
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def sign_cluster(pair_matrix, train_labels, truth_flip_mask, seed=0, restarts=20):
    """Cluster per-sample contribution sign vectors against noisy-label truth.

    ``pair_matrix`` is (n_train, probe_count): each row holds a sample's
    contributions to the probe validation points. Rows are discretized to
    +/-1 (zeros map to +1), clustered per class with 2-means, and the two
    clusters are matched to the correct/flipped truth groups by maximizing
    summed overlap. Jaccard indices are reported per group and class-averaged.
    """
    pair_matrix = np.asarray(pair_matrix, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    truth_flip_mask = np.asarray(truth_flip_mask, dtype=bool)
    signs = np.where(pair_matrix >= 0.0, 1.0, -1.0)
    per_class = {}
    for c in sorted(set(int(l) for l in train_labels)):
        rows = np.flatnonzero(train_labels == c)
        if len(rows) < 2:
            raise ValueError(f"class {c} has fewer than 2 samples")
        assign = _kmeans_two(signs[rows], seed=seed, restarts=restarts)
        clusters = [set(rows[assign == k]) for k in range(2)]
        correct = set(rows[~truth_flip_mask[rows]])
        flipped = set(rows[truth_flip_mask[rows]])
        # Two possible cluster-to-group assignments; keep the one with the
        # larger summed overlap.
        straight = len(clusters[0] & correct) + len(clusters[1] & flipped)
        crossed = len(clusters[1] & correct) + len(clusters[0] & flipped)
        if straight >= crossed:
            c_correct, c_flipped = clusters
        else:
            c_flipped, c_correct = clusters
        per_class[c] = (_jaccard(c_correct, correct), _jaccard(c_flipped, flipped))
    mean_correct = float(np.mean([v[0] for v in per_class.values()]))
    mean_flipped = float(np.mean([v[1] for v in per_class.values()]))
    return ClusterEvaluation(per_class, mean_correct, mean_flipped)


# ---------------------------------------------------------------------------
# Plot-ready emission helpers. All numeric output uses the shortest
# round-trip decimal form of the underlying float64.


def write_stats_json(stats, path):
    payload = {
        "mean": stats.mean,
        "std": stats.std,
        "top": [[int(i), v] for i, v in stats.top],
        "bottom": [[int(i), v] for i, v in stats.bottom],
    }
    reports.write_json(payload, path)


def write_matrix_csv(matrix, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "train_class", "test_class", "value"])
        for name, grid in (("raw", matrix.raw), ("normalized", matrix.normalized)):
            for i in range(grid.shape[0]):
                for j in range(grid.shape[1]):
                    writer.writerow([name, i, j, repr(float(grid[i, j]))])


def write_comparison_json(comparison, path):
    """The comparison as JSON; an undefined (NaN) rho is written as ``null``."""
    rho = comparison.spearman_rho
    payload = {
        "reference": comparison.reference,
        "candidate": comparison.candidate,
        "sign_error_rate": comparison.sign_error_rate,
        "spearman_rho": None if np.isnan(rho) else rho,
        "n_compared": comparison.n_compared,
    }
    reports.write_json(payload, path)


def write_retained_indices(indices, path):
    with open(path, "w") as fh:
        for i in indices:
            fh.write(f"{int(i)}\n")

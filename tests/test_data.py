"""Datasets: generators, label noise, IDX/CSV loaders, report CSVs, training indices."""

import struct

import numpy as np
import pytest

import datatrace as dt
from datatrace import trainer
from datatrace.exceptions import ConfigError, IdxFormatError
from datatrace.reports import (
    ContributionReport,
    oracle_results_to_report,
    read_report_csv,
    write_report_csv,
)
from datatrace.oracle import OracleResult
from conftest import gaussian_pair


def test_synth_gaussian_is_deterministic_and_balanced():
    a = dt.synth_gaussian(3, 10, 5, 2.0, 42)
    b = dt.synth_gaussian(3, 10, 5, 2.0, 42)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert [int((a.labels == c).sum()) for c in range(3)] == [10, 10, 10]
    c = dt.synth_gaussian(3, 10, 5, 2.0, 43)
    assert not np.array_equal(a.inputs, c.inputs)


def test_synth_gaussian_class_mean_separation():
    ds = dt.synth_gaussian(3, 2000, 4, 5.0, 0)
    means = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(5.0, abs=0.2)


def test_check_disjoint_detects_overlap():
    train = dt.synth_gaussian(2, 5, 3, 2.0, 1)
    test = dt.LabeledDataset(train.inputs[:2].copy(), train.labels[:2].copy(), 2, "test")
    with pytest.raises(ValueError):
        dt.check_disjoint(train, test)
    clean_test = dt.synth_gaussian(2, 5, 3, 2.0, 2, "test")
    dt.check_disjoint(train, clean_test)  # no raise


def test_inject_noise_counts_and_extremes():
    ds = dt.synth_gaussian(2, 20, 3, 2.0, 1)
    same, rec0 = dt.inject_noise(ds, 0.0, 5)
    assert len(rec0.flipped_indices) == 0
    assert np.array_equal(same.labels, ds.labels)

    noisy, rec = dt.inject_noise(ds, 0.5, 5)
    assert len(rec.flipped_indices) == 20  # floor(0.5 * 40)
    assert np.all(noisy.labels[rec.flipped_indices] != ds.labels[rec.flipped_indices])
    untouched = np.setdiff1d(np.arange(40), rec.flipped_indices)
    assert np.array_equal(noisy.labels[untouched], ds.labels[untouched])

    allflip, rec1 = dt.inject_noise(ds, 1.0, 5)
    assert np.all(allflip.labels != ds.labels)


def test_inject_noise_is_deterministic():
    ds = dt.synth_gaussian(3, 10, 3, 2.0, 1)
    _, a = dt.inject_noise(ds, 0.3, 9)
    _, b = dt.inject_noise(ds, 0.3, 9)
    assert np.array_equal(a.flipped_indices, b.flipped_indices)
    assert np.array_equal(a.new_labels, b.new_labels)


def test_idx_round_trip_and_pixel_scaling(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 1, 1] = 128
    labels = np.array([1, 0, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "img"), str(tmp_path / "lbl")
    dt.write_idx(ip, lp, images, labels)
    ds = dt.load_idx(ip, lp, class_count=2)
    assert ds.inputs.shape == (3, 2, 2)
    assert ds.features.shape == (3, 4)
    assert ds.inputs[0, 0, 0] == 1.0  # byte 255 maps to exactly 1.0
    assert ds.inputs[1, 1, 1] == pytest.approx(128 / 255)
    assert np.array_equal(ds.labels, labels)


def test_idx_bad_magic_rejected(tmp_path):
    ip = str(tmp_path / "img")
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000999, 1, 2, 2))
        fh.write(bytes(4))
    lp = str(tmp_path / "lbl")
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, 1))
        fh.write(bytes(1))
    with pytest.raises(IdxFormatError, match="magic"):
        dt.load_idx(ip, lp)


def test_idx_count_mismatch_rejected(tmp_path):
    ip, lp = str(tmp_path / "img"), str(tmp_path / "lbl")
    dt.write_idx(ip, lp, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    lp2 = str(tmp_path / "lbl2")
    with open(lp2, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, 3))
        fh.write(bytes(3))
    with pytest.raises(IdxFormatError, match="match"):
        dt.load_idx(ip, lp2)


def test_idx_truncated_pixels_rejected(tmp_path):
    ip = str(tmp_path / "img")
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
        fh.write(bytes(5))  # needs 8
    lp = str(tmp_path / "lbl")
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, 2))
        fh.write(bytes(2))
    with pytest.raises(IdxFormatError, match="truncated"):
        dt.load_idx(ip, lp)


def test_csv_loader(tmp_path):
    p = str(tmp_path / "d.csv")
    with open(p, "w") as fh:
        fh.write("0.5,1.5,0\n-0.5,2.5,1\n")
    ds = dt.load_csv(p, class_count=2)
    assert ds.features.shape == (2, 2)
    assert list(ds.labels) == [0, 1]


def test_report_csv_round_trip(tmp_path):
    rep = ContributionReport(
        method="exact",
        values={0: 1.0 / 3.0, 2: -0.25},
        pair_values={(0, 0): 0.5, (0, 1): 1.0 / 6.0, (2, 0): -0.1, (2, 1): -0.4},
    )
    p = str(tmp_path / "r.csv")
    write_report_csv(rep, p)
    back = read_report_csv(p)
    assert back.method == "exact"
    assert back.values == rep.values  # repr floats round-trip exactly
    assert back.pair_values == rep.pair_values


def test_oracle_results_to_report_scaling():
    res = [
        OracleResult(0, value=2.0, delta=1e-3, loss_plus=0, loss_minus=0,
                     loo_delta=None, checksum_plus="", checksum_minus=""),
        OracleResult(1, value=-4.0, delta=1e-3, loss_plus=0, loss_minus=0,
                     loo_delta=None, checksum_plus="", checksum_minus=""),
    ]
    rep = oracle_results_to_report(res, n_train=10, method="oracle_fd")
    assert rep.values == {0: -0.2, 1: 0.4}
    loo = [
        OracleResult(0, value=1.0, delta=0.1, loss_plus=0, loss_minus=0,
                     loo_delta=0.03, checksum_plus="", checksum_minus=""),
    ]
    rep2 = oracle_results_to_report(loo, n_train=10, method="oracle_loo")
    assert rep2.values == {0: 0.03}


# Every entry point that takes training indices, called with one index.
INDEX_ENTRIES = {
    "track_exact": lambda rec, train, test, i: dt.track_exact(rec, train, [i]),
    "track_approx": lambda rec, train, test, i: dt.track_approx(rec, train, [i]),
    "error_trace": lambda rec, train, test, i: dt.error_trace(rec, train, [i]),
    "influence": lambda rec, train, test, i: dt.influence(
        rec.model, rec.final_params, train, test, [i]
    ),
    "finite_difference_hypergradient": lambda rec, train, test, i: (
        dt.finite_difference_hypergradient(rec.model, train, rec.config, i, test, nominal=rec)
    ),
    "leave_one_out": lambda rec, train, test, i: dt.leave_one_out(
        rec.model, train, rec.config, i, test, nominal=rec
    ),
}


@pytest.mark.parametrize("bad", [-1, "n", 1.5])
@pytest.mark.parametrize("entry", list(INDEX_ENTRIES))
def test_training_index_contract(entry, bad):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=5)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    index = len(train) if bad == "n" else bad
    with pytest.raises(ConfigError, match="training index"):
        INDEX_ENTRIES[entry](rec, train, test, index)


# Every entry point that reads the test side, called with an empty test subset.
TEST_SIDE_ENTRIES = {
    "test_loss": lambda rec, train, test: dt.test_loss(rec.model, rec.final_params, test),
    "contribution": lambda rec, train, test: dt.contribution(
        rec, {0: dt.HypergradState(0, "exact", np.zeros(rec.final_params.size),
                                   np.zeros(rec.final_params.size), rec.steps)}, test
    ),
    "contribution_exact": lambda rec, train, test: dt.contribution_exact(rec, train, [0], test),
    "contribution_approx": lambda rec, train, test: dt.contribution_approx(rec, train, [0], test),
    "influence": lambda rec, train, test: dt.influence(
        rec.model, rec.final_params, train, test, [0]
    ),
    "finite_difference_hypergradient": lambda rec, train, test: (
        dt.finite_difference_hypergradient(rec.model, train, rec.config, 0, test)
    ),
    "leave_one_out": lambda rec, train, test: dt.leave_one_out(
        rec.model, train, rec.config, 0, test
    ),
}


@pytest.mark.parametrize("entry", list(TEST_SIDE_ENTRIES))
def test_empty_test_subset_is_refused_before_any_training(entry, count_calls):
    spec = dt.ModelSpec("logistic_regression", (4, 2))
    train, test = gaussian_pair(dim=4, per_class=5)
    cfg = dt.TrainingConfig(epochs=3, batch_size=0, initial_lr=0.05,
                            weight_decay=0.01, seed=0)
    rec = dt.train(spec, train, cfg)
    empty = test.subset([])
    assert empty.features.shape == (0, 4)
    calls = count_calls((trainer, "train"))
    for subset in (empty, (empty.features, empty.labels)):
        with pytest.raises(ValueError, match="empty test subset"):
            TEST_SIDE_ENTRIES[entry](rec, train, subset)
    assert calls == {"train": 0}


def test_training_indices_are_distinct_in_first_seen_order():
    from datatrace.data import training_indices

    index = training_indices([7, 2, 7, np.int64(0), 2.0], 8)
    assert index.dtype == np.int64
    assert index.tolist() == [7, 2, 0]
    assert training_indices([], 8).tolist() == []

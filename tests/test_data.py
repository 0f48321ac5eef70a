"""Datasets: generators, the disjointness check, label noise, IDX/CSV loaders, report CSVs,
training indices."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datatrace as dt
from datatrace import cli, data, trainer
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


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_labeled_dataset_refuses_an_integer_label_outside_the_classes(dtype):
    with pytest.raises(ValueError, match="label outside"):
        dt.LabeledDataset(np.zeros((2, 3)), np.array([0, 2], dtype=dtype), 2)
    assert dt.LabeledDataset(np.zeros((2, 3)), np.array([0, 1], dtype=dtype), 2).class_count == 2


def _reference_synth_gaussian(classes, per_class, dim, separation, seed):
    """The generator drawn one class at a time."""
    rng = np.random.default_rng([seed, 0x5EED])
    means = data._simplex_means(classes, dim, separation)
    inputs = np.empty((classes * per_class, dim))
    for c in range(classes):
        inputs[c * per_class:(c + 1) * per_class] = means[c] + rng.standard_normal((per_class, dim))
    return inputs, np.repeat(np.arange(classes), per_class)


@pytest.mark.parametrize("classes, per_class, dim", [
    (10, 50, 20), (2, 200, 5), (2, 100, 5), (10, 10, 20), (3, 7, 4), (1, 4, 3), (3, 0, 2),
])
def test_synth_gaussian_draws_the_per_class_stream(classes, per_class, dim):
    for seed in (0, 2):
        ds = dt.synth_gaussian(classes, per_class, dim, 3.0, seed)
        inputs, labels = _reference_synth_gaussian(classes, per_class, dim, 3.0, seed)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)


@pytest.mark.parametrize("classes", [0, -1])
def test_synth_gaussian_refuses_no_class(classes):
    with pytest.raises(ValueError, match="classes"):
        dt.synth_gaussian(classes, 5, 3, 2.0, 0)


def test_build_datasets_shares_the_means_of_synth_gaussian():
    cfg = cli.parse_config_text("[dataset]\nclasses = 4\nper_class = 6\ndim = 3\n"
                                "test_per_class = 5\nseed = 8\ntest_seed = 9\n")
    train, test, _ = cli.build_datasets(cfg)
    for got, per_class, seed, tag in ((train, 6, 8, "train"), (test, 5, 9, "test")):
        want = dt.synth_gaussian(4, per_class, 3, 3.0, seed, tag)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert np.array_equal(got.labels, want.labels) and got.split_tag == tag


def _first_shared_row(train, test):
    """The first test index whose row bytes a train row has (None if none), by
    one ``bytes`` copy per row."""
    seen = {row.tobytes() for row in train.features}
    return next((j for j, row in enumerate(test.features) if row.tobytes() in seen), None)


def _assert_check_disjoint_agrees(train, test):
    j = _first_shared_row(train, test)
    if j is None:
        dt.check_disjoint(train, test)
    else:
        with pytest.raises(ValueError, match=f"^test sample {j} also appears"):
            dt.check_disjoint(train, test)
    return j


def _split(inputs, tag="train"):
    inputs = np.asarray(inputs, dtype=np.float64)
    return dt.LabeledDataset(inputs, np.zeros(len(inputs), dtype=np.int64), 1, tag)


def test_check_disjoint_detects_overlap():
    train = dt.synth_gaussian(2, 5, 3, 2.0, 1)
    test = dt.LabeledDataset(train.inputs[:2].copy(), train.labels[:2].copy(), 2, "test")
    with pytest.raises(ValueError, match="test sample 0 also appears"):
        dt.check_disjoint(train, test)
    clean_test = dt.synth_gaussian(2, 5, 3, 2.0, 2, "test")
    dt.check_disjoint(train, clean_test)  # no raise


@pytest.mark.parametrize("train_row", [0, -1], ids=["first", "last"])
def test_check_disjoint_finds_a_duplicate_of_the_first_and_the_last_train_row(train_row):
    rng = np.random.default_rng(3)
    train, test = rng.standard_normal((40, 6)), rng.standard_normal((9, 6))
    test[4] = train[train_row]
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) == 4


def test_check_disjoint_names_the_first_of_several_duplicates():
    rng = np.random.default_rng(4)
    train, test = rng.standard_normal((30, 5)), rng.standard_normal((12, 5))
    for j, i in ((9, 2), (3, 17), (7, 17), (11, 0)):
        test[j] = train[i]
    train[25] = train[17]  # a duplicate inside the train split as well
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) == 3


def test_check_disjoint_keeps_the_sign_of_zero():
    train = _split([[0.0, 1.0], [2.0, -0.0]])
    test = _split([[-0.0, 1.0], [2.0, 0.0]], "test")
    assert _assert_check_disjoint_agrees(train, test) is None
    assert _assert_check_disjoint_agrees(train, _split([[5.0, 5.0], [2.0, -0.0]])) == 1


def test_check_disjoint_over_widths_empty_splits_and_strides():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((20, 8))
    # Rows of different widths never match, not even on a shared prefix.
    assert _assert_check_disjoint_agrees(_split(rows[:, :4]), _split(rows[:3], "test")) is None
    for train, test in ((rows[:0], rows), (rows, rows[:0]), (rows[:0], rows[:0])):
        assert _assert_check_disjoint_agrees(_split(train), _split(test)) is None
    # Zero-width rows all hold the same (no) bytes.
    assert _assert_check_disjoint_agrees(_split(np.ones((3, 0))), _split(np.ones((2, 0)))) == 0
    # Strided and Fortran-ordered inputs, flat and as images.
    test = rows[::-3, ::2].copy()
    test[2, 1] += 1.0
    strided, fortran = _split(rows[:, ::2]), _split(np.asfortranarray(rows[:, ::2]))
    assert not strided.features.flags.c_contiguous and not fortran.features.flags.c_contiguous
    for split in (strided, fortran, _split(rows[:, ::2].reshape(20, 2, 2))):
        assert _assert_check_disjoint_agrees(split, _split(test[::-1], "test")) == 0
        assert _assert_check_disjoint_agrees(split, _split(test[2:3], "test")) is None


def test_row_keys_separate_integer_valued_rows():
    # Every row over {0, 1, 2, 3}^6 and {0, 1}^12: the words of such floats
    # end in 51 or more zero bits, where a multiply-add key collides.
    for values, width in (((0.0, 1.0, 2.0, 3.0), 6), ((0.0, 1.0), 12)):
        grid = np.array(np.meshgrid(*[values] * width, indexing="ij")).reshape(width, -1).T
        keys = data._row_keys(np.ascontiguousarray(grid))
        assert np.unique(keys).size == len(grid) == len(values) ** width
    # Equal rows get equal keys, in any layout and any block of rows.
    rows = np.floor(np.random.default_rng(6).uniform(0, 256, (300, 300)))
    assert len(rows) * rows.shape[1] > data._KEY_BLOCK
    one_by_one = np.concatenate([data._row_keys(rows[i:i + 1]) for i in range(len(rows))])
    assert np.array_equal(data._row_keys(rows), one_by_one)
    assert np.array_equal(data._row_keys(np.asfortranarray(rows)), one_by_one)


def test_check_disjoint_on_integer_valued_features():
    rng = np.random.default_rng(7)
    train = np.floor(rng.uniform(0, 256, (300, 16)))
    test = np.floor(rng.uniform(0, 256, (80, 16)))
    assert np.intersect1d(data._row_keys(train), data._row_keys(test)).size == 0
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) is None
    test[61] = train[150]
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) == 61


def test_check_disjoint_confirms_every_key_match_byte_for_byte(monkeypatch):
    # With one key for every row, every pair is a candidate: only equal bytes raise.
    monkeypatch.setattr(data, "_row_keys", lambda rows: np.zeros(len(rows), dtype=np.uint64))
    rng = np.random.default_rng(8)
    train, test = rng.standard_normal((25, 4)), rng.standard_normal((10, 4))
    test[2] = -0.0
    train[5] = 0.0
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) is None
    test[8] = train[24]
    test[6] = train[13]
    assert _assert_check_disjoint_agrees(_split(train), _split(test)) == 6


def test_check_disjoint_extra_memory_does_not_grow_with_the_row_width():
    rng = np.random.default_rng(9)
    train, test = _split(rng.standard_normal((2000, 500))), _split(rng.standard_normal((400, 500)))
    tracemalloc.start()
    try:
        dt.check_disjoint(train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The train features alone are 8 MB; per-row bytes copies would hold as much.
    assert peak < 1 << 20


_pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, 2.0**60])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(0, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(_pool, min_size=d, max_size=d), max_size=12),
        st.lists(st.lists(_pool, min_size=d, max_size=d), max_size=8),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)), max_size=3),
        st.just(d),
    ))
)
def test_check_disjoint_matches_per_row_bytes(case):
    train, test, plants, width = case
    train = np.array(train, dtype=np.float64).reshape(len(train), width)
    test = np.array(test, dtype=np.float64).reshape(len(test), width)
    for i, j in plants:  # plant duplicates where both rows exist
        if i < len(train) and j < len(test):
            test[j] = train[i]
    _assert_check_disjoint_agrees(_split(train), _split(test, "test"))


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


@pytest.mark.parametrize("classes, per_class, dim, seed, fraction, flipped, new", [
    (2, 10, 3, 9, 0.3, [0, 5, 6, 8, 14, 18], [1, 1, 1, 1, 0, 0]),
    (3, 10, 3, 9, 0.3, [0, 1, 3, 8, 12, 16, 21, 24, 25], [2, 2, 1, 1, 2, 0, 1, 0, 1]),
    (5, 8, 9, 4, 0.5,
     [2, 5, 7, 9, 12, 16, 18, 20, 21, 23, 25, 26, 27, 28, 29, 30, 31, 34, 36, 38],
     [4, 4, 1, 4, 2, 4, 0, 1, 1, 4, 4, 0, 2, 2, 1, 2, 2, 3, 0, 2]),
    (10, 5, 9, 0, 0.2, [0, 8, 15, 17, 31, 32, 34, 39, 41, 43], [8, 6, 9, 2, 5, 7, 1, 6, 4, 5]),
    (3, 4, 3, 1, 1.0, list(range(12)), [2, 1, 1, 1, 0, 2, 0, 0, 1, 0, 1, 0]),
])
def test_inject_noise_draws_are_pinned(classes, per_class, dim, seed, fraction, flipped, new):
    # Recorded with one scalar draw per flip over the list of the other classes.
    ds = dt.synth_gaussian(classes, per_class, dim, 2.0, 1)
    noisy, rec = dt.inject_noise(ds, fraction, seed)
    assert rec.flipped_indices.tolist() == flipped
    assert rec.original_labels.tolist() == ds.labels[flipped].tolist()
    assert rec.new_labels.tolist() == new and rec.new_labels.dtype == ds.labels.dtype
    assert noisy.labels[flipped].tolist() == new


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


def _write_idx_headers(tmp_path, dims, labels):
    """An IDX pair with the given header counts over a 3-byte body each."""
    ip, lp = str(tmp_path / "img"), str(tmp_path / "lbl")
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, *dims))
        fh.write(bytes(3))
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, labels))
        fh.write(bytes(3))
    return ip, lp


@pytest.mark.parametrize("dims, labels", [
    ((-1, 1, 1), 3),  # read(-1) would load the 3-byte body as 3 samples
    ((-2, 1, 1), 3),  # read(-2) would raise an untyped ValueError
    ((3, -1, -1), 3),  # a positive product of negative sides
    ((3, 1, 1), -1),  # a negative label count
])
def test_idx_negative_dimension_rejected(tmp_path, dims, labels):
    ip, lp = _write_idx_headers(tmp_path, dims, labels)
    with pytest.raises(IdxFormatError, match="negative dimension"):
        dt.load_idx(ip, lp, class_count=2)


def test_idx_label_outside_the_classes_rejected_naming_the_label_file(tmp_path):
    # IDX labels are unsigned bytes, so a label of class_count is the only way out.
    ip, lp = str(tmp_path / "img"), str(tmp_path / "lbl")
    dt.write_idx(ip, lp, np.zeros((2, 2, 2), dtype=np.uint8), [0, 2])
    with pytest.raises(IdxFormatError, match=f"{lp}: label 2 outside"):
        dt.load_idx(ip, lp, class_count=2)
    assert list(dt.load_idx(ip, lp, class_count=3).labels) == [0, 2]


@pytest.mark.parametrize("label", ["2", "-1"])
def test_csv_label_outside_the_classes_rejected_naming_the_file(tmp_path, label):
    p = str(tmp_path / "d.csv")
    with open(p, "w") as fh:
        fh.write(f"0.5,1.5,0\n-0.5,2.5,{label}\n")
    with pytest.raises(ConfigError, match="d.csv: label column holds a value outside"):
        dt.load_csv(p, class_count=2)


def test_csv_loader(tmp_path):
    p = str(tmp_path / "d.csv")
    with open(p, "w") as fh:
        fh.write("0.5,1.5,0\n-0.5,2.5,1\n")
    ds = dt.load_csv(p, class_count=2)
    assert ds.features.shape == (2, 2)
    assert list(ds.labels) == [0, 1]


@pytest.mark.parametrize("label", ["1.9", "nan", "inf", "-inf"])
def test_csv_label_that_is_not_a_finite_integer_rejected(tmp_path, label):
    p = str(tmp_path / "d.csv")
    with open(p, "w") as fh:
        fh.write(f"0.5,1.5,0\n-0.5,2.5,{label}\n")
    with pytest.raises(ConfigError, match="d.csv: label column"):
        dt.load_csv(p, class_count=2)


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


@pytest.mark.parametrize("bad", [-1, "n", 1.5, True, np.True_])
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
    for dtype in (np.int64, np.int32, np.uint8, np.float64):
        assert training_indices(np.array([7, 2, 7, 0, 2], dtype=dtype), 8).tolist() == [7, 2, 0]
    with pytest.raises(ValueError, match="no training indices"):
        training_indices([], 8)
    with pytest.raises(ValueError, match="no training indices"):
        training_indices(np.array([], dtype=np.int64), 8)


@pytest.mark.parametrize("indices, message", [
    (np.array([True, False, True]), "boolean"),
    ([1, True], "boolean"),
    ([np.int64(1), np.bool_(False)], "boolean"),
    (np.array([0.0, 1.5]), "fractional or outside"),
    (np.array([0, 8]), "fractional or outside"),
    (np.array([3, -1], dtype=np.int32), "fractional or outside"),
    (np.array([2**64 - 1], dtype=np.uint64), "fractional or outside"),
    (np.array([[1, 2], [1, 3]]), r"shape \(2, 2\)"),
    ([[1, 2]], r"shape \(1, 2\)"),
    (np.array(3), r"shape \(\)"),
])
def test_training_indices_refuse_masks_fractions_and_strays(indices, message):
    from datatrace.data import training_indices

    with pytest.raises(ConfigError, match=message):
        training_indices(indices, 8)

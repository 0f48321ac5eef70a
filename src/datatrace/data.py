"""Datasets: containers, synthetic probe generators, label noise, file loaders."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, IdxFormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Inputs plus labels for one split.

    ``labels`` holds class indices for classification; for squared-error
    regression it holds float targets instead and ``class_count`` is the
    target width.
    """

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int
    split_tag: str = "train"

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"{len(self.inputs)} inputs but {len(self.labels)} labels"
            )
        if not np.isfinite(self.inputs).all():
            raise ValueError("non-finite input values")
        if self.labels.dtype.kind in "iu":  # integer class indices
            if len(self.labels) and (
                self.labels.min() < 0 or self.labels.max() >= self.class_count
            ):
                raise ValueError("label outside [0, class_count)")

    def __len__(self):
        return len(self.inputs)

    @property
    def features(self):
        """Inputs flattened to (n, d)."""
        n = len(self.inputs)
        # -1 cannot be inferred from zero rows.
        return self.inputs.reshape(n, -1 if n else self.feature_dim)

    @property
    def feature_dim(self):
        return int(np.prod(self.inputs.shape[1:], dtype=np.int64))

    def subset(self, indices, split_tag=None):
        indices = np.asarray(indices)
        if indices.size == 0:  # [] is a float array, which numpy refuses as an index
            indices = indices.astype(np.int64)
        return LabeledDataset(
            self.inputs[indices],
            self.labels[indices],
            self.class_count,
            split_tag or self.split_tag,
        )


def training_indices(indices, n_train):
    """The distinct training indices in first-seen order, as an int64 array.

    Raises ConfigError for an index that is negative, >= n_train,
    fractional or a boolean (a mask is not a list of indices), or for
    indices that are not one flat list, and ValueError for no index (an
    estimator of no contributions would do its work for nothing).
    """
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "biu":
        # An integer array's dtype says whether it holds a bool; a list must be
        # scanned, since np.asarray([1, True]) loses the bool.
        boolean = indices.dtype.kind == "b"
    else:
        indices = list(indices)
        boolean = any(isinstance(i, (bool, np.bool_)) for i in indices)
    if boolean:
        raise ConfigError("training index given as a boolean; pass indices, not a mask")
    index = np.asarray(indices, dtype=np.int64)
    if index.ndim != 1:
        raise ConfigError(f"training indices of shape {index.shape}; pass one flat list")
    # The cast truncates a fractional index, so compare with the originals too.
    if np.any((index < 0) | (index >= n_train) | (index != indices)):
        raise ConfigError("training index fractional or outside [0, n_train)")
    if index.size == 0:
        raise ValueError("no training indices given")
    _, first = np.unique(index, return_index=True)
    return index[np.sort(first)]


def check_disjoint(train, test):
    """Raise ValueError naming the first test row whose bytes equal a train row's.

    Rows are compared as 64-bit words, so -0.0 and 0.0 stay distinct. Both
    splits are keyed in one pass (``_row_keys``), and the test keys are
    searched in the sorted train keys; only a test row whose key a train row
    shares is compared with those rows word for word. Besides one block of
    words, the extra memory is O(n + m).
    """
    a, b = train.features, test.features
    if a.shape[1] != b.shape[1] or not len(a) or not len(b):
        return  # rows of different widths never share their bytes
    train_keys, test_keys = _row_keys(a), _row_keys(b)
    sorted_keys = np.sort(train_keys)
    found = sorted_keys[np.minimum(np.searchsorted(sorted_keys, test_keys), len(a) - 1)]
    words_a, words_b = a.view(np.uint64), b.view(np.uint64)
    for j in np.flatnonzero(found == test_keys):
        if (words_a[train_keys == test_keys[j]] == words_b[j]).all(axis=1).any():
            raise ValueError(f"test sample {j} also appears in the training split")


_KEY_BLOCK = 1 << 16  # words keyed per block, so the block's temporaries stay in cache


def _row_keys(rows):
    """One 64-bit key per row of a 2-D float64 array; equal rows get equal keys.

    Each word w is folded to w ^ (w >> 32), so that its high half reaches the
    low bits (an integer-valued float's low bits are all zero), multiplied by
    its column's odd constant, and the products are summed mod 2**64.
    """
    n, d = rows.shape
    multipliers = _key_multipliers(d)
    keys = np.empty(n, dtype=np.uint64)
    step = max(1, _KEY_BLOCK // max(d, 1))
    block = np.empty((min(step, n), d), dtype=np.uint64)
    for start in range(0, n, step):
        words = rows[start:start + step].view(np.uint64)
        folded = block[:len(words)]
        np.right_shift(words, 32, out=folded)
        folded ^= words
        np.einsum("ij,j->i", folded, multipliers, out=keys[start:start + step])
    return keys


@functools.lru_cache(maxsize=8)
def _key_multipliers(width):
    """Fixed odd 64-bit multipliers, one per word of a row."""
    multipliers = np.random.SeedSequence(0x6B6579).generate_state(width, np.uint64) | np.uint64(1)
    multipliers.flags.writeable = False
    return multipliers


@dataclass
class NoiseRecord:
    """Which labels were flipped, from what to what."""

    flipped_indices: np.ndarray
    original_labels: np.ndarray
    new_labels: np.ndarray
    seed: int


def _simplex_means(classes, dim, separation):
    # Regular simplex with pairwise vertex distance `separation`, centered
    # at the origin and embedded in the first classes-1 coordinates.
    if classes == 1:
        return np.zeros((1, dim))
    if dim < classes - 1:
        raise ValueError(f"dim {dim} too small for {classes} simplex vertices")
    e = np.eye(classes)
    e -= e.mean(axis=0)
    # Orthonormal basis for the centered span.
    q, _ = np.linalg.qr(e.T)
    coords = e @ q[:, : classes - 1]
    coords *= separation / np.sqrt(2.0)
    means = np.zeros((classes, dim))
    means[:, : classes - 1] = coords
    return means


def synth_gaussian(classes, per_class, dim, separation, seed, split_tag="train"):
    """Gaussian blobs with class means on scaled simplex vertices.

    Unit isotropic covariance; deterministic for a given seed.
    """
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if classes < 1:
        raise ValueError(f"classes = {classes} must be >= 1")
    return _gaussian_blobs(_simplex_means(classes, dim, separation), per_class, seed, split_tag)


def _gaussian_blobs(means, per_class, seed, split_tag):
    """``per_class`` unit-normal rows around each mean, class after class."""
    classes, dim = means.shape
    rng = np.random.default_rng([seed, 0x5EED])
    # One draw gives the stream of one draw per class, in class order.
    inputs = rng.standard_normal((classes * per_class, dim))
    blocks = inputs.reshape(classes, per_class, dim)
    np.add(blocks, means[:, None, :], out=blocks)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return LabeledDataset(inputs, labels, classes, split_tag)


def inject_noise(dataset, fraction, seed):
    """Flip floor(fraction*N) labels, each drawn uniformly from the other classes."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    if dataset.class_count < 2:
        raise ValueError("need at least 2 classes to inject label noise")
    n = len(dataset)
    count = int(np.floor(fraction * n))
    rng = np.random.default_rng([seed, 0xF11B])
    flipped = np.sort(rng.choice(n, size=count, replace=False))
    original = dataset.labels[flipped]
    # The r-th of the other classes in ascending order: r itself below the
    # original label, r + 1 from it on.
    r = rng.integers(dataset.class_count - 1, size=count)
    new = (r + (r >= original)).astype(original.dtype, copy=False)
    labels = dataset.labels.copy()
    labels[flipped] = new
    noisy = LabeledDataset(dataset.inputs, labels, dataset.class_count, dataset.split_tag)
    return noisy, NoiseRecord(flipped, original, new, seed)


def _read_idx_header(fh, path, expected_magic, expected_dims):
    head = fh.read(4)
    if len(head) < 4:
        raise IdxFormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">i", head)
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = []
    for _ in range(expected_dims):
        raw = fh.read(4)
        if len(raw) < 4:
            raise IdxFormatError(f"{path}: truncated dimension header")
        dims.append(struct.unpack(">i", raw)[0])
    # A negative count would reach ``fh.read``, where -1 reads the whole body.
    if min(dims) < 0:
        raise IdxFormatError(f"{path}: negative dimension in header {dims}")
    return dims


def load_idx(image_path, label_path, class_count=10, split_tag="train"):
    """Read an IDX image/label file pair; pixels are scaled to [0, 1]."""
    with open(image_path, "rb") as fh:
        n, rows, cols = _read_idx_header(fh, image_path, IDX_IMAGE_MAGIC, 3)
        raw = fh.read(n * rows * cols)
        if len(raw) < n * rows * cols:
            raise IdxFormatError(f"{image_path}: truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)
    with open(label_path, "rb") as fh:
        (m,) = _read_idx_header(fh, label_path, IDX_LABEL_MAGIC, 1)
        raw = fh.read(m)
        if len(raw) < m:
            raise IdxFormatError(f"{label_path}: truncated label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n != m:
        raise IdxFormatError(
            f"image count {n} does not match label count {m}"
        )
    if m and labels.max() >= class_count:
        raise IdxFormatError(f"{label_path}: label {labels.max()} outside [0, {class_count})")
    inputs = pixels.astype(np.float64) / 255.0
    return LabeledDataset(inputs, labels, class_count, split_tag)


def write_idx(image_path, label_path, images, labels):
    """Write an IDX pair (uint8 pixels). Mainly for fixtures and round-trips."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABEL_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def load_csv(path, class_count, split_tag="train"):
    """CSV with feature columns followed by an integer label column.

    Raises ConfigError for a label that is not a finite integer (the cast to
    int64 would truncate 1.9 to 1) or lies outside [0, class_count).
    """
    table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    inputs, labels = table[:, :-1], table[:, -1]
    if not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
        raise ConfigError(f"{path}: label column holds a value that is not a finite integer")
    if np.any((labels < 0) | (labels >= class_count)):
        raise ConfigError(f"{path}: label column holds a value outside [0, {class_count})")
    return LabeledDataset(inputs, labels.astype(np.int64), class_count, split_tag)

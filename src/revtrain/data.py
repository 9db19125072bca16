"""CIFAR-10 binary ingestion, synthesis, and training-time augmentation.

The on-disk format is the standard binary distribution: five train files and
one test file, 10000 records each, one record = 1 label byte followed by
3072 pixel bytes (red, green, blue planes, row-major). The loader maps each
file read-only and reads only its labels; a split's images stay in the files
and are gathered as uint8 when a batch is drawn. Normalization constants come
from the train split, computed a chunk of records at a time on up to two
threads, and are applied only to drawn batches. File sizes are checked at
load only, so a mapped file must not be truncated while a run holds it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .errors import ConfigError, DataFormatError

IMAGE_SHAPE = (3, 32, 32)
PIXELS_PER_RECORD = 3 * 32 * 32
RECORD_BYTES = 1 + PIXELS_PER_RECORD
RECORDS_PER_FILE = 10_000
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"
NUM_CLASSES = 10
# records per float32 temporary (about 12 MB) of the constants passes
CHUNK_RECORDS = 1000

DATA_ENV = "REVTRAIN_DATA"


class MappedImages:
    """The images of a split, read-only, in its mapped record files.

    Indexing with an int, a slice or an integer index array gathers a new
    uint8 array of shape (n, 3, 32, 32) ((3, 32, 32) for an int) across file
    boundaries; further indices in a tuple then apply to that array.
    """

    dtype = np.dtype(np.uint8)

    def __init__(self, parts):
        # per file, a (records, 3, 32, 32) view of its map
        self.parts = tuple(parts)
        self.shape = (sum(len(p) for p in self.parts), *IMAGE_SHAPE)

    def __len__(self):
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            out = self[key[0]]
            return out[(slice(None),) * (out.ndim - len(IMAGE_SHAPE)) + key[1:]]
        n = len(self)
        idx = np.arange(*key.indices(n)) if isinstance(key, slice) else np.asarray(key)
        if idx.dtype.kind not in "iu":
            raise IndexError(f"records are indexed by int, slice or integer array, not {idx.dtype}")
        if idx.size and (idx.min() < -n or idx.max() >= n):
            raise IndexError(f"record index out of range for {n} records")
        flat = idx.reshape(-1) % n  # negative indices count from the end
        out = np.empty((len(flat), *IMAGE_SHAPE), dtype=np.uint8)
        part_of, row = np.divmod(flat, len(self.parts[0]))  # files hold equal counts
        for k, part in enumerate(self.parts):
            sel = np.flatnonzero(part_of == k)
            if len(sel):
                out[sel] = part[row[sel]]
        return out.reshape(*idx.shape, *IMAGE_SHAPE)


@dataclass
class DatasetSource:
    """Labels and mapped images of both splits, plus the normalization
    constants of the train split."""

    train_images: MappedImages
    train_labels: np.ndarray
    test_images: MappedImages
    test_labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def normalize(self, images):
        """uint8 (n, 3, 32, 32) to float32, channel-standardized, built in
        the one output buffer."""
        x = images.astype(np.float32)
        x /= 255.0
        x -= self.mean.reshape(1, 3, 1, 1)
        x /= self.std.reshape(1, 3, 1, 1)
        return x


def _record_chunks(n):
    """(start, stop) of successive runs of at most CHUNK_RECORDS records."""
    for start in range(0, n, CHUNK_RECORDS):
        yield start, min(start + CHUNK_RECORDS, n)


def _record_runs(images):
    """uint8 views of successive runs of at most CHUNK_RECORDS records of an
    array or MappedImages, no run crossing a file."""
    for part in images.parts if isinstance(images, MappedImages) else (images,):
        for start, stop in _record_chunks(len(part)):
            yield part[start:stop]


def _map_file(path, labels):
    """Map one batch file read-only and read its labels into labels (n,);
    returns its images as a (n, 3, 32, 32) view of the map."""
    want = RECORDS_PER_FILE * RECORD_BYTES
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == want:
                records = np.memmap(f, dtype=np.uint8, mode="r",
                                    shape=(RECORDS_PER_FILE, RECORD_BYTES))
    # ValueError: the file shrank between its size check and the map
    except (OSError, ValueError) as err:
        raise DataFormatError(f"cannot read dataset file {path}: {err}") from None
    if size != want:
        raise DataFormatError(
            f"{path}: expected {want} bytes "
            f"({RECORDS_PER_FILE} records of {RECORD_BYTES}), got {size}"
        )
    labels[:] = records[:, 0]
    if labels.max() >= NUM_CLASSES:
        raise DataFormatError(
            f"{path}: label {labels.max()} out of range (expected 0..{NUM_CLASSES - 1})"
        )
    return np.asarray(records)[:, 1:].reshape(-1, *IMAGE_SHAPE)


def _map_split(root, names):
    labels = np.empty(len(names) * RECORDS_PER_FILE, dtype=np.int64)
    parts = [_map_file(root / name, labels[i * RECORDS_PER_FILE : (i + 1) * RECORDS_PER_FILE])
             for i, name in enumerate(names)]
    return MappedImages(parts), labels


def _worker_threads():
    """Threads for the constants passes: two, or one where one CPU is usable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1)


def _channel_sums(pool, bufs, images, mean=None):
    """Per-channel float32 sum of images / 255, or of its squared deviations
    from mean, bit-equal to numpy's reduction of the whole split's float32
    copy over (0, 2, 3).

    The pool's threads turn runs of records into per-image channel sums, one
    run per float32 buffer in bufs, and ops.channel_sums folds them on this
    thread in record order (see its docstring for why that keeps the bits).
    The threads run numpy alone: perfbench's tracer wraps every public
    revtrain function and keeps one span stack.
    """
    channels = images.shape[1]

    def image_sums(run, buf):
        x = buf[: len(run)]
        np.copyto(x, run)
        x /= 255.0
        if mean is not None:
            x -= mean.reshape(1, -1, 1, 1)
            np.square(x, out=x)
        return np.add.reduce(x.reshape(len(x), channels, -1), axis=2)[..., None, None]

    def in_order():
        pending = deque()
        for k, run in enumerate(_record_runs(images)):
            if len(pending) == len(bufs):  # the oldest run's buffer is next
                yield pending.popleft().result()
            pending.append(pool.submit(image_sums, run, bufs[k % len(bufs)]))
        while pending:
            yield pending.popleft().result()

    return ops.channel_sums(in_order())


def channel_constants(images):
    """Per-channel mean and std of uint8 (n, 3, h, w) images scaled to
    [0, 1], bit-equal to `scaled.mean(axis=(0, 2, 3))` and `scaled.std(...)`
    of the whole float32 copy `scaled = images.astype(np.float32) / 255.0`,
    without making it. images is an array or a MappedImages; at most two
    float32 chunks of it exist at a time."""
    count = np.intp(len(images) * images.shape[2] * images.shape[3])
    shape = (min(CHUNK_RECORDS, len(images)), *images.shape[1:])
    bufs = [np.empty(shape, dtype=np.float32) for _ in range(2)]
    with ThreadPoolExecutor(_worker_threads()) as pool:
        mean = _channel_sums(pool, bufs, images)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        var = _channel_sums(pool, bufs, images, mean)
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean, np.sqrt(var, out=var)


def pixel_mean_std(images):
    """Mean and std of every pixel value in a uint8 array or MappedImages of
    records, from exact integer sums taken CHUNK_RECORDS records at a time."""
    total = total_sq = 0
    buf = np.empty((min(CHUNK_RECORDS, len(images)), *images.shape[1:]), dtype=np.uint16)
    for run in _record_runs(images):
        v = buf[: len(run)]
        np.copyto(v, run)
        total += int(v.sum(dtype=np.int64))
        total_sq += int(np.square(v, out=v).sum(dtype=np.int64))
    n = math.prod(images.shape)
    return total / n, math.sqrt((total_sq * n - total * total) / (n * n))


def load_cifar10(root):
    """Map the six binary batch files under root into a DatasetSource."""
    root = Path(root)
    if not root.is_dir():
        raise DataFormatError(f"dataset directory {root} does not exist")
    train_images, train_labels = _map_split(root, TRAIN_FILES)
    test_images, test_labels = _map_split(root, (TEST_FILE,))
    mean, std = channel_constants(train_images)
    return DatasetSource(
        train_images=train_images,
        train_labels=train_labels,
        test_images=test_images,
        test_labels=test_labels,
        mean=mean,
        std=std,
    )


def data_root(override=None):
    """Dataset directory: explicit argument, else the environment default."""
    root = override if override is not None else os.environ.get(DATA_ENV)
    if not root:
        raise ConfigError(
            f"no dataset directory given and {DATA_ENV} is not set"
        )
    return Path(root)


# -- synthetic stand-in -----------------------------------------------------------


def _class_prototypes(rng):
    """Smooth class-conditional patterns, one (3, 32, 32) image per class."""
    yy, xx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    protos = np.zeros((NUM_CLASSES, *IMAGE_SHAPE), dtype=np.float64)
    for cls in range(NUM_CLASSES):
        base = rng.uniform(70, 185, size=3)
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        py, px = rng.uniform(0, 2 * np.pi, size=2)
        wave = np.sin(2 * np.pi * fy * yy / 32 + py) * np.sin(2 * np.pi * fx * xx / 32 + px)
        for ch in range(3):
            protos[cls, ch] = base[ch] + 55.0 * wave * rng.choice((-1.0, 1.0))
    return protos


def synthesize_cifar_like(root, seed=0, noise_std=25.0):
    """Write six synthetic batch files in the exact CIFAR-10 binary layout.

    Classes are smooth patterns plus pixel noise, so small models can learn
    the task; useful where the real dataset is unavailable. Each file's
    labels are drawn first, then its noise CHUNK_RECORDS records at a time
    from the same generator, which draws the same values as one call.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = ops.default_rng(seed)
    protos = _class_prototypes(rng)
    records = np.empty((min(CHUNK_RECORDS, RECORDS_PER_FILE), RECORD_BYTES), dtype=np.uint8)
    for name in TRAIN_FILES + (TEST_FILE,):
        labels = rng.integers(0, NUM_CLASSES, size=RECORDS_PER_FILE)
        with open(root / name, "wb") as f:
            for start, stop in _record_chunks(RECORDS_PER_FILE):
                chunk = records[: stop - start]
                part = labels[start:stop]
                pixels = rng.normal(0.0, noise_std, size=(len(chunk), PIXELS_PER_RECORD))
                pixels += protos[part].reshape(len(chunk), PIXELS_PER_RECORD)
                np.clip(pixels, 0, 255, out=pixels)
                chunk[:, 0] = part
                chunk[:, 1:] = pixels
                f.write(chunk)
    return root


def ensure_dataset(root):
    """Load the dataset under root, synthesizing it first when absent."""
    root = Path(root)
    if not all((root / name).is_file() for name in TRAIN_FILES + (TEST_FILE,)):
        synthesize_cifar_like(root)
    return load_cifar10(root)


# -- augmentation ------------------------------------------------------------------


def augment(batch, seed, pad=4):
    """Random horizontal flip and random crop from zero padding, per image."""
    n, c, h, w = batch.shape
    rng = ops.default_rng(seed)
    out = batch.copy()
    flips = rng.random(n) < 0.5
    out[flips] = out[flips][..., ::-1]
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=batch.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = out
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    for i, (oy, ox) in enumerate(offsets):
        out[i] = padded[i, :, oy : oy + h, ox : ox + w]
    return out


def take_subset(images, labels, n, seed):
    """Deterministic random sample of n records without replacement."""
    if not 1 <= n <= len(images):
        raise ConfigError(f"subset of {n} records: need 1 to {len(images)}")
    idx = ops.default_rng(seed).permutation(len(images))[:n]
    return images[idx], labels[idx]

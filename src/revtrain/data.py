"""CIFAR-10 binary ingestion, synthesis, and training-time augmentation.

The on-disk format is the standard binary distribution: five train files and
one test file, 10000 records each, one record = 1 label byte followed by
3072 pixel bytes (red, green, blue planes, row-major). Images stay uint8 in
memory; normalization constants come from the train split, computed a chunk
of records at a time, and are applied only when a batch is drawn.
"""

from __future__ import annotations

import math
import os
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
# records per read and per float32 temporary (about 12 MB) while loading
CHUNK_RECORDS = 1000

DATA_ENV = "REVTRAIN_DATA"


@dataclass
class DatasetSource:
    """Parsed dataset plus the normalization constants of its train split."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def normalize(self, images):
        """uint8 (n, 3, 32, 32) to float32, channel-standardized."""
        x = images.astype(np.float32) / 255.0
        return (x - self.mean.reshape(1, 3, 1, 1)) / self.std.reshape(1, 3, 1, 1)


def _record_chunks(n):
    """(start, stop) of successive runs of at most CHUNK_RECORDS records."""
    for start in range(0, n, CHUNK_RECORDS):
        yield start, min(start + CHUNK_RECORDS, n)


def _read_file(path, images, labels):
    """Read one batch file into images (n, 3, 32, 32) and labels (n,), views
    of the split arrays, CHUNK_RECORDS records at a time."""
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            want = RECORDS_PER_FILE * RECORD_BYTES
            if size != want:
                raise DataFormatError(
                    f"{path}: expected {want} bytes "
                    f"({RECORDS_PER_FILE} records of {RECORD_BYTES}), got {size}"
                )
            records = np.empty((min(CHUNK_RECORDS, RECORDS_PER_FILE), RECORD_BYTES), np.uint8)
            for start, stop in _record_chunks(RECORDS_PER_FILE):
                chunk = records[: stop - start]
                if f.readinto(chunk) != chunk.nbytes:
                    raise DataFormatError(f"{path}: file shrank while being read")
                labels[start:stop] = chunk[:, 0]
                images[start:stop] = chunk[:, 1:].reshape(-1, *IMAGE_SHAPE)
    except OSError as err:
        raise DataFormatError(f"cannot read dataset file {path}: {err}") from None
    if labels.max() >= NUM_CLASSES:
        raise DataFormatError(
            f"{path}: label {labels.max()} out of range (expected 0..{NUM_CLASSES - 1})"
        )


def _read_split(root, names):
    n = len(names) * RECORDS_PER_FILE
    images = np.empty((n, *IMAGE_SHAPE), dtype=np.uint8)
    labels = np.empty(n, dtype=np.int64)
    for i, name in enumerate(names):
        part = slice(i * RECORDS_PER_FILE, (i + 1) * RECORDS_PER_FILE)
        _read_file(root / name, images[part], labels[part])
    return images, labels


def _channel_sums(images, mean=None):
    """Per-channel float32 sum of images / 255, or of its squared deviations
    from mean, bit-equal to numpy's reduction of the whole split's float32
    copy over (0, 2, 3) (see ops.channel_sums), one chunk at a time."""
    buf = np.empty((min(CHUNK_RECORDS, len(images)), *images.shape[1:]), dtype=np.float32)

    def chunks():
        for start, stop in _record_chunks(len(images)):
            x = buf[: stop - start]
            np.copyto(x, images[start:stop])
            x /= 255.0
            if mean is not None:
                x -= mean.reshape(1, -1, 1, 1)
                np.square(x, out=x)
            yield x

    return ops.channel_sums(chunks())


def channel_constants(images):
    """Per-channel mean and std of uint8 images scaled to [0, 1], bit-equal to
    `scaled.mean(axis=(0, 2, 3))` and `scaled.std(...)` of the whole float32
    copy `scaled = images.astype(np.float32) / 255.0`, without making it."""
    count = np.intp(len(images) * images.shape[2] * images.shape[3])
    mean = _channel_sums(images)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    var = _channel_sums(images, mean)
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean, np.sqrt(var, out=var)


def pixel_mean_std(images):
    """Mean and std of every pixel value in a uint8 array of records, from
    exact integer sums taken CHUNK_RECORDS records at a time."""
    total = total_sq = 0
    buf = np.empty((min(CHUNK_RECORDS, len(images)), *images.shape[1:]), dtype=np.uint16)
    for start, stop in _record_chunks(len(images)):
        v = buf[: stop - start]
        np.copyto(v, images[start:stop])
        total += int(v.sum(dtype=np.int64))
        total_sq += int(np.square(v, out=v).sum(dtype=np.int64))
    n = images.size
    return total / n, math.sqrt((total_sq * n - total * total) / (n * n))


def load_cifar10(root):
    """Load the six binary batch files under root into a DatasetSource."""
    root = Path(root)
    if not root.is_dir():
        raise DataFormatError(f"dataset directory {root} does not exist")
    train_images, train_labels = _read_split(root, TRAIN_FILES)
    test_images, test_labels = _read_split(root, (TEST_FILE,))
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

"""Training harness: SGD with momentum, a one-cycle schedule, epoch metrics.

The loop is single-threaded and deterministic given the config seed: dataset
subsetting, shuffling, augmentation, and weight init all derive from it. Peak
allocator bytes and convolution-apply counts are recorded per epoch so runs
in different backprop modes can be compared on cost as well as accuracy.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import memtrack, ops, zoo
from .errors import ConfigError, ShapeError, TrainDivergence
from .memory_model import ArchSpec, parse_arch_file
from .model import BackpropMode


@dataclass
class TrainConfig:
    arch: object
    mode: str | None = None
    epochs: int = 3
    batch_size: int = 64
    lr_max: float = 0.05
    momentum_high: float = 0.95
    momentum_low: float = 0.85
    weight_decay: float = 5e-4
    seed: int = 0
    augment: bool = True
    subset: int | None = None
    test_subset: int | None = None
    data_dir: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0 < self.lr_max < np.inf:
            raise ConfigError(f"lr_max must be positive and finite, got {self.lr_max}")
        if not 0.0 <= self.momentum_low <= self.momentum_high < 1.0:
            raise ConfigError(
                f"momentum range must satisfy 0 <= low <= high < 1, "
                f"got {self.momentum_low}..{self.momentum_high}"
            )

    def spec(self):
        if isinstance(self.arch, ArchSpec):
            return self.arch
        return parse_arch_file(self.arch)


@dataclass
class OneCycleSchedule:
    """Linear warmup, cooldown, and final anneal; momentum anti-cycles lr."""

    total_steps: int
    lr_max: float
    div_factor: float = 10.0
    final_div_factor: float = 1000.0
    momentum_high: float = 0.95
    momentum_low: float = 0.85
    warmup_frac: float = 0.45
    cooldown_frac: float = 0.45

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be at least 1, got {self.total_steps}")
        if self.warmup_frac + self.cooldown_frac >= 1.0 + 1e-12:
            raise ConfigError("warmup and cooldown fractions must leave room to anneal")

    def lr_momentum(self, step):
        """Learning rate and momentum for step in [0, total_steps)."""
        if not 0 <= step < self.total_steps:
            raise ConfigError(f"step {step} outside 0..{self.total_steps - 1}")
        t = step / max(self.total_steps - 1, 1)
        lo = self.lr_max / self.div_factor
        if t < self.warmup_frac:
            u = t / self.warmup_frac
            return lo + u * (self.lr_max - lo), \
                self.momentum_high + u * (self.momentum_low - self.momentum_high)
        if t < self.warmup_frac + self.cooldown_frac:
            u = (t - self.warmup_frac) / self.cooldown_frac
            return self.lr_max + u * (lo - self.lr_max), \
                self.momentum_low + u * (self.momentum_high - self.momentum_low)
        anneal = 1.0 - self.warmup_frac - self.cooldown_frac
        u = 0.0 if anneal <= 0 else (t - self.warmup_frac - self.cooldown_frac) / anneal
        return lo + u * (self.lr_max / self.final_div_factor - lo), self.momentum_high


def sgd_step(params, grads, velocity, lr, momentum, weight_decay=0.0):
    """v <- momentum*v + grad + weight_decay*theta; theta <- theta - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            velocity[name] = v
        v *= momentum
        v += g
        if weight_decay:
            v += weight_decay * p
        p -= lr * v


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = len(labels)
    # a zero probability is legal input here; the caller treats the resulting
    # non-finite loss as divergence
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[np.arange(n), labels]).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    peak_bytes: int
    conv_applies: int
    seconds: float


def metrics_csv(history):
    lines = ["epoch,train_loss,train_acc,test_acc,peak_bytes,conv_applies,seconds"]
    for m in history:
        lines.append(
            f"{m.epoch},{m.train_loss:.6f},{m.train_acc:.4f},{m.test_acc:.4f},"
            f"{m.peak_bytes},{m.conv_applies},{m.seconds:.3f}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    history: list
    model: object


def evaluate(model, dataset, images, labels, batch_size=500):
    """Test accuracy in eval mode (running statistics, no saved state)."""
    hits = 0
    for start in range(0, len(images), batch_size):
        x = dataset.normalize(images[start : start + batch_size])
        logits, _ = model.forward(x, BackpropMode.STORED, train=False)
        hits += int((np.argmax(logits, axis=1) == labels[start : start + batch_size]).sum())
    return hits / len(images)


def train_run(config, dataset=None, on_epoch=None):
    """Full training loop; returns the per-epoch metrics history.

    on_epoch, when given, is called with each EpochMetrics as it completes.
    """
    spec = config.spec()
    model = zoo.build_model(spec, seed=config.seed)
    mode = model.validate_mode(config.mode or spec.mode)
    if dataset is None:
        dataset = data_mod.load_cifar10(data_mod.data_root(config.data_dir))

    train_x, train_y = dataset.train_images, dataset.train_labels
    if config.subset is not None:
        train_x, train_y = data_mod.take_subset(train_x, train_y, config.subset, config.seed)
    test_x, test_y = dataset.test_images, dataset.test_labels
    if config.test_subset is not None:
        test_x, test_y = data_mod.take_subset(test_x, test_y, config.test_subset, config.seed)

    n = len(train_x)
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    schedule = OneCycleSchedule(
        total_steps=config.epochs * steps_per_epoch,
        lr_max=config.lr_max,
        momentum_high=config.momentum_high,
        momentum_low=config.momentum_low,
    )
    rng = ops.default_rng(config.seed)
    params = model.params()
    velocity = {}
    history = []
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        applies_before = ops.conv_applies()
        order = rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0
        with memtrack.MeasureScope() as scope:
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                imgs = train_x[idx]
                if config.augment:
                    imgs = data_mod.augment(imgs, seed=int(rng.integers(2**63)))
                x = dataset.normalize(imgs)
                labels = train_y[idx]
                lr, momentum = schedule.lr_momentum(step)
                logits, saved = model.forward(x, mode)
                loss, grad_logits = softmax_cross_entropy(logits, labels)
                if not np.isfinite(loss):
                    raise TrainDivergence(step, lr)
                grads, _ = model.backward(saved, grad_logits, x)
                sgd_step(params, grads, velocity, lr, momentum, config.weight_decay)
                loss_sum += loss * len(idx)
                hit_sum += int((np.argmax(logits, axis=1) == labels).sum())
                step += 1
            peak = scope.peak_bytes
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=hit_sum / n,
            test_acc=evaluate(model, dataset, test_x, test_y, batch_size=config.batch_size),
            peak_bytes=peak,
            conv_applies=ops.conv_applies() - applies_before,
            seconds=time.perf_counter() - t0,
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
    return TrainResult(history=history, model=model)


# -- checkpoints -------------------------------------------------------------------

CHECKPOINT_MAGIC = b"RVTN"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def save_checkpoint(path, params):
    """Little-endian tensor archive: magic, version, count, then per tensor
    name length/name/dtype code/rank/dims/raw data.

    The archive is written to a temporary file beside path and renamed over
    it, so a failed save leaves any existing checkpoint as it was.
    """
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise ConfigError(f"{name}: cannot checkpoint dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<BB", code, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(out))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Read a save_checkpoint archive into {name: array}.

    A missing, unreadable, truncated or corrupt file raises ConfigError
    naming the path.
    """
    try:
        raw = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read checkpoint ({exc.strerror or exc})") from None
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    offset = 4

    def take(n):
        nonlocal offset
        if n > len(raw) - offset:
            raise ConfigError(
                f"{path}: truncated checkpoint ({n} bytes wanted at offset {offset}, "
                f"file has {len(raw)})"
            )
        offset += n
        return raw[offset - n : offset]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    version, count = unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    params = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise ConfigError(
                f"{path}: corrupt tensor name at offset {offset - name_len}"
            ) from None
        code, ndim = unpack("<BB")
        if code not in _CODE_DTYPES:
            raise ConfigError(f"{path}: unknown dtype code {code} for {name}")
        shape = unpack(f"<{ndim}I")
        dtype = _CODE_DTYPES[code]
        arr = np.frombuffer(take(math.prod(shape) * dtype.itemsize), dtype=dtype.newbyteorder("<"))
        try:
            params[name] = arr.reshape(shape).astype(dtype)
        except ValueError:  # e.g. zero-size dims beside dims numpy cannot index
            raise ConfigError(f"{path}: corrupt shape {shape} for {name}") from None
    if offset != len(raw):
        raise ConfigError(f"{path}: {len(raw) - offset} trailing bytes after last tensor")
    return params


def model_state(model):
    """Parameters plus normalization running statistics, by dotted path."""
    tensors = model.params()
    for path, layer in model.named_layers():
        if hasattr(layer, "running_mean"):
            tensors[f"{path}.running_mean"] = layer.running_mean
            tensors[f"{path}.running_var"] = layer.running_var
    return tensors


def load_checkpoint_into(model, path):
    """Restore a checkpoint written from model_state into a live model."""
    params = model.params()
    expected = model_state(model)
    stored = load_checkpoint(path)
    if stored.keys() != expected.keys():
        missing = sorted(expected.keys() - stored.keys())
        extra = sorted(stored.keys() - expected.keys())
        raise ConfigError(f"checkpoint does not match model: missing {missing}, extra {extra}")
    for name, arr in stored.items():
        if arr.shape != expected[name].shape:
            raise ConfigError(
                f"{name}: checkpoint shape {arr.shape} != model shape {expected[name].shape}"
            )
    for name, arr in stored.items():
        if name in params:
            params[name][...] = arr
    for path, layer in model.named_layers():
        if hasattr(layer, "running_mean"):
            layer.running_mean = memtrack.track(stored[f"{path}.running_mean"].copy())
            layer.running_var = memtrack.track(stored[f"{path}.running_var"].copy())

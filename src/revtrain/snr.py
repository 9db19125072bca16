"""Noise amplification of inverse reconstructions.

Invertible normalization and activation layers scale channels unevenly: the
forward and inverse signal scalings cancel, but noise picked up between them
only sees the inverse scaling. The signal-to-noise ratio of a reconstructed
activation therefore drops by a factor alpha = snr_in / snr_out that depends
on the spread of per-channel gains. This module provides the closed forms
for that factor, a Monte-Carlo harness measuring it on live layers, and
whole-model profiles that trace reconstruction quality layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops, zoo
from .errors import ConfigError, NumericError
from .layers import InvBatchNorm, InvLeakyReLU

__all__ = [
    "AlphaEstimate",
    "alpha_bn_toy",
    "alpha_lrelu",
    "alpha_bn_general",
    "gaussian_input",
    "measure_alpha",
    "alpha_sweep",
    "sweep_csv",
    "traced_backward",
    "trace_csv",
    "block_trace_summary",
    "snr_depth_sweep",
    "depth_sweep_csv",
    "line_fit",
]


# -- closed forms --------------------------------------------------------------


def _alpha_two_gains(r):
    """SNR reduction 4 / ((1 + 1/r^2)(1 + r^2)) of a map that scales two
    equal shares of the signal by 1 and r; symmetric in r and 1/r."""
    return 4.0 / ((1.0 + 1.0 / r**2) * (1.0 + r**2))


def alpha_bn_toy(rho):
    """SNR reduction of a two-channel normalization with gains [1, rho]."""
    if not 0 < rho < np.inf:
        raise ConfigError(f"channel gain ratio must be positive and finite, got {rho}")
    return _alpha_two_gains(rho)


def alpha_lrelu(n):
    """SNR reduction of the invertible leaky ReLU with negative-slope divisor n.

    Valid in the small-noise regime where reconstruction noise almost never
    flips an activation across zero.
    """
    if not 1 <= n < np.inf:
        raise ConfigError(f"negative-slope divisor must be finite and at least 1, got {n}")
    return _alpha_two_gains(n)


def alpha_bn_general(gamma, beta, mean, var, eps=0.0):
    """SNR reduction of a normalization with arbitrary per-channel gains.

    Models the input as Gaussian with the given channel means and variances,
    normalized with those same statistics, with reconstruction noise spread
    evenly across channels. Each channel amplifies its share of the noise by
    (sqrt(var) + eps) / gamma on the way back, so those factors enter the
    channel sum squared.
    """
    arrays = [np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (gamma, beta, mean, var)]
    g, b, m, v = np.broadcast_arrays(*arrays)
    if g.ndim != 1:
        raise ConfigError(f"channel parameters must be one-dimensional, got shape {g.shape}")
    if np.any(g == 0):
        raise ConfigError("channel gains must be nonzero")
    if np.any(v < 0):
        raise ConfigError("channel variances must be nonnegative")
    if eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    signal_ratio = (m**2 + v).sum() / (g**2 + b**2).sum()
    amp = ((np.sqrt(v) + eps) / g) ** 2
    total_amp = amp.sum()
    if total_amp == 0:
        raise ConfigError("all channels have zero noise amplification; nothing to measure")
    return float(signal_ratio * (g.size / total_amp))


# -- Monte-Carlo measurement ---------------------------------------------------


@dataclass
class AlphaEstimate:
    """Measured vs closed-form SNR reduction for one layer configuration."""

    theoretical: float
    empirical: float
    stderr: float
    n_samples: int
    config: str


def gaussian_input(channels, mean=None, std=None, h=1, w=1):
    """Sampler of (n, channels, h, w) Gaussian batches with per-channel stats."""
    m = np.broadcast_to(np.asarray(0.0 if mean is None else mean, dtype=np.float64), (channels,))
    s = np.broadcast_to(np.asarray(1.0 if std is None else std, dtype=np.float64), (channels,))

    def draw(rng, n):
        z = rng.standard_normal((n, channels, h, w))
        return z * s.reshape(1, -1, 1, 1) + m.reshape(1, -1, 1, 1)

    return draw


def _layer_theory(layer, x):
    kind = getattr(layer, "kind", None)
    if kind == "lrelu":
        return alpha_lrelu(layer.n)
    if kind == "bn":
        mean, var, _ = ops.channel_mean_var(x)
        gain = np.abs(np.asarray(layer.gamma, dtype=np.float64)) + layer.eps_i
        return alpha_bn_general(gain, layer.beta, mean, var, layer.eps)
    raise ConfigError(
        f"no closed-form alpha for {type(layer).__name__}; pass theoretical="
    )


def _describe(layer, noise_std):
    kind = getattr(layer, "kind", type(layer).__name__)
    bits = [str(kind)]
    if hasattr(layer, "n"):
        bits.append(f"n={layer.n:g}")
    if getattr(layer, "kind", None) == "bn":
        bits.append(f"c={layer.channels}")
    bits.append(f"sigma={noise_std:g}")
    return " ".join(bits)


def measure_alpha(layer, input_dist, noise_std=1e-5, n_samples=100_000, seed=0,
                  theoretical=None, chunks=10):
    """Measure the SNR reduction of layer's inverse under injected output noise.

    Draws x from input_dist, pushes it forward, perturbs the output with
    white Gaussian noise, reconstructs through the inverse, and compares the
    aggregate input SNR against the aggregate output SNR. The standard error
    comes from splitting the samples into independent chunks.
    """
    if not 0 < noise_std < np.inf:
        raise ConfigError(f"noise_std must be positive and finite, got {noise_std}")
    if n_samples < 2 * chunks:
        raise ConfigError(f"need at least {2 * chunks} samples, got {n_samples}")
    rng = ops.default_rng(seed)
    x = np.asarray(input_dist(rng, n_samples), dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != n_samples:
        raise ConfigError(
            f"input_dist must return (n_samples, c, h, w), got shape {x.shape}"
        )
    y = np.asarray(layer.forward(x), dtype=np.float64)
    noise = rng.normal(0.0, noise_std, size=y.shape)
    x_rec = np.asarray(layer.inverse(y + noise), dtype=np.float64)

    reduce_axes = (1, 2, 3)
    sig_x = (x**2).sum(axis=reduce_axes)
    sig_y = (y**2).sum(axis=reduce_axes)
    err_y = (noise**2).sum(axis=reduce_axes)
    err_x = ((x_rec - x) ** 2).sum(axis=reduce_axes)
    if sig_y.sum() == 0:
        raise NumericError("output signal energy is zero; SNR is undefined")
    if err_x.sum() == 0:
        raise NumericError("reconstruction error energy is zero; SNR is undefined")

    def ratio(parts):
        sx, sy, ey, ex = (p.sum() for p in parts)
        return (sx / ex) * (ey / sy)

    empirical = ratio((sig_x, sig_y, err_y, err_x))
    chunk_vals = [
        ratio(parts)
        for parts in zip(*(np.array_split(a, chunks) for a in (sig_x, sig_y, err_y, err_x)))
    ]
    stderr = float(np.std(chunk_vals, ddof=1) / np.sqrt(len(chunk_vals)))
    theory = float(theoretical) if theoretical is not None else _layer_theory(layer, x)
    return AlphaEstimate(
        theoretical=theory,
        empirical=float(empirical),
        stderr=stderr,
        n_samples=n_samples,
        config=_describe(layer, noise_std),
    )


def _toy_bn(rho, channels=2, dtype=np.float64):
    """Normalization layer with gains [1, rho, 1, rho, ...] and no gain floor."""
    layer = InvBatchNorm(channels, eps=1e-12, eps_i=0.0, dtype=dtype)
    gains = np.where(np.arange(channels) % 2 == 0, 1.0, float(rho))
    layer.gamma = gains.astype(dtype)
    return layer


def alpha_sweep(kind, values, noise_std=1e-5, n_samples=100_000, seed=0):
    """Measure alpha across a parameter sweep.

    kind "bn-toy" sweeps the gain ratio of a two-channel normalization;
    kind "lrelu" sweeps the negative-slope divisor. Returns a list of
    (value, AlphaEstimate) pairs.
    """
    rows = []
    for i, val in enumerate(values):
        if kind == "bn-toy":
            layer = _toy_bn(val)
            theory = alpha_bn_toy(val)
            dist = gaussian_input(2)
        elif kind == "lrelu":
            layer = InvLeakyReLU(val) if val > 1 else _IdentityLayer()
            theory = alpha_lrelu(val)
            dist = gaussian_input(2)
        else:
            raise ConfigError(f"unknown sweep kind {kind!r} (expected bn-toy or lrelu)")
        est = measure_alpha(layer, dist, noise_std=noise_std, n_samples=n_samples,
                            seed=seed + i, theoretical=theory)
        rows.append((float(val), est))
    return rows


def random_bn_cases(n_configs, channels=16, seed=0, noise_std=1e-5, n_samples=100_000):
    """Measure alpha for seeded random normalization configurations.

    Draws per-channel gain, shift, input mean, and input variance from fixed
    ranges and compares the measured reduction against the closed form.
    Returns (case_index, AlphaEstimate) rows.
    """
    if n_configs < 1:
        raise ConfigError(f"need at least one configuration, got {n_configs}")
    if channels < 1:
        raise ConfigError(f"need at least one channel, got {channels}")
    rng = ops.default_rng(seed)
    rows = []
    for i in range(n_configs):
        gamma = rng.uniform(0.3, 3.0, channels)
        beta = rng.uniform(-1.0, 1.0, channels)
        mean = rng.uniform(-2.0, 2.0, channels)
        var = rng.uniform(0.25, 4.0, channels)
        theory = alpha_bn_general(gamma, beta, mean, var, eps=1e-12)
        layer = InvBatchNorm(channels, eps=1e-12, eps_i=0.0, dtype=np.float64)
        layer.gamma = gamma.copy()
        layer.beta = beta.copy()
        est = measure_alpha(
            layer, gaussian_input(channels, mean=mean, std=np.sqrt(var)),
            noise_std=noise_std, n_samples=n_samples, seed=seed + 7919 * (i + 1),
            theoretical=theory,
        )
        rows.append((float(i), est))
    return rows


class _IdentityLayer:
    kind = "identity"

    def forward(self, x):
        return x

    def inverse(self, y):
        return y


def sweep_csv(rows, x_name):
    lines = [f"{x_name},theoretical_alpha,empirical_alpha,stderr"]
    for x, est in rows:
        lines.append(f"{x:g},{est.theoretical:.8g},{est.empirical:.8g},{est.stderr:.3g}")
    return "\n".join(lines) + "\n"


# -- whole-model SNR profiles ----------------------------------------------------


def traced_backward(model, x, mode, seed=0):
    """Run forward and a traced backward on x in `mode`; returns the SnrTrace."""
    out, saved = model.forward(x, mode)
    grad = ops.gaussian(out.shape, seed=seed, dtype=out.dtype)
    _, trace = model.backward(saved, grad, x, trace=True)
    return trace


def trace_csv(trace):
    lines = ["layer_index,kind,snr"]
    for rec in trace.records:
        lines.append(f"{rec.index},{rec.kind},{rec.snr:.6g}")
    return "\n".join(lines) + "\n"


def block_trace_summary(trace):
    """Per-block reconstruction quality: (block path, min internal snr, input snr).

    The input of each reversible block is rebuilt through the additive
    shortcut from its output, and each branch walk inside it starts
    from the branch input so rebuilt; the internals record only the walked
    layers past each branch's first.  A healthy profile loses input_snr
    steadily with depth, a few dB per block, and min_internal_snr follows it
    down; a sudden drop in either marks an inverse that amplifies error.
    """
    internals = {}
    inputs = {}
    for rec in trace.records:
        if rec.kind == "block_input":
            inputs[rec.path] = rec.snr
        elif "." in rec.path:
            block = rec.path.split(".", 1)[0]
            internals[block] = min(internals.get(block, float("inf")), rec.snr)
    rows = []
    for block in sorted(inputs, key=lambda p: int(p)):
        if block in internals:
            rows.append((block, internals[block], inputs[block]))
    return rows


# -- depth/slope sweeps ---------------------------------------------------------


def snr_depth_sweep(family, depths, slopes, width=16, h=8, w=8, bs=4, seed=0):
    """Lowest-layer reconstruction SNR for each (depth, slope) combination.

    Builds the `zoo.FAMILIES` spec at each depth, runs one traced backward
    in the spec's mode on random input, and records the SNR of the deepest
    reconstructed activation (the last trace record, nearest the input).
    Returns (depth, slope, snr) rows.
    """
    if family not in zoo.FAMILIES:
        raise ConfigError(
            f"unknown family {family!r} (expected one of: {', '.join(sorted(zoo.FAMILIES))})"
        )
    rows = []
    for i, depth in enumerate(depths):
        spec = zoo.FAMILIES[family](depth, width=width)
        for j, slope in enumerate(slopes):
            model = zoo.build_model(spec, seed=seed, slope=slope)
            x = ops.gaussian((bs, 3, h, w), seed=seed + 1000 * i + j)
            # an overflowed walk is booked as SNR 0; its floating-point
            # warnings would add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                trace = traced_backward(model, x, spec.mode, seed=seed + 1)
            rows.append((int(depth), float(slope), trace.records[-1].snr))
    return rows


def depth_sweep_csv(rows):
    lines = ["depth,slope,snr"]
    for depth, slope, snr in rows:
        lines.append(f"{depth},{slope:g},{snr:.6g}")
    return "\n".join(lines) + "\n"


def line_fit(x, y):
    """Least-squares line through (x, y); returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ConfigError(f"need at least two points, got {x.size} and {y.size}")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2

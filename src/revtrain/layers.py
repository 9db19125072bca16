"""Layer implementations.

Invertible layers (InvBatchNorm, InvLeakyReLU, InvConv, ChannelPool, BatchPool)
expose forward / inverse / backward so activations can be reconstructed during
the backward pass instead of stored. Conv2D, MaxPool2x2 and ClassifierHead are
the conventional non-invertible counterparts.

Conventions shared by every layer:
  - tensors are (bs, c, h, w), f32 or f64; a layer's dtype fixes its parameters
  - backward(grad, x=None, y=None) takes the gradient w.r.t. the layer output
    plus the forward input x and output y, saved or reconstructed; the class
    attribute backward_reads names the ones it reads, so a caller resolves
    only those and releases the rest first. It returns the input gradient
    together with a {name: grad} dict for the layer's parameters
  - params() returns live parameter arrays keyed by name, for in-place updates

InvConv and model.ReversibleBlock share one additive coupling,
y1 = x1 + F(x2), y2 = x2 + G(y1), over the channel halves (views) of one
buffer (RevNet, Gomez et al., arXiv 1707.04585; i-RevNet, Jacobsen et al.,
arXiv 1802.07088): _coupling_forward and _coupling_backward hold its forward
and gradient arithmetic, with the branches passed in. Its inverse is written
where it runs: InvConv.inverse subtracts both halves in place, and
ReversibleBlock's backward rebuilds its input one half at a time
(model._rebuild), each just before that branch's backward.

Only a buffer handed over in a _Cell is written in place: public forward,
inverse and backward never mutate their arguments. The backward interpreter
(model._backward_chain) hands over what it owns: a layer's output gradient
once the chain owns it, and during a walk the output y of a layer whose
backward does not read y. Given a cell, InvBatchNorm and InvLeakyReLU rebuild
the input in y's buffer and build the input gradient in the output gradient's
buffer, and InvConv adds its branch gradients into that buffer; Conv2D, the
pools and MaxPool2x2 take the buffer so it is freed as soon as it is read.
The elementwise kernels allocate their result plus bounded scratch: leaky
ReLU one batch element's slice and its mask; InvBatchNorm's train forward
one image slice of the squared deviations, which it turns into its output
in place; its backward one volume (u) and one slice of a product.

Normalization uses scale = |gamma| + eps_i rather than |gamma + eps_i|: the
floor keeps the per-channel scale away from zero for every gamma value, so the
inverse never divides by a vanishing number. The denominator is sqrt(var) + eps
(the eps sits outside the square root) and batch variance is the biased 1/N
estimator.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError, StateError
from .memtrack import track


def kaiming_kernel(cout, cin, kh, kw, rng, dtype):
    """Fan-in scaled Gaussian init, std = sqrt(2 / (cin*kh*kw))."""
    std = float(np.sqrt(2.0 / (cin * kh * kw)))
    return ops.gaussian((cout, cin, kh, kw), rng=rng, std=std, dtype=dtype)


class _Cell:
    """Single-owner handoff for a tensor crossing a call boundary.

    Passing a bare array into a call pins it in the caller's frame until the
    call returns; wrapping it lets the callee take the only reference and
    free the buffer as soon as it has been consumed.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def take(self):
        v = self.v
        self.v = None
        return v


def _take(x):
    return x.take() if isinstance(x, _Cell) else x


def _own(x):
    """A buffer to write in place: a _Cell's, or a tracked copy of a bare array."""
    return x.take() if isinstance(x, _Cell) else track(x.copy())


def _dest(x):
    """(x's array, a buffer for an elementwise result of x's shape): a
    _Cell's buffer serves as both, a bare array gets a new tracked buffer
    laid out like it."""
    if isinstance(x, _Cell):
        v = x.take()
        return v, v
    return x, track(np.empty_like(x))


def _col(v):
    return v.reshape(1, -1, 1, 1)


def _coupling_forward(x, f, g):
    """y1 = x1 + f(x2), y2 = x2 + g(y1) in one new buffer, for branches f, g."""
    x1, x2 = ops.split_channels(x)
    y = track(np.empty(x.shape, dtype=x.dtype))
    y1, y2 = ops.split_channels(y)
    np.add(x1, f(x2), out=y1)
    np.add(x2, g(y1), out=y2)
    return y


def _coupling_backward(grad, f_backward, g_backward):
    """Input gradient of the coupling; returns (grad_in, f_aux, g_aux).

    The output gradient (g1, g2) becomes (gy1, gx2) in grad's buffer if grad
    is a _Cell, else in a copy.  g_backward(g2), called first, and then
    f_backward(gy1) return (gradient at the branch input, aux), aux being
    whatever the branch reports, e.g. its parameter gradients.
    """
    gx = _own(grad)
    g1, g2 = ops.split_channels(gx)
    gg, g_aux = g_backward(g2)
    g1 += gg
    del gg
    gf, f_aux = f_backward(g1)
    g2 += gf
    return gx, f_aux, g_aux


class Conv2D:
    kind = "conv"
    invertible = False
    backward_reads = ("x",)

    def __init__(self, cin, cout, k=3, rng=None, dtype=np.float32):
        self.cin, self.cout, self.k = cin, cout, k
        self.padding = (k - 1) // 2
        rng = rng if rng is not None else ops.default_rng(0)
        self.kernel = kaiming_kernel(cout, cin, k, k, rng, dtype)
        self.bias = track(np.zeros(cout, dtype=dtype))

    def params(self):
        return {"kernel": self.kernel, "bias": self.bias}

    def forward(self, x):
        return ops.conv2d_forward(x, self.kernel, self.bias, padding=self.padding)

    def backward(self, grad_out, x=None, y=None, input_grad=True):
        """Without input_grad, the input gradient is None (not computed)."""
        grad_out = _take(grad_out)
        gx = ops.conv2d_backward_input(grad_out, self.kernel, padding=self.padding) if input_grad else None
        gk, gb = ops.conv2d_backward_weight(x, grad_out, padding=self.padding)
        return gx, {"kernel": gk, "bias": gb}


class InvBatchNorm:
    kind = "bn"
    invertible = True
    backward_reads = ("x",)

    def __init__(self, channels, eps=1e-5, eps_i=0.1, momentum=0.9, dtype=np.float32):
        if eps <= 0 or eps_i < 0:
            raise ConfigError(f"need eps > 0 and eps_i >= 0, got {eps}, {eps_i}")
        self.channels = channels
        self.eps, self.eps_i, self.momentum = float(eps), float(eps_i), float(momentum)
        self.gamma = track(np.ones(channels, dtype=dtype))
        self.beta = track(np.zeros(channels, dtype=dtype))
        self.running_mean = track(np.zeros(channels, dtype=dtype))
        self.running_var = track(np.ones(channels, dtype=dtype))
        self.cached_stats = None

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def _check(self, x):
        ops.check_tensor(x, "x")
        if x.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[1]}")

    def _scale(self):
        return np.abs(self.gamma) + self.eps_i

    def forward(self, x, train=True, update_running=True):
        """Normalize with batch stats (train) or running stats (eval).

        Train mode caches the batch stats for a later inverse. update_running
        is switched off when a reversible backward pass re-applies the layer,
        so recomputation does not double-count into the running averages.
        """
        self._check(x)
        if not train:
            return self._affine(track(np.subtract(x, _col(self.running_mean))), self.running_var)
        if x.size < 2 * self.channels:  # bs * h * w values per channel
            raise ShapeError("batch statistics need at least 2 values per channel")
        mean, var, dev = ops.channel_mean_var(x)
        self.cached_stats = (track(mean), track(var))
        if update_running:
            m = self.momentum
            self.running_mean = track((m * self.running_mean + (1 - m) * mean).astype(x.dtype))
            self.running_var = track((m * self.running_var + (1 - m) * var).astype(x.dtype))
        return self._affine(track(dev), var)

    def _affine(self, y, var):
        """Finish scale * (x - mean) / denom + beta in y, which holds x - mean,
        one operation at a time (the product commutes bit for bit)."""
        np.multiply(_col(self._scale()), y, out=y)
        y /= _col(np.sqrt(var) + self.eps)
        y += _col(self.beta)
        return y

    def forward_cached(self, x):
        """Re-apply the affine map with the cached batch stats, no side effects."""
        self._check(x)
        if self.cached_stats is None:
            raise StateError("no cached batch statistics; run forward(train=True) first")
        mean, var = self.cached_stats
        return self._affine(track(np.subtract(x, _col(mean))), var)

    def inverse(self, y):
        """Undo forward using the cached batch stats, in y's buffer if y is a
        _Cell."""
        y, x = _dest(y)
        self._check(y)
        if self.cached_stats is None:
            raise StateError("inverse needs cached batch statistics; run forward(train=True) first")
        mean, var = self.cached_stats
        # (y - beta) / scale * denom + mean
        np.subtract(y, _col(self.beta), out=x)
        x /= _col(self._scale())
        x *= _col(np.sqrt(var) + self.eps)
        x += _col(mean)
        return x

    def backward(self, grad_out, x=None, y=None, cached=False):
        """Gradients of the train-mode forward, treating batch stats as functions of x.

        With cached, x is the very input this layer last normalized in train
        mode, so its statistics are read from cached_stats; a walk's rebuilt
        x recomputes them instead, which cancels its per-channel error.
        The input gradient is built in grad_out's buffer if grad_out is a
        _Cell.  Besides it, the only full-size buffer is u, the deviations
        x - mean: the products u * u, g * u and gu * u are reduced one image
        slice at a time (see ops.slice_sums).
        """
        g, gu = _dest(grad_out)
        self._check(x)
        if g.shape != x.shape:
            raise ShapeError(f"grad_out {g.shape} does not match x {x.shape}")
        if cached:
            mean, var = self.cached_stats
            u = np.subtract(x, _col(mean))
        else:
            _, var, u = ops.channel_mean_var(x)
        sqrt_v = _col(np.sqrt(var))
        denom = sqrt_v + self.eps
        u /= denom
        grad_beta = track(g.sum(axis=(0, 2, 3)))
        sign = np.where(self.gamma >= 0, 1.0, -1.0).astype(x.dtype)
        grad_gamma = track(sign * ops.slice_sums(np.multiply, g, u))
        np.multiply(g, _col(self._scale()), out=gu)
        del g
        # d(sqrt(var))/dvar = 1/(2 sqrt(var)); when var == 0, u == 0 and the
        # statistics term vanishes, so the guarded reciprocal is exact
        inv_sqrt_v = np.zeros_like(sqrt_v)
        np.divide(1.0, sqrt_v, out=inv_sqrt_v, where=sqrt_v > 0)
        gu_mean = gu.mean(axis=(0, 2, 3), keepdims=True)
        guu_mean = _col(ops.slice_mean(np.multiply, gu, u))
        # gx = (gu - gu_mean) / denom - u * guu_mean * inv_sqrt_v, built in gu
        gu -= gu_mean
        gu /= denom
        u *= guu_mean
        u *= inv_sqrt_v
        gu -= u
        return gu, {"gamma": grad_gamma, "beta": grad_beta}


class InvLeakyReLU:
    kind = "lrelu"
    invertible = True
    backward_reads = ("x",)

    def __init__(self, n=2.0):
        if not 1.0 < n < np.inf:
            raise ConfigError(f"negative-slope divisor must be finite and exceed 1, got {n}")
        self.n = float(n)

    def params(self):
        return {}

    def forward(self, x):
        ops.check_tensor(x, "x")
        y = track(np.divide(x, self.n))
        return np.maximum(x, y, out=y)

    # The inverse and the gradient differ from their input only where the
    # sign is negative.  A where= mask on the whole tensor would skip the
    # positive half but runs several times slower than a plain ufunc, so
    # both loop over batch elements: each step's scratch is one element's
    # slice, and its mask for the gradient.

    def inverse(self, y):
        """min(y, y * n), in y's buffer if y is a _Cell."""
        y, x = _dest(y)
        ops.check_tensor(y, "y")
        for yb, xb in zip(y, x):
            np.minimum(yb, yb * self.n, out=xb)
        return x

    def backward(self, grad_out, x=None, y=None):
        """Divide gradients by n or 1 by the sign of x.  Built in grad_out's
        buffer if grad_out is a _Cell.

        The divisor is looked up by the sign mask's bytes, so the division
        runs without a branch.
        """
        g, gx = _dest(grad_out)
        ops.check_tensor(x, "x")
        if g.shape != x.shape:
            raise ShapeError(f"grad {g.shape} does not match x {x.shape}")
        divisor = np.array([self.n, 1.0], dtype=g.dtype)
        for gb, xb, out in zip(g, x, gx):
            np.divide(gb, divisor.take((xb > 0).view(np.uint8)), out=out)
        return gx, {}


class InvConv:
    """Additive coupling over a channel split, each branch one convolution.

    forward: y1 = x1 + F(x2); y2 = x2 + G(y1)
    inverse: x2 = y2 - G(y1);  x1 = y1 - F(x2)
    """

    kind = "invconv"
    invertible = True
    backward_reads = ("x", "y")

    def __init__(self, channels, k=3, rng=None, dtype=np.float32):
        if channels % 2:
            raise ShapeError(f"coupling needs an even channel count, got {channels}")
        if k % 2 == 0:
            raise ConfigError(f"kernel size must be odd to preserve spatial dims, got {k}")
        self.channels, self.k = channels, k
        self.padding = (k - 1) // 2
        half = channels // 2
        rng = rng if rng is not None else ops.default_rng(0)
        self.f_kernel = kaiming_kernel(half, half, k, k, rng, dtype)
        self.f_bias = track(np.zeros(half, dtype=dtype))
        self.g_kernel = kaiming_kernel(half, half, k, k, rng, dtype)
        self.g_bias = track(np.zeros(half, dtype=dtype))

    def params(self):
        return {
            "f_kernel": self.f_kernel,
            "f_bias": self.f_bias,
            "g_kernel": self.g_kernel,
            "g_bias": self.g_bias,
        }

    def _f(self, t):
        return ops.conv2d_forward(t, self.f_kernel, self.f_bias, padding=self.padding)

    def _g(self, t):
        return ops.conv2d_forward(t, self.g_kernel, self.g_bias, padding=self.padding)

    def _branch_backward(self, kernel, x, grad):
        """One branch conv's (input gradient, (kernel grad, bias grad))."""
        gk_gb = ops.conv2d_backward_weight(x, grad, padding=self.padding)
        return ops.conv2d_backward_input(grad, kernel, padding=self.padding), gk_gb

    def forward(self, x):
        return _coupling_forward(x, self._f, self._g)

    def inverse(self, y):
        """x2 = y2 - G(y1), x1 = y1 - F(x2), in y's buffer if y is a _Cell."""
        x = _own(y)
        h1, h2 = ops.split_channels(x)  # y1, y2, turning into x1, x2
        h2 -= self._g(h1)
        h1 -= self._f(h2)
        return x

    def backward(self, grad_out, x=None, y=None):
        """Exact coupling gradients; pass y to skip recomputing y1 from x."""
        x1, x2 = ops.split_channels(x)
        y1 = ops.add(x1, self._f(x2)) if y is None else ops.split_channels(y)[0]
        gx, (gk_f, gb_f), (gk_g, gb_g) = _coupling_backward(
            grad_out,
            lambda gy1: self._branch_backward(self.f_kernel, x2, gy1),
            lambda g2: self._branch_backward(self.g_kernel, y1, g2),
        )
        return gx, {"f_kernel": gk_f, "f_bias": gb_f, "g_kernel": gk_g, "g_bias": gb_g}


class ChannelPool:
    """2x2 spatial window to 4x channels; a pure permutation."""

    kind = "pool_c"
    invertible = True
    backward_reads = ()

    def params(self):
        return {}

    def forward(self, x):
        return ops.pool_channels(x)

    def inverse(self, y):
        return ops.unpool_channels(_take(y))

    def backward(self, grad_out, x=None, y=None):
        return ops.unpool_channels(_take(grad_out)), {}


class BatchPool:
    """2x2 spatial window to 4x virtual batch entries; a pure permutation."""

    kind = "pool_b"
    invertible = True
    backward_reads = ()

    def params(self):
        return {}

    def forward(self, x):
        return ops.pool_batch(x)

    def inverse(self, y):
        return ops.unpool_batch(_take(y))

    def backward(self, grad_out, x=None, y=None):
        return ops.unpool_batch(_take(grad_out)), {}


class MaxPool2x2:
    kind = "maxpool"
    invertible = False
    backward_reads = ("x",)

    def params(self):
        return {}

    @staticmethod
    def _windows(x):
        bs, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"pooling requires even spatial dims, got {h}x{w}")
        r = x.reshape(bs, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return r.reshape(bs, c, h // 2, w // 2, 4)

    def forward(self, x):
        ops.check_tensor(x, "x")
        return track(np.ascontiguousarray(self._windows(x).max(axis=-1)))

    def backward(self, grad_out, x=None, y=None):
        """Route gradients to each window's argmax, recomputed from the stored input."""
        grad_out = _take(grad_out)
        ops.check_tensor(x, "x")
        bs, c, h, w = x.shape
        win = self._windows(x)
        if grad_out.shape != win.shape[:4]:
            raise ShapeError(f"grad {grad_out.shape} does not match pooled {win.shape[:4]}")
        idx = win.argmax(axis=-1)
        scattered = np.zeros_like(win)
        np.put_along_axis(scattered, idx[..., None], grad_out[..., None], axis=-1)
        gx = (
            scattered.reshape(bs, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(bs, c, h, w)
        )
        return track(np.ascontiguousarray(gx)), {}


class ClassifierHead:
    """Global average pool (spatial and batch-pool group), then an affine map.

    group_size is the number of virtual batch entries per real sample (4^k
    after k batch pools); forward caches only the pooled features.
    """

    kind = "head"
    invertible = False
    backward_reads = ()

    def __init__(self, cin, num_classes, group_size=1, rng=None, dtype=np.float32):
        if group_size < 1:
            raise ConfigError(f"group_size must be >= 1, got {group_size}")
        self.cin, self.num_classes, self.group_size = cin, num_classes, group_size
        rng = rng if rng is not None else ops.default_rng(0)
        std = float(np.sqrt(1.0 / cin))
        self.weight = ops.gaussian((cin, num_classes), rng=rng, std=std, dtype=dtype)
        self.bias = track(np.zeros(num_classes, dtype=dtype))
        self.cached_pooled = None
        self._in_shape = None

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x):
        ops.check_tensor(x, "x")
        bs, c, h, w = x.shape
        if c != self.cin:
            raise ShapeError(f"expected {self.cin} channels, got {c}")
        if bs % self.group_size:
            raise ShapeError(f"batch {bs} not divisible by group_size {self.group_size}")
        true_bs = bs // self.group_size
        pooled = x.mean(axis=(2, 3)).reshape(true_bs, self.group_size, c).mean(axis=1)
        self.cached_pooled = track(np.ascontiguousarray(pooled))
        self._in_shape = x.shape
        return track(pooled @ self.weight + self.bias)

    def backward(self, grad_logits, x=None, y=None):
        if self.cached_pooled is None:
            raise StateError("head backward needs the pooled features from forward")
        bs, c, h, w = self._in_shape
        true_bs = bs // self.group_size
        if grad_logits.shape != (true_bs, self.num_classes):
            raise ShapeError(
                f"grad_logits {grad_logits.shape} != ({true_bs}, {self.num_classes})"
            )
        gw = track(self.cached_pooled.T @ grad_logits)
        gb = track(grad_logits.sum(axis=0))
        gp = grad_logits @ self.weight.T / (self.group_size * h * w)
        # a fresh buffer even when nothing broadcasts: a coupling adds into it
        gx = np.empty((bs, c, h, w), dtype=gp.dtype)
        gx.reshape(true_bs, self.group_size, c, h, w)[...] = gp[:, None, :, None, None]
        return track(gx), {"weight": gw, "bias": gb}

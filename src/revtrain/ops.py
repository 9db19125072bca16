"""Dense 4-D tensor kernels.

The universal value type is a numpy ndarray of shape (batch, channel, height,
width) in float32 or float64, C-contiguous row-major, or a split_channels view.

Convolution is cross-correlation (no kernel flip) at stride 1, with a square
k x k kernel and zero padding p in 0..k-1, passed by keyword: the models
downsample only by pooling, and padding (k-1)//2 keeps the spatial size. Each
kernel is a BLAS matmul of the kernel with a column matrix that holds one row
per (channel, ky, kx) tap and one column per output pixel: the source,
zero-padded by some q >= 0 (p for the forward and weight gradient, k-1-p for
the input gradient), under that tap. The columns read the unpadded source
directly; no padded copy of it is made. When the output keeps the source's
size, as in every conv the models run, a tap is one flat copy per (channel,
image) plane shifted by dy*w + dx for the tap's offset (dy, dx) = (ky-q,
kx-q), after which the border columns the shift wrapped and the rows it read
outside the source are zeroed. Any other geometry copies the tap's valid
window and zeroes the rest. The columns are untracked scratch built in
slices of at most COLUMN_BYTES: for the forward and input-gradient kernels,
slices of batch elements and, within one, of output rows; for the weight
gradient, slices of input channels (but at least one row of one element, or
one channel). A call's scratch is thus about COLUMN_BYTES plus one slice's
GEMM result (and, in batch-innermost slices, one copy of the slice's input),
not the whole-batch column matrix (9x the input for a 3x3 kernel). The input
gradient correlates grad_out, padded by k-1-p, with the flipped kernel, so it
computes exactly the input's window rather than the full correlation.

Column pixels are ordered (b, i, j), except in forward and input-gradient
calls of kernels larger than 1x1 whose output planes hold fewer than
SHORT_PLANE pixels: those copy each batch slice once with the batch
innermost, order pixels (i, j, b) and slice output rows of the whole slice,
so a tap copy moves runs of rows times the batch instead of one plane. The
weight gradient keeps (b, i, j), because its pixels are the reduction axis
and reordering them would change the sums; so do the small GEMMs issued in
the im2col layout (see SMALL_GEMM_MACS). Neither the order nor the slicing
changes bits: each output still reduces over the same (channel, ky, kx)
order on BLAS's packed path with the same PIXEL_TILE padding, and only its
column moves.

Results equal the whole-batch im2col formulation bit for bit (see
SMALL_GEMM_MACS), except where BLAS rounds by an output's position rather than
its layout: matrix-vector products (one output channel, or one input channel
for the input gradient), some 1x1 kernels on one batch element or channel
(where the im2col matrix is a strided view), and channel-sliced weight
gradients whose slices BLAS blocks differently from the whole batch (seen only
with fewer than 8 output channels). Those differ in the last bits.

Per-channel reductions over (batch, h, w) keep numpy's bits: channel_sums
folds chunks in numpy's own order, and slice_sums and slice_mean a product
formed one image slice (at most BN_SLICE_BYTES) at a time. channel_mean_var
alone computes batch-norm statistics (forward, backward, SNR closed forms):
the mean, the deviations x - mean and the variance folded from their squares.

A kernel never writes into its arguments, except a buffer handed over in a
_Cell: the caller gives up its only reference, and the kernel may build its
result there (channel_mean_var its deviations; the layers their outputs and
gradients, see layers).

Convolution-application accounting: conv2d_forward and conv2d_backward_input
each count as one application; conv2d_backward_weight rides along with the
input-gradient sweep of the same layer and does not increment the counter.
Under this convention a plain backward costs ~1x the forward application
count, block-reversible and hybrid ~2x (reconstruction sweeps included).
Hybrid adds two per InvConv past a branch's first layer: rebuilding the
coupling runs the whole branch forward, and the walk then inverts it.
A model's conv stem computes no input gradient (nothing reads the input
batch's), which takes one application off every backward.

Random sampling uses numpy's PCG64 (permuted congruential generator, XSL-RR
128/64 variant) seeded through SeedSequence, so sampled tensors are
reproducible bit-for-bit for a given seed within an environment.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .errors import ConfigError, ShapeError
from .memtrack import track

FLOAT_DTYPES = (np.float32, np.float64)

_counter_lock = threading.Lock()
_conv_applies = 0


def conv_applies() -> int:
    """Total counted convolution applications (forward + gradient sweeps)."""
    return _conv_applies


def _count_apply() -> None:
    global _conv_applies
    with _counter_lock:
        _conv_applies += 1


class _Cell:
    """Single-owner handoff for a tensor crossing a call boundary.

    Passing a bare array into a call pins it in the caller's frame until the
    call returns; wrapping it lets the callee take the only reference and
    free the buffer as soon as it has been consumed, or write its result
    into it.
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


def check_tensor(x, name: str = "tensor"):
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a 4-D ndarray, got {getattr(x, 'shape', type(x))}")
    if x.dtype not in FLOAT_DTYPES:
        raise ShapeError(f"{name} must be float32 or float64, got {x.dtype}")
    return x


# Column bytes of one slice: the columns of 256 pixels of hybrid's widest
# conv (128 channels, 3x3: 1152 rows), the narrowest width at which BLAS runs
# its GEMMs at speed. Medians on 2 BLAS threads: 128-row GEMMs (K = 1152) run
# at 119 GFLOP/s on 128 pixels and 126-128 on 256 to 512; 32-row GEMMs
# (K = 288), which get 1024 pixels under this budget, at 82-98 from 256 to
# 2048. Under it hybrid-hybrid's real step peak is 23.18 MB
# (scripts/kernel_peaks.py), against 24.49 MB when hybrid's (16, 32, 16, 16)
# and (16, 128, 8, 8) convs held twice these columns; small-hybrid's
# (32, 8, 32, 32) convs take 1.18 MB either way. The price is twice the GEMMs
# on hybrid's wide convs, each of which packs the kernel again (about 0.1 ms
# at 128 channels): their forward and input gradient take 5-14% longer a call
# (in-process A/B).
COLUMN_BYTES = 1152 * 256 * 4

# Rounding. The column kernels reproduce the whole-batch im2col GEMMs bit for
# bit. BLAS rounds an output the same whatever the operand layout, size and
# blocking only on its packed path and inside full tiles, so:
#   - a GEMM the whole-batch form would run with at most SMALL_GEMM_MACS
#     multiply-adds (BLAS may give those to size- and layout-specific
#     small-matrix kernels) is issued exactly as that form issues it: one
#     call, columns as rows ("im2col layout");
#   - every other GEMM gets more than SMALL_GEMM_MACS multiply-adds and a
#     pixel count that is a multiple of PIXEL_TILE, padding with zero
#     columns (_packed_width); _slices cuts no slice below that count.
SMALL_GEMM_MACS = 1 << 20
PIXEL_TILE = 16

# In (b, i, j) order a tap copy moves one (channel, image) plane per run.
# Convs whose output planes hold fewer pixels than this order them (i, j, b)
# instead, for runs of a plane times the batch; on larger planes the two
# transposes that needs (a batch-innermost copy of the input, and the GEMM
# result back) cost more than they save. In-process A/B of hybrid's 3x3 convs
# on 2 cores, under COLUMN_BYTES: (b, i, j) is 0-7% faster on 16x16 and 8x8
# planes, and holds no input copy (0.52 MB at the step peak), and 8-12%
# slower on 4x4. So are the transposes for 1x1 kernels, whose columns are one
# copy of the input.
SHORT_PLANE = 8 * 8


def _slices(total: int, unit_bytes: int, unit_macs: int):
    """The fewest near-equal slices of range(total), each unit taking
    unit_bytes of columns and unit_macs multiply-adds, whose columns fit
    COLUMN_BYTES (at least one unit a slice), but none so small that its GEMM
    has at most SMALL_GEMM_MACS multiply-adds while the whole has more."""
    n = -(-total // max(1, COLUMN_BYTES // unit_bytes))
    n = max(1, min(n, total // (SMALL_GEMM_MACS // unit_macs + 1)))
    return [slice(i * total // n, (i + 1) * total // n) for i in range(n)]


def _packed_width(npix: int, macs_per_pixel: int) -> int:
    """Column count of a packed GEMM over npix pixels: a multiple of
    PIXEL_TILE, with more than SMALL_GEMM_MACS multiply-adds."""
    need = max(npix, SMALL_GEMM_MACS // macs_per_pixel + 1)
    return -(-need // PIXEL_TILE) * PIXEL_TILE


def _inside(d: int, size: int, start: int, stop: int):
    """Range [lo, hi) of the output indices start..stop-1 (counted from
    start) whose index i reads i + d of a size-long source, clamped to be
    empty when none does."""
    lo = max(start, -d)
    return lo - start, max(min(stop, size - d), lo) - start


def _planes(src, batch_last: bool):
    """src (n, c, h, w) as planes (c, m, h, w, r): m = n batch-outer planes
    of one image each (a view), or with batch_last one batch-innermost copy
    (m = 1, r = n)."""
    if batch_last:
        return np.ascontiguousarray(src.transpose(1, 2, 3, 0))[:, None]
    return src.transpose(1, 0, 2, 3)[..., None]


def _columns(planes, k: int, pad: int, out_hw, band=slice(None), width=None):
    """(c*k*k, width) column matrix of planes (c, m, h, w, r) zero-padded by
    pad under a k x k kernel, for the output rows band of an (oh, ow) =
    out_hw output: row (ci, ky, kx), column (m, i, j, r) holds the planes'
    value at (ci, m, i+dy, j+dx, r) with (dy, dx) = (ky-pad, kx-pad), or zero
    outside them; columns past the band's pixels (the default width) are
    zero. No padded copy is made. A same-size output fills each tap with one
    flat copy per plane shifted by (dy*w + dx)*r, then zeroes its
    out-of-range rows and the border columns the shift wrapped; any other
    geometry copies the tap's valid window into zeroed columns."""
    c, m, h, w, r = planes.shape
    oh, ow = out_hw
    start, stop, _ = band.indices(oh)
    nr = stop - start
    npix = m * nr * ow * r
    same = (oh, ow) == (h, w)
    cols = (np.empty if same else np.zeros)((c * k * k, width or npix), dtype=planes.dtype)
    taps = cols[:, :npix].reshape(c, k, k, m, nr, ow, r)
    # band rows [i0, i1) and columns [j0, j1) of each kernel row and column
    # that read inside the planes
    rows = [_inside(ky - pad, h, start, stop) for ky in range(k)]
    columns = [_inside(kx - pad, w, 0, ow) for kx in range(k)]
    if not same:
        for (ky, (i0, i1)), (kx, (j0, j1)) in itertools.product(enumerate(rows), enumerate(columns)):
            dy, dx = start + ky - pad, kx - pad
            taps[:, ky, kx, :, i0:i1, j0:j1] = planes[:, :, i0 + dy : i1 + dy, j0 + dx : j1 + dx]
        return cols
    cols[:, npix:] = 0
    flat_planes = planes.reshape(c, m, h * w * r)
    flat_taps = taps.reshape(c, k, k, m, nr * w * r)
    lo, hi = start * w * r, stop * w * r
    for ky, kx in itertools.product(range(k), repeat=2):
        shift = ((ky - pad) * w + kx - pad) * r
        # band positions q whose source q + shift lies in the planes
        q0, q1 = max(lo, -shift), min(hi, h * w * r - shift)
        if q1 > q0:
            flat_taps[:, ky, kx, :, q0 - lo : q1 - lo] = flat_planes[:, :, q0 + shift : q1 + shift]
    # zero what lies outside the planes: rows the shifted copies left
    # unwritten, and border columns into which they wrapped row ends
    for ky, (i0, i1) in enumerate(rows):
        if i0 > 0:
            taps[:, ky, :, :, :i0] = 0
        if i1 < nr:
            taps[:, ky, :, :, i1:] = 0
    for kx, (j0, j1) in enumerate(columns):
        if j0 > 0:
            taps[:, :, kx, :, :, :j0] = 0
        if j1 < ow:
            taps[:, :, kx, :, :, j1:] = 0
    return cols


def _correlate(src, kmat, k: int, out, pad: int):
    """Column core: out[b, o, i, j] = kmat[o] . column(b, i, j), written in
    place, where the columns are those of src zero-padded by pad.
    Slices of images, and within them of output rows, bound the workspace.
    Output planes smaller than SHORT_PLANE under kernels larger than 1x1
    order their pixels (i, j, b), from one batch-innermost copy of each
    image slice."""
    bs = src.shape[0]
    rows, depth = kmat.shape
    oh, ow = out.shape[2:]
    batch_last = k > 1 and oh * ow < SHORT_PLANE
    row_bytes, row_macs = depth * ow * src.itemsize, rows * depth * ow
    # an image slice takes as many images as one of its output rows
    # ((i, j, b)) or its whole output ((b, i, j)) fits the budget for
    image_rows = 1 if batch_last else oh
    for images in _slices(bs, image_rows * row_bytes, oh * row_macs):
        n = images.stop - images.start
        planes = _planes(src[images], batch_last)
        for band in _slices(oh, n * row_bytes, n * row_macs):
            nr = band.stop - band.start
            npix = n * nr * ow
            cols = _columns(planes, k, pad, (oh, ow), band, _packed_width(npix, rows * depth))
            res = (kmat @ cols)[:, :npix]
            if batch_last:
                res = res.reshape(rows, nr, ow, n).transpose(3, 0, 1, 2)
            else:
                res = res.reshape(rows, n, nr, ow).transpose(1, 0, 2, 3)
            out[images, :, band] = res
            del cols, res  # free this slice's scratch before the next is built
        del planes
    return out


def _correlate_im2col(src, kmat, k: int, out, pad: int):
    """out = one whole-batch GEMM in the im2col layout (see SMALL_GEMM_MACS)."""
    bs = src.shape[0]
    oh, ow = out.shape[2:]
    cols = np.ascontiguousarray(_columns(_planes(src, False), k, pad, (oh, ow)).T)
    res = (cols @ kmat.T).T
    out[...] = res.reshape(len(kmat), bs, oh, ow).transpose(1, 0, 2, 3)
    return out


def _kernel_side(kh: int, kw: int, padding: int) -> int:
    """k of a square k x k kernel whose padding lies in 0..k-1."""
    if kh != kw or kh < 1:
        raise ShapeError(f"kernel must be square and at least 1x1, got {kh}x{kw}")
    if not 0 <= padding < kh:
        raise ShapeError(f"padding {padding} outside 0..{kh - 1} for a {kh}x{kh} kernel")
    return kh


def conv2d_forward(x, kernel, bias=None, *, padding: int = 0):
    """Cross-correlate x (bs,cin,h,w) with kernel (cout,cin,k,k), add bias."""
    check_tensor(x, "x")
    bs, cin, h, w = x.shape
    cout, cin_k = kernel.shape[:2]
    k = _kernel_side(*kernel.shape[2:], padding)
    if cin_k != cin:
        raise ShapeError(f"kernel expects {cin_k} input channels, x has {cin}")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(f"spatial dims {h}x{w} too small for kernel {k}x{k} pad {padding}")
    _count_apply()
    oh, ow = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    dtype = np.result_type(x, kernel, x if bias is None else bias)
    out = np.empty((bs, cout, oh, ow), dtype=dtype)
    im2col = cout * cin * k * k * bs * oh * ow <= SMALL_GEMM_MACS
    (_correlate_im2col if im2col else _correlate)(x, kernel.reshape(cout, -1), k, out, padding)
    if bias is not None:
        out += bias[None, :, None, None]
    return track(out)


def conv2d_backward_input(grad_out, kernel, *, padding: int = 0):
    """Gradient w.r.t. the convolution input."""
    check_tensor(grad_out, "grad_out")
    bs, cout, oh, ow = grad_out.shape
    cout_k, cin = kernel.shape[:2]
    k = _kernel_side(*kernel.shape[2:], padding)
    if cout_k != cout:
        raise ShapeError(f"kernel produces {cout_k} channels, grad_out has {cout}")
    h, w = oh + k - 1 - 2 * padding, ow + k - 1 - 2 * padding
    if h < 1 or w < 1:
        raise ShapeError("grad_out spatial dims inconsistent with kernel/padding")
    _count_apply()
    # correlation of grad_out, padded by k-1, with the transposed, spatially
    # flipped kernel: the full correlation is (oh+k-1) x (ow+k-1) and the input
    # gradient is its h x w window at offset (p, p), so only that window is
    # computed, from grad_out padded by k-1-p. A small GEMM computes the full
    # correlation and crops.
    k_t = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].swapaxes(0, 1)).reshape(cin, -1)
    gx = np.empty((bs, cin, h, w), dtype=np.result_type(grad_out, kernel))
    gh, gw = oh + k - 1, ow + k - 1
    if k_t.size * bs * gh * gw <= SMALL_GEMM_MACS:
        full = np.empty((bs, cin, gh, gw), dtype=gx.dtype)
        _correlate_im2col(grad_out, k_t, k, full, k - 1)
        gx[...] = full[:, :, padding : padding + h, padding : padding + w]
    else:
        _correlate(grad_out, k_t, k, gx, k - 1 - padding)
    return track(gx)


def conv2d_backward_weight(x, grad_out, *, padding: int = 0):
    """Gradients w.r.t. kernel and bias. Returns (grad_kernel, grad_bias); the
    kernel size follows from the shapes of x and grad_out."""
    check_tensor(x, "x")
    check_tensor(grad_out, "grad_out")
    bs, cin, h, w = x.shape
    bs_g, cout, oh, ow = grad_out.shape
    if bs_g != bs:
        raise ShapeError(f"batch mismatch: x {bs}, grad_out {bs_g}")
    k = _kernel_side(h + 2 * padding - oh + 1, w + 2 * padding - ow + 1, padding)
    # columns one input-channel slice at a time, so each weight still reduces
    # over the whole batch in a single GEMM
    n = bs * oh * ow
    g_mat = grad_out.transpose(0, 2, 3, 1).reshape(n, cout)
    gk = np.empty((cin * k * k, cout), dtype=np.result_type(x, grad_out))
    macs = cin * k * k * n * cout
    im2col = macs <= SMALL_GEMM_MACS
    planes = _planes(x, False)
    for sl in [slice(0, cin)] if im2col else _slices(cin, k * k * n * x.itemsize, k * k * n * cout):
        cols = _columns(planes[sl], k, padding, (oh, ow))
        if im2col:
            cols = np.ascontiguousarray(cols.T).T
        np.matmul(cols, g_mat, out=gk[sl.start * k * k : sl.stop * k * k])
        del cols
    gk = gk.reshape(cin, k, k, cout).transpose(3, 0, 1, 2)
    gb = grad_out.sum(axis=(0, 2, 3))
    return track(np.ascontiguousarray(gk)), track(np.ascontiguousarray(gb))


def split_channels(x):
    """Split the channels into halves: two views sharing x's buffer. Coupling
    layers split this way, so the channel count must be even."""
    check_tensor(x, "x")
    c = x.shape[1]
    if c % 2:
        raise ShapeError(f"channel split requires even channel count, got {c}")
    return x[:, : c // 2], x[:, c // 2 :]


def add(a, b):
    if np.shape(a) != np.shape(b):
        raise ShapeError(f"operand shapes differ: {np.shape(a)} vs {np.shape(b)}")
    return track(a + b)


def sum_sq_norm(x) -> float:
    """Squared L2 norm of all elements, accumulated in f64."""
    r = np.asarray(x).ravel().astype(np.float64, copy=False)
    return float(r @ r)


def channel_sums(chunks):
    """Per-channel sums over axes (0, 2, 3) of the contiguous (n, c, h, w)
    chunks taken in order, in a new array (not a view), bit-equal to numpy's
    sum of their concatenation. Each chunk is read before the next is drawn,
    so the chunks may share one buffer, and only one chunk's per-image sums
    are held at a time.

    numpy reduces such an array image by image: it adds the pairwise sum of
    each channel's h*w values to that channel's running total. With one
    channel the batch and pixel axes coalesce into one pairwise run, so
    single-channel chunks are copied out, joined and reduced whole.
    """
    total, parts = None, []
    for x in chunks:
        if x.shape[1] == 1:
            parts.append(x.copy())
        else:
            if total is None:
                total = np.zeros(x.shape[1], dtype=x.dtype)
            rows = np.add.reduce(x.reshape(len(x), x.shape[1], -1), axis=2)
            total = np.add.reduce(np.concatenate([total[None], rows]), axis=0)
        del x  # free this chunk before the next is drawn
    if parts:
        return np.add.reduce(np.concatenate(parts), axis=(0, 2, 3))
    return total


# Image slices of a product in slice_sums and slice_mean take at most this
# many bytes (at least one image): 1.8 MB off small-hybrid's bn backward peak.
BN_SLICE_BYTES = 256 << 10


def slice_sums(op, a, b=None):
    """op(a).sum(axis=(0, 2, 3)), or op(a, b)'s, bit for bit, from op applied
    to one image slice of the operands at a time (see channel_sums)."""
    step = max(1, BN_SLICE_BYTES // a[0].nbytes)
    return channel_sums(op(a[i : i + step]) if b is None else op(a[i : i + step], b[i : i + step])
                        for i in range(0, len(a), step))


def slice_mean(op, a, b=None):
    """op(a).mean(axis=(0, 2, 3)), or op(a, b)'s, bit for bit."""
    total = slice_sums(op, a, b)
    count = np.intp(a.size // len(total))  # what .mean divides by
    return np.true_divide(total, count, out=total, casting="unsafe")


def channel_mean_var(x):
    """(mean, biased variance, dev = x - mean) per channel over (bs, h, w), in
    new untracked buffers, bit-equal to x.mean and x.var; dev is the caller's,
    built in x's buffer if x is a _Cell."""
    owned = isinstance(x, _Cell)
    x = check_tensor(_take(x), "x")
    mean = x.mean(axis=(0, 2, 3))
    dev = np.subtract(x, mean.reshape(1, -1, 1, 1), out=x if owned else None)
    return mean, slice_mean(np.square, dev), dev


# 2x2 window scan order is row-major: (0,0), (0,1), (1,0), (1,1).
# pool_channels sends input channel ci window slot k to output channel ci*4+k;
# pool_batch sends batch element bi window slot k to output element bi*4+k.

def _permute(x, split, axes, shape):
    """One copy of x into a new buffer of `shape`: x viewed as `split`,
    with its axes permuted by `axes`.  Never returns a view of x, even where
    a reshape alone would do."""
    out = np.empty(shape, dtype=x.dtype)
    out.reshape([split[a] for a in axes])[...] = x.reshape(split).transpose(axes)
    return track(out)


def pool_channels(x):
    """(bs, c, h, w) -> (bs, 4c, h/2, w/2), bit-exact permutation."""
    check_tensor(x, "x")
    bs, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pooling requires even spatial dims, got {h}x{w}")
    return _permute(x, (bs, c, h // 2, 2, w // 2, 2), (0, 1, 3, 5, 2, 4),
                    (bs, 4 * c, h // 2, w // 2))


def unpool_channels(y):
    bs, c4, h, w = check_tensor(y, "y").shape
    if c4 % 4:
        raise ShapeError(f"channel unpool requires channels divisible by 4, got {c4}")
    c = c4 // 4
    return _permute(y, (bs, c, 2, 2, h, w), (0, 1, 4, 2, 5, 3), (bs, c, 2 * h, 2 * w))


def pool_batch(x):
    """(bs, c, h, w) -> (4bs, c, h/2, w/2), bit-exact permutation."""
    check_tensor(x, "x")
    bs, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pooling requires even spatial dims, got {h}x{w}")
    return _permute(x, (bs, c, h // 2, 2, w // 2, 2), (0, 3, 5, 1, 2, 4),
                    (4 * bs, c, h // 2, w // 2))


def unpool_batch(y):
    bs4, c, h, w = check_tensor(y, "y").shape
    if bs4 % 4:
        raise ShapeError(f"batch unpool requires batch divisible by 4, got {bs4}")
    bs = bs4 // 4
    return _permute(y, (bs, 2, 2, c, h, w), (0, 3, 4, 1, 5, 2), (bs, c, 2 * h, 2 * w))


def default_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def gaussian(shape, seed=None, rng=None, std: float = 1.0, dtype=np.float32):
    """Seeded zero-mean Gaussian sample (PCG64 + ziggurat)."""
    if rng is None:
        rng = default_rng(0 if seed is None else seed)
    out = rng.standard_normal(shape, dtype=np.float64)
    if std != 1.0:
        out *= std
    return track(out.astype(dtype, copy=False) if dtype != np.float64 else out)

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from revtrain import memtrack, ops
from revtrain.errors import ShapeError

from oracles import (
    fd_grad,
    im2col,
    im2col_conv2d,
    im2col_conv2d_backward_input,
    im2col_conv2d_backward_weight,
    loop_conv2d,
    rel_err,
)

# Regression anchors computed once from the loop reference in oracles.py
# (inputs: PCG64 seeds 42/43/44, shapes below). Not derived from ops.py.
FROZEN_CONV_SUMS = {
    "s1p1": (390.0993137286342, 439.5640588948513),
    "s1p0_nobias": (1.299981262339216, 110.82936316349364),
}


def _conv_inputs(dtype=np.float64):
    x = ops.gaussian((2, 3, 8, 8), seed=42).astype(dtype)
    k = ops.gaussian((4, 3, 3, 3), seed=43, std=0.1).astype(dtype)
    b = ops.gaussian((4,), seed=44).astype(dtype)
    return x, k, b


def test_conv2d_forward_matches_loop_reference():
    x, k, b = _conv_inputs()
    for padding, bias in [(1, b), (0, None), (2, None)]:
        want = loop_conv2d(x, k, bias, padding=padding)
        # the finite-difference tests below evaluate their losses through
        # the im2col oracle, so it is pinned to the loop oracle here
        for got in (ops.conv2d_forward(x, k, bias, padding=padding),
                    im2col_conv2d(x, k, bias, padding=padding)):
            assert got.shape == want.shape
            assert rel_err(got, want) < 1e-12


def test_conv2d_forward_frozen_checksums():
    x, k, b = _conv_inputs()
    cases = {
        "s1p1": ops.conv2d_forward(x, k, b, padding=1),
        "s1p0_nobias": ops.conv2d_forward(x, k, None, padding=0),
    }
    for name, y in cases.items():
        s, a = FROZEN_CONV_SUMS[name]
        assert float(y.sum()) == pytest.approx(s, rel=1e-12)
        assert float(np.abs(y).sum()) == pytest.approx(a, rel=1e-12)


def test_conv2d_forward_rectangular_and_f32():
    x = ops.gaussian((3, 2, 5, 7), seed=7)
    k = ops.gaussian((4, 2, 3, 3), seed=8, std=0.2)
    got = ops.conv2d_forward(x, k, None, padding=1)
    want = loop_conv2d(x.astype(np.float64), k.astype(np.float64), None, padding=1)
    assert got.dtype == np.float32
    assert rel_err(got, want) < 1e-5


@pytest.mark.parametrize("padding", [1, 0, 2])
def test_conv2d_backward_input_matches_finite_differences(padding):
    x, k, _ = _conv_inputs()
    y0 = ops.conv2d_forward(x, k, None, padding=padding)
    weight = ops.gaussian(y0.shape, seed=9).astype(np.float64)

    def loss(xv):
        return float((im2col_conv2d(xv, k, None, padding=padding) * weight).sum())

    gx = ops.conv2d_backward_input(weight, k, padding=padding)
    assert gx.shape == x.shape
    assert rel_err(gx, fd_grad(loss, x.copy())) < 1e-7


@pytest.mark.parametrize("padding", [1, 0])
def test_conv2d_backward_weight_matches_finite_differences(padding):
    x, k, b = _conv_inputs()
    y0 = ops.conv2d_forward(x, k, b, padding=padding)
    weight = ops.gaussian(y0.shape, seed=11).astype(np.float64)

    def loss_k(kv):
        return float((im2col_conv2d(x, kv, b, padding=padding) * weight).sum())

    def loss_b(bv):
        return float((im2col_conv2d(x, k, bv, padding=padding) * weight).sum())

    gk, gb = ops.conv2d_backward_weight(x, weight, padding=padding)
    assert gk.shape == k.shape
    assert gb.shape == b.shape
    assert rel_err(gk, fd_grad(loss_k, k.copy())) < 1e-7
    assert rel_err(gb, fd_grad(loss_b, b.copy())) < 1e-7


def test_conv2d_backward_input_rejects_impossible_geometry():
    g = np.zeros((1, 1, 4, 4), dtype=np.float32)
    k = np.zeros((1, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ShapeError):
        ops.conv2d_backward_input(g, k, padding=3)
    # inferred input size oh + k - 1 - 2p falls below one pixel
    with pytest.raises(ShapeError):
        ops.conv2d_backward_input(g[:, :, :1, :1], k, padding=2)


def _kernel_calls(x, kernel, g, padding):
    """The three conv kernels on x, a kernel and its output gradient g."""
    return {
        "forward": lambda: ops.conv2d_forward(x, kernel, padding=padding),
        "backward_input": lambda: ops.conv2d_backward_input(g, kernel, padding=padding),
        "backward_weight": lambda: ops.conv2d_backward_weight(x, g, padding=padding),
    }


KERNELS = ["forward", "backward_input", "backward_weight"]


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_conv_kernels_reject_a_non_square_kernel(kernel_name):
    # a 3x1 kernel with padding 1: for the weight gradient, the shapes of x
    # and g imply that kernel
    x = np.zeros((1, 2, 6, 6), dtype=np.float32)
    kernel = np.zeros((2, 2, 3, 1), dtype=np.float32)
    g = np.zeros((1, 2, 6, 8), dtype=np.float32)
    with pytest.raises(ShapeError, match="square"):
        _kernel_calls(x, kernel, g, 1)[kernel_name]()


@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("k,padding", [(3, -1), (3, 3), (1, 1), (5, 5)])
def test_conv_kernels_reject_padding_outside_zero_to_k_minus_one(k, padding, kernel_name):
    x = np.zeros((1, 2, 6, 6), dtype=np.float32)
    kernel = np.zeros((2, 2, k, k), dtype=np.float32)
    side = 6 + 2 * padding - k + 1
    g = np.zeros((1, 2, side, side), dtype=np.float32)
    with pytest.raises(ShapeError, match="padding"):
        _kernel_calls(x, kernel, g, padding)[kernel_name]()


# -- column kernels against the whole-batch im2col reference ------------------------


def _conv_case(shape, cout, k, dtype):
    rng = ops.default_rng(17)
    x = rng.standard_normal(shape).astype(dtype)
    kernel = (0.3 * rng.standard_normal((cout, shape[1], k, k))).astype(dtype)
    bias = rng.standard_normal(cout).astype(dtype)
    return x, kernel, bias


def _check_against_im2col(x, kernel, bias, padding, check):
    k = kernel.shape[2]
    hw = x.shape[2:]
    y = ops.conv2d_forward(x, kernel, bias, padding=padding)
    check(y, im2col_conv2d(x, kernel, bias, 1, padding))
    g = ops.gaussian(y.shape, seed=5, dtype=x.dtype)
    check(ops.conv2d_backward_input(g, kernel, padding=padding),
          im2col_conv2d_backward_input(g, kernel, 1, padding, hw))
    gk, gb = ops.conv2d_backward_weight(x, g, padding=padding)
    want_k, want_b = im2col_conv2d_backward_weight(x, g, 1, padding, (k, k))
    check(gk, want_k)
    check(gb, want_b)


def _bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,padding", [(k, p) for k in (1, 3, 5) for p in range(k)])
@pytest.mark.parametrize("shape", [(3, 4, 9, 7), (2, 4, 7, 9)])
def test_conv_kernels_bitwise_equal_im2col_reference(shape, k, padding, dtype):
    # maps taller and wider than square
    x, kernel, bias = _conv_case(shape, 5, k, dtype)
    _check_against_im2col(x, kernel, bias, padding, _bitwise)


def _column_slices(call, monkeypatch):
    """Run call, returning the shape of the planes, the band of output rows
    and the column count of each column slice it builds."""
    seen = []
    columns = ops._columns

    def spy(planes, k, pad, out_hw, band=slice(None), width=None):
        cols = columns(planes, k, pad, out_hw, band, width)
        seen.append((planes.shape, band.indices(out_hw[0])[:2], cols.shape[1]))
        return cols

    monkeypatch.setattr(ops, "_columns", spy)
    call()
    monkeypatch.setattr(ops, "_columns", columns)
    return seen


def _slice_pixels(seen, ow):
    """Pixels of each column slice: images x band rows x ow."""
    return [m * r * (stop - start) * ow for (c, m, h, w, r), (start, stop), _ in seen]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f32_shape,cout,k,padding", [
    ((7, 16, 32, 32), 32, 3, 1),
    ((7, 4, 32, 32), 16, 5, 2),    # input gradient: bands of rows of one image
    ((7, 64, 31, 29), 24, 3, 0),   # not same-size: bands of rows of one image
])
def test_conv_kernels_bitwise_equal_im2col_reference_across_slices(f32_shape, cout, k, padding, dtype,
                                                                   monkeypatch):
    # f64 halves the channels, which keeps the byte sizes and so the slicing
    bs, cin, h, w = f32_shape
    cin = cin * 4 // np.dtype(dtype).itemsize
    x, kernel, bias = _conv_case((bs, cin, h, w), cout, k, dtype)
    oh, ow = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    # several forward slices of unequal size, and several input-channel slices
    pixels = _slice_pixels(_column_slices(lambda: ops.conv2d_forward(x, kernel, padding=padding),
                                          monkeypatch), ow)
    assert len(pixels) > 1 and len(set(pixels)) > 1
    g = np.zeros((bs, cout, oh, ow), dtype)
    channels = _column_slices(lambda: ops.conv2d_backward_weight(x, g, padding=padding), monkeypatch)
    assert len(channels) > 1 and sum(planes[0] for planes, _, _ in channels) == cin
    _check_against_im2col(x, kernel, bias, padding, _bitwise)


# wide shapes whose forward slices are of unequal size
UNEQUAL_FORWARD_SLICES = {(64, 128, 9, 9), (16, 128, 7, 7)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f32_shape,cout,k,padding", [
    ((64, 128, 4, 4), 128, 3, 1),   # the 4x4 stage after batch pooling
    ((16, 128, 8, 8), 128, 3, 1),
    ((64, 128, 9, 9), 128, 3, 1),   # odd size
    ((16, 128, 7, 7), 128, 3, 1),   # batch-innermost bands of 1 and 2 rows
])
def test_conv_kernels_bitwise_equal_im2col_reference_at_wide_small_maps(f32_shape, cout, k, padding, dtype,
                                                                        monkeypatch):
    # the batch-innermost columns reorder pixels, never a reduction
    bs, cin, h, w = f32_shape
    cin = cin * 4 // np.dtype(dtype).itemsize
    x, kernel, bias = _conv_case((bs, cin, h, w), cout, k, dtype)
    oh, ow = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    g = np.zeros((bs, cout, oh, ow), dtype)
    # several GEMMs, each a whole number of PIXEL_TILE columns; the forward's
    # (whose byte sizes the f64 case keeps) unequal where the shape says so
    forward, backward = (_column_slices(call, monkeypatch) for call in (
        lambda: ops.conv2d_forward(x, kernel, padding=padding),
        lambda: ops.conv2d_backward_input(g, kernel, padding=padding)))
    for seen in (forward, backward):
        pixels = _slice_pixels(seen, ow)
        assert len(pixels) > 1
        assert all(width % ops.PIXEL_TILE == 0 and width >= p for p, (_, _, width) in zip(pixels, seen))
    assert (len(set(_slice_pixels(forward, ow))) > 1) == (f32_shape in UNEQUAL_FORWARD_SLICES)
    _check_against_im2col(x, kernel, bias, padding, _bitwise)


@pytest.mark.parametrize("bs,forward_slices,weight_slices", [(32, 4, 3), (16, 2, 3)])
def test_stem_convs_take_the_fewest_slices_the_budget_allows(bs, forward_slices, weight_slices, monkeypatch):
    # the 3-channel stems of small-hybrid (batch 32) and hybrid (batch 16):
    # ten images of forward columns fit the budget; the weight gradient's
    # transposed grad_out (4.2 and 2.1 MB) exceeds it, so it takes one
    # channel of columns a slice
    x = ops.gaussian((bs, 3, 32, 32), seed=1)
    kernel = ops.gaussian((32, 3, 3, 3), seed=2)
    g = ops.gaussian((bs, 32, 32, 32), seed=3)
    forward = _column_slices(lambda: ops.conv2d_forward(x, kernel, padding=1), monkeypatch)
    weight = _column_slices(lambda: ops.conv2d_backward_weight(x, g, padding=1), monkeypatch)
    assert (len(forward), len(weight)) == (forward_slices, weight_slices)
    assert all(planes[1] * 27 * 1024 * 4 <= ops.COLUMN_BYTES for planes, _, _ in forward)


@pytest.mark.parametrize("shape,cout", [((16, 8, 32, 32), 8), ((16, 32, 16, 16), 32)])
def test_weight_gradient_scratch_stays_within_the_column_budget(shape, cout):
    # hybrid's batch-16 block convs: a slice's columns and the transposed
    # grad_out together, and nothing else but the two outputs
    x = ops.gaussian(shape, seed=1)
    g = ops.gaussian((shape[0], cout) + shape[2:], seed=2)
    tracemalloc.start()
    try:
        gk, gb = ops.conv2d_backward_weight(x, g, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gk.shape == (cout, shape[1], 3, 3)
    assert peak - gk.nbytes - gb.nbytes <= ops.COLUMN_BYTES, (shape, peak)


@pytest.mark.parametrize("shape,k,padding", [
    ((3, 4, 9, 7), 3, 1),
    ((2, 3, 6, 5), 1, 0),
    ((4, 3, 7, 6), 3, 0),   # not same-size: the valid windows alone
    ((5, 2, 8, 8), 5, 2),
    ((3, 2, 1, 2), 5, 2),   # kernel wider than the map: shifts with |dx| >= w
    ((3, 2, 2, 1), 5, 2),   # and |dy| >= h
    ((2, 2, 3, 2), 7, 3),   # and |dx| > w
    ((4, 3, 1, 1), 3, 1),   # one-pixel maps
    ((4, 3, 1, 1), 1, 0),
    ((3, 4, 9, 7), 3, 2),   # the full correlation, larger than the map
])
def test_packed_columns_are_im2col_columns_with_pixels_ordered_ijb(shape, k, padding):
    bs = shape[0]
    for dtype in (np.float32, np.float64):
        x = ops.gaussian(shape, seed=4, dtype=dtype)
        want, oh, ow = im2col(np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2)), k, k, 1)
        bij = want.T.reshape(-1, bs, oh, ow)
        # batch-innermost packed columns, and the (b, i, j) order that the
        # weight gradient and the im2col path keep, byte for byte, of all
        # output rows and of a band of them
        for band in (slice(0, oh), slice(oh // 2, oh), slice(0, (oh + 1) // 2)):
            rows = bij[:, :, band]
            ijb = rows.transpose(0, 2, 3, 1).reshape(len(rows), -1)
            npix = ijb.shape[1]
            for batch_last, order in [(True, ijb), (False, rows.reshape(len(rows), -1))]:
                for width in (npix + 7, None):
                    cols = ops._columns(ops._planes(x, batch_last), k, padding, (oh, ow), band, width)
                    assert cols.dtype == x.dtype and not np.shares_memory(cols, x)
                    got = np.ascontiguousarray(cols[:, :npix]).tobytes()
                    assert got == np.ascontiguousarray(order).tobytes(), (dtype, batch_last, band, width)
                    assert not cols[:, npix:].any()


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-14)])
@pytest.mark.parametrize("shape,cout,k", [
    ((16, 8, 24, 20), 1, 3),   # one output channel: matrix-vector products
    ((16, 1, 24, 20), 8, 3),   # one input channel: so is the input gradient
    ((1, 8, 24, 20), 8, 1),    # 1x1 kernel on one batch element
])
def test_conv_kernels_match_im2col_reference_to_rounding_in_matrix_vector_cases(shape, cout, k, dtype, tol):
    # BLAS rounds these by an output's position, so equality is not bitwise
    def close(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert rel_err(got, want) < tol

    x, kernel, bias = _conv_case(shape, cout, k, dtype)
    _check_against_im2col(x, kernel, bias, k // 2, close)


def test_conv_workspace_stays_within_the_slice_budget():
    for shape, cout, k, padding in [
        ((32, 8, 32, 32), 8, 3, 1),      # hot narrow conv: its im2col matrix is 9x the input
        ((64, 32, 8, 8), 32, 3, 1),
        ((32, 64, 16, 16), 64, 1, 0),    # 1x1 projection: columns are one copy of the input
        ((16, 32, 16, 16), 32, 3, 1),    # hybrid's three wide convs
        ((16, 128, 8, 8), 128, 3, 1),
        ((64, 128, 4, 4), 128, 3, 1),    # pixels ordered (i, j, b)
    ]:
        bs, c, h, w = shape
        x = ops.gaussian(shape, seed=1)
        g = ops.gaussian((bs, cout, h, w), seed=2)
        kernel = ops.gaussian((cout, c, k, k), seed=3, std=0.1)
        # one slice's columns, the output (for the weight gradient, its
        # grad_out copy) and, in (i, j, b) order, the batch-innermost copy of
        # the input (all at most the size of x or g), the slice's GEMM result
        # (its columns over k^2, times the output over the input channels),
        # the flipped or transposed kernel, and 8 KiB of Python objects
        volume = max(x.nbytes, g.nbytes)
        copies = 1 + (k > 1 and h * w < ops.SHORT_PLANE)
        result = ops.COLUMN_BYTES * max(cout, c) // (min(cout, c) * k * k)
        bound = ops.COLUMN_BYTES + copies * volume + result + 2 * kernel.nbytes + 8192
        if k == 3:
            assert 9 * x.nbytes > bound
        for name, call in _kernel_calls(x, kernel, g, padding).items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (shape, name, peak, bound)


def test_check_tensor_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        ops.check_tensor(np.zeros((2, 3, 4), dtype=np.float32), "x")
    with pytest.raises(ShapeError):
        ops.check_tensor(np.zeros((2, 3, 4, 4), dtype=np.int32), "x")
    with pytest.raises(ShapeError):
        ops.check_tensor([[1.0]], "x")


def test_split_concat_channels_roundtrip_exact():
    x = ops.gaussian((2, 6, 4, 4), seed=3)
    a, b = ops.split_channels(x)
    assert a.shape == (2, 3, 4, 4) and b.shape == (2, 3, 4, 4)
    assert a.base is x and b.base is x
    assert_array_equal(np.concatenate([a, b], axis=1), x)


def test_split_channels_requires_even_channels():
    with pytest.raises(ShapeError):
        ops.split_channels(np.zeros((1, 3, 2, 2), dtype=np.float32))


def test_sum_sq_norm():
    assert ops.sum_sq_norm(np.zeros((3, 3))) == 0.0
    x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    assert ops.sum_sq_norm(x) == pytest.approx(14.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 3, 5, 4), (16, 1, 32, 32), (3, 2, 100, 100), (6, 16, 1, 1)])
def test_channel_sums_fold_chunks_in_numpys_order(shape, dtype):
    # one channel, more pixels than numpy's buffer, and 1x1 maps included
    x = (10 * ops.gaussian(shape, seed=8, dtype=np.float64) + 3).astype(dtype)
    want = x.sum(axis=(0, 2, 3))
    for step in (1, 2, len(x)):
        buf = np.empty_like(x[:step])

        def chunks():  # one buffer, refilled for every chunk
            for i in range(0, len(x), step):
                part = buf[: len(x[i : i + step])]
                part[...] = x[i : i + step]
                yield part

        got = ops.channel_sums(chunks())
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), step
        assert got.shape == want.shape and got.base is None


def test_channel_mean_var():
    x = ops.gaussian((3, 4, 5, 5), seed=21, dtype=np.float64)
    mean, var, dev = ops.channel_mean_var(x)
    assert mean.shape == (4,) and var.shape == (4,)
    assert mean.base is None and var.base is None
    assert dev.shape == x.shape and dev.flags.c_contiguous and dev.base is None
    assert dev.tobytes() == (x - mean.reshape(1, -1, 1, 1)).tobytes()
    for ci in range(4):
        vals = x[:, ci].ravel()
        assert mean[ci] == pytest.approx(vals.mean(), abs=1e-12)
        assert var[ci] == pytest.approx(vals.var(), abs=1e-12)


def test_pool_channels_window_order():
    """2x2 spatial window (r0c0, r0c1, r1c0, r1c1) maps to 4 consecutive channels."""
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    y = ops.pool_channels(x)
    assert y.shape == (1, 4, 1, 1)
    assert_array_equal(y.ravel(), np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))


def test_pool_channels_two_input_channels_block_layout():
    # channel ci of the input owns output channels [4*ci, 4*ci+4)
    x = np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)
    y = ops.pool_channels(x)
    assert y.shape == (1, 8, 2, 2)
    assert_array_equal(y[0, 0], np.array([[0.0, 2.0], [8.0, 10.0]], dtype=np.float32))
    assert_array_equal(y[0, 3], np.array([[5.0, 7.0], [13.0, 15.0]], dtype=np.float32))
    assert_array_equal(y[0, 4], np.array([[16.0, 18.0], [24.0, 26.0]], dtype=np.float32))


def test_pool_batch_window_order():
    """Same window order as pool_channels but laid out along the batch axis."""
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    y = ops.pool_batch(x)
    assert y.shape == (4, 1, 1, 1)
    assert_array_equal(y.ravel(), np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))


def test_pool_batch_two_samples_block_layout():
    # sample bi of the input owns output samples [4*bi, 4*bi+4)
    x = np.arange(32, dtype=np.float32).reshape(2, 1, 4, 4)
    y = ops.pool_batch(x)
    assert y.shape == (8, 1, 2, 2)
    assert_array_equal(y[0, 0], np.array([[0.0, 2.0], [8.0, 10.0]], dtype=np.float32))
    assert_array_equal(y[4, 0], np.array([[16.0, 18.0], [24.0, 26.0]], dtype=np.float32))


@settings(max_examples=50, deadline=None)
@given(
    bs=st.integers(1, 3),
    c=st.integers(1, 4),
    hw=st.sampled_from([2, 4, 6]),
    seed=st.integers(0, 2**31 - 1),
)
def test_pool_channels_roundtrip(bs, c, hw, seed):
    x = ops.gaussian((bs, c, hw, hw), seed=seed)
    assert_array_equal(ops.unpool_channels(ops.pool_channels(x)), x)


@settings(max_examples=50, deadline=None)
@given(
    bs=st.integers(1, 3),
    c=st.integers(1, 4),
    hw=st.sampled_from([2, 4, 6]),
    seed=st.integers(0, 2**31 - 1),
)
def test_pool_batch_roundtrip(bs, c, hw, seed):
    x = ops.gaussian((bs, c, hw, hw), seed=seed)
    assert_array_equal(ops.unpool_batch(ops.pool_batch(x)), x)


def test_pool_shape_validation():
    with pytest.raises(ShapeError):
        ops.pool_channels(np.zeros((1, 1, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.pool_batch(np.zeros((1, 1, 4, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.unpool_channels(np.zeros((1, 3, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.unpool_batch(np.zeros((3, 1, 2, 2), dtype=np.float32))


# each shape is one where a reshape alone could permute without copying
@pytest.mark.parametrize("op, shape", [
    ("pool_channels", (2, 3, 2, 2)),
    ("unpool_channels", (2, 12, 1, 1)),
    ("pool_batch", (2, 1, 2, 2)),
    ("unpool_batch", (8, 1, 1, 1)),
])
def test_pool_permutations_own_their_output(op, shape):
    x = memtrack.track(np.arange(np.prod(shape), dtype=np.float32).reshape(shape))
    live = memtrack.live_bytes()
    y = getattr(ops, op)(x)
    assert not np.shares_memory(x, y)
    assert memtrack.live_bytes() == live + y.nbytes


def test_gaussian_deterministic_per_seed():
    a = ops.gaussian((5, 5), seed=123)
    b = ops.gaussian((5, 5), seed=123)
    c = ops.gaussian((5, 5), seed=124)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.float32


def test_gaussian_moments():
    z = ops.gaussian((200000,), seed=0, std=3.0, dtype=np.float64)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 3.0) < 0.05


def test_conv_apply_counting_convention():
    """Forward and backward-input each count one application; weight grad counts none."""
    x, k, b = _conv_inputs(np.float32)
    before = ops.conv_applies()
    y = ops.conv2d_forward(x, k, b, padding=1)
    assert ops.conv_applies() - before == 1
    ops.conv2d_backward_input(y, k, padding=1)
    assert ops.conv_applies() - before == 2
    ops.conv2d_backward_weight(x, y, padding=1)
    assert ops.conv_applies() - before == 2


def test_measure_scope_tracks_peak_and_release():
    allocs = memtrack.allocation_count()
    with memtrack.MeasureScope() as scope:
        base = scope.peak_bytes
        a = ops.gaussian((64, 64), seed=1)
        memtrack.track(a)
        assert scope.peak_bytes >= base + a.nbytes
        peak_after_a = scope.peak_bytes
        del a
        b = ops.gaussian((8, 8), seed=2)
        memtrack.track(b)
    assert scope.peak_bytes == peak_after_a  # peak is monotone within the scope
    assert memtrack.allocation_count() - allocs >= 2


def test_measure_scope_counts_preexisting_live_arrays():
    held = ops.gaussian((128, 128), seed=3)
    memtrack.track(held)
    with memtrack.MeasureScope() as scope:
        pass
    assert scope.peak_bytes >= held.nbytes


def test_a_view_keeps_its_base_live_until_the_view_dies():
    base = memtrack.track(np.zeros((2, 8, 4, 4), dtype=np.float32))
    nbytes = base.nbytes
    half = ops.split_channels(base)[1]
    live = memtrack.live_bytes()
    del base
    assert memtrack.live_bytes() == live
    del half
    assert memtrack.live_bytes() == live - nbytes


def test_conv2d_forward_output_is_tracked():
    x, k, b = _conv_inputs(np.float32)
    with memtrack.MeasureScope() as scope:
        y = ops.conv2d_forward(x, k, b, padding=1)
    assert scope.peak_bytes >= y.nbytes

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from revtrain import memtrack, ops
from revtrain.errors import ConfigError, ShapeError, StateError
from revtrain.layers import (
    BatchPool,
    ChannelPool,
    ClassifierHead,
    Conv2D,
    InvBatchNorm,
    InvConv,
    InvLeakyReLU,
    MaxPool2x2,
    _Cell,
)

from oracles import (
    fd_grad,
    rel_err,
    textbook_bn_affine,
    textbook_bn_backward,
    textbook_bn_inverse,
    where_lrelu_backward,
    where_lrelu_forward,
    where_lrelu_inverse,
)


def _loss_weight(shape, seed):
    return ops.gaussian(shape, seed=seed, dtype=np.float64)


# --- InvBatchNorm ---------------------------------------------------------


def _bn64(channels, gamma=None, beta=None, eps=1e-5, eps_i=0.1):
    bn = InvBatchNorm(channels, eps=eps, eps_i=eps_i, dtype=np.float64)
    if gamma is not None:
        bn.gamma[...] = gamma
    if beta is not None:
        bn.beta[...] = beta
    return bn


def test_bn_forward_unit_input_with_compensating_gamma():
    # gamma = 1 - eps_i makes the effective scale exactly 1, so a zero-mean
    # unit-variance input passes through divided by (1 + eps)
    eps, eps_i = 1e-5, 0.1
    bn = _bn64(3, gamma=1 - eps_i, eps=eps, eps_i=eps_i)
    x = ops.gaussian((8, 3, 6, 6), seed=2, dtype=np.float64)
    x -= x.mean(axis=(0, 2, 3), keepdims=True)
    x /= x.std(axis=(0, 2, 3), keepdims=True)
    y = bn.forward(x, train=True)
    assert rel_err(y, x / (1 + eps)) < 1e-12


def test_bn_scale_floor_never_zero():
    bn = _bn64(2, gamma=0.0, eps_i=0.1)
    x = ops.gaussian((4, 2, 5, 5), seed=4, dtype=np.float64)
    y = bn.forward(x, train=True)
    scale = (y - bn.beta.reshape(1, -1, 1, 1)).std(axis=(0, 2, 3))
    assert_allclose(scale, 0.1 / (np.sqrt(x.var(axis=(0, 2, 3))) + bn.eps) * x.std(axis=(0, 2, 3)), rtol=1e-10)
    assert np.all(scale > 0.09)


def test_bn_forward_output_is_normalized():
    bn = _bn64(4, beta=np.array([1.0, -2.0, 0.5, 0.0]))
    bn.gamma[...] = np.array([1.0, 2.0, 0.3, -1.5])
    x = ops.gaussian((4, 4, 8, 8), seed=3, dtype=np.float64)
    y = bn.forward(x, train=True)
    scale = np.abs(bn.gamma) + bn.eps_i
    centered = (y - bn.beta.reshape(1, -1, 1, 1)) / scale.reshape(1, -1, 1, 1)
    assert np.all(np.abs(centered.mean(axis=(0, 2, 3))) < 1e-6)


def test_bn_inverse_roundtrip_f32():
    bn = InvBatchNorm(3)
    bn.gamma[...] = np.array([1.0, 0.2, 3.0], dtype=np.float32)
    bn.beta[...] = np.array([0.5, -1.0, 2.0], dtype=np.float32)
    x = ops.gaussian((8, 3, 8, 8), seed=5)
    y = bn.forward(x, train=True)
    assert rel_err(bn.inverse(y), x) < 1e-5


def test_bn_inverse_of_beta_is_channel_mean():
    bn = _bn64(3, beta=np.array([1.0, 2.0, 3.0]))
    x = ops.gaussian((4, 3, 4, 4), seed=6, dtype=np.float64)
    bn.forward(x, train=True)
    y = np.broadcast_to(bn.beta.reshape(1, -1, 1, 1), x.shape).copy()
    x_rec = bn.inverse(y)
    want = np.broadcast_to(x.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1), x.shape)
    assert rel_err(x_rec, want) < 1e-12


def test_bn_inverse_without_forward_raises():
    bn = InvBatchNorm(3)
    with pytest.raises(StateError):
        bn.inverse(np.zeros((2, 3, 4, 4), dtype=np.float32))


def test_bn_eval_mode_uses_running_stats():
    bn = InvBatchNorm(2)
    x = (ops.gaussian((16, 2, 8, 8), seed=7, std=2.0, dtype=np.float64) + 3.0).astype(np.float32)
    for _ in range(80):
        bn.forward(x, train=True)
        bn.fold_running_stats()
    y_eval = bn.forward(x, train=False)
    y_train = bn.forward(x, train=True)
    assert rel_err(y_eval, y_train) < 1e-2  # running stats converge to batch stats
    bn2 = InvBatchNorm(2)
    y_fresh = bn2.forward(x, train=False)  # running stats still (0, 1)
    assert rel_err(y_fresh, y_train) > 0.1


def test_bn_running_stats_change_only_in_the_fold():
    bn = InvBatchNorm(3)
    with pytest.raises(StateError):
        bn.fold_running_stats()
    x = ops.gaussian((4, 3, 5, 5), seed=10, std=2.0) + 1.0
    bn.forward(x, train=True)
    assert bn.running_mean.tobytes() == np.zeros(3, np.float32).tobytes()
    assert bn.running_var.tobytes() == np.ones(3, np.float32).tobytes()
    bn.fold_running_stats()
    m = InvBatchNorm.MOMENTUM
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(bn.running_mean, (1 - m) * mean, rtol=1e-6)
    np.testing.assert_allclose(bn.running_var, m + (1 - m) * var, rtol=1e-6)


def test_bn_backward_matches_finite_differences():
    bn = _bn64(2, gamma=np.array([0.8, -1.3]), beta=np.array([0.2, -0.5]))
    x = ops.gaussian((2, 2, 3, 3), seed=8, dtype=np.float64)
    r = _loss_weight(x.shape, seed=9)
    g_in, grads = bn.backward(r, x)

    def loss_x(xv):
        return float((bn.forward(xv, train=True) * r).sum())

    assert rel_err(g_in, fd_grad(loss_x, x.copy())) < 1e-7

    def loss_gamma(gv):
        bn.gamma[...] = gv
        return float((bn.forward(x, train=True) * r).sum())

    def loss_beta(bv):
        bn.beta[...] = bv
        return float((bn.forward(x, train=True) * r).sum())

    g0, b0 = bn.gamma.copy(), bn.beta.copy()
    fd_gamma = fd_grad(loss_gamma, g0.copy())
    bn.gamma[...] = g0
    fd_beta = fd_grad(loss_beta, b0.copy())
    bn.beta[...] = b0
    assert rel_err(grads["gamma"], fd_gamma) < 1e-7
    assert rel_err(grads["beta"], fd_beta) < 1e-7


def test_bn_backward_zero_grad_and_beta_grad():
    bn = _bn64(3)
    x = ops.gaussian((2, 3, 4, 4), seed=10, dtype=np.float64)
    g_in, grads = bn.backward(np.zeros_like(x), x)
    assert not g_in.any() and not grads["gamma"].any() and not grads["beta"].any()
    r = _loss_weight(x.shape, seed=11)
    _, grads = bn.backward(r, x)
    assert_allclose(grads["beta"], r.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_bn_backward_constant_channel_is_finite():
    bn = _bn64(2)
    x = ops.gaussian((2, 2, 3, 3), seed=12, dtype=np.float64)
    x[:, 1] = 7.0  # zero variance channel
    r = _loss_weight(x.shape, seed=13)
    g_in, grads = bn.backward(r, x)
    assert np.isfinite(g_in).all()
    assert np.isfinite(grads["gamma"]).all()


def test_bn_rejects_bad_shapes_and_config():
    with pytest.raises(ConfigError):
        InvBatchNorm(3, eps=0.0)
    bn = InvBatchNorm(3)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((2, 4, 4, 4), dtype=np.float32), train=True)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((1, 3, 1, 1), dtype=np.float32), train=True)


# --- InvLeakyReLU ---------------------------------------------------------


def test_lrelu_forward_inverse_examples():
    lr = InvLeakyReLU(4.0)
    x = np.array([[[[-2.0, 0.0], [1.5, -8.0]]]], dtype=np.float32)
    y = lr.forward(x)
    assert_array_equal(y, np.array([[[[-0.5, 0.0], [1.5, -2.0]]]], dtype=np.float32))
    assert_array_equal(lr.inverse(y), x)


def test_lrelu_identity_on_nonnegative():
    lr = InvLeakyReLU(3.0)
    x = np.abs(ops.gaussian((2, 2, 4, 4), seed=14))
    assert_array_equal(lr.forward(x), x)
    assert_array_equal(lr.inverse(x), x)


def test_lrelu_rejects_non_attenuating_slope():
    with pytest.raises(ConfigError):
        InvLeakyReLU(1.0)
    with pytest.raises(ConfigError):
        InvLeakyReLU(0.5)


@settings(max_examples=40, deadline=None)
@given(n=st.floats(1.01, 50), seed=st.integers(0, 2**31 - 1))
def test_lrelu_roundtrip_property(n, seed):
    lr = InvLeakyReLU(n)
    x = ops.gaussian((2, 3, 4, 4), seed=seed, dtype=np.float64)
    assert rel_err(lr.inverse(lr.forward(x)), x) < 1e-15


def test_lrelu_backward_matches_finite_differences():
    lr = InvLeakyReLU(2.5)
    x = ops.gaussian((2, 3, 4, 4), seed=15, dtype=np.float64)
    x[np.abs(x) < 1e-3] = 0.5  # keep clear of the kink for the FD probe
    r = _loss_weight(x.shape, seed=16)

    def loss(xv):
        return float((lr.forward(xv) * r).sum())

    g, _ = lr.backward(r, x)
    assert rel_err(g, fd_grad(loss, x.copy())) < 1e-8
    g_from_y, _ = lr.backward(r, lr.forward(x))
    assert_array_equal(g, g_from_y)  # output sign carries the same branch


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1.25, 2.0, 3.7])
def test_lrelu_matches_masked_select_bitwise(dtype, n):
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, info.tiny / 4, -info.tiny / 4, info.max, -info.max]
    x = np.concatenate([ops.gaussian((2, 3, 4, 4), seed=17, dtype=dtype).ravel(), special])
    x = x.astype(dtype).reshape(1, 1, 1, -1)
    grad = ops.gaussian(x.shape, seed=18, dtype=dtype)
    lr = InvLeakyReLU(n)
    with np.errstate(over="ignore"):  # the inverse takes -max to -inf, as it should
        pairs = [
            (lr.forward(x), where_lrelu_forward(x, lr.n)),
            (lr.inverse(x), where_lrelu_inverse(x, lr.n)),
            (lr.backward(grad, x)[0], where_lrelu_backward(grad, x, lr.n)),
        ]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# --- InvConv ---------------------------------------------------------------


def test_invconv_zero_kernels_is_identity():
    ic = InvConv(4, k=3)
    for name in ("f_kernel", "g_kernel"):
        ic.params()[name][...] = 0
    x = ops.gaussian((2, 4, 5, 5), seed=17)
    assert_array_equal(ic.forward(x), x)
    assert_array_equal(ic.inverse(x), x)


def test_invconv_params_are_its_branch_convs_arrays():
    ic = InvConv(4, k=3)
    params = ic.params()
    assert list(params) == ["f_kernel", "f_bias", "g_kernel", "g_bias"]
    for got, want in zip(params.values(), (ic.F.kernel, ic.F.bias, ic.G.kernel, ic.G.bias)):
        assert got is want
    # both convs draw from one generator, so their kernels differ
    assert not np.array_equal(ic.F.kernel, ic.G.kernel)


def test_invconv_roundtrip_f32():
    ic = InvConv(8, k=3, rng=ops.default_rng(11))
    x = ops.gaussian((2, 8, 8, 8), seed=11)
    assert rel_err(ic.inverse(ic.forward(x)), x) < 1e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.sampled_from([1, 3]))
def test_invconv_roundtrip_property_f64(seed, k):
    ic = InvConv(4, k=k, rng=ops.default_rng(seed), dtype=np.float64)
    x = ops.gaussian((2, 4, 6, 6), seed=seed, dtype=np.float64)
    assert rel_err(ic.inverse(ic.forward(x)), x) < 1e-12


def test_invconv_backward_matches_finite_differences():
    ic = InvConv(4, k=3, rng=ops.default_rng(18), dtype=np.float64)
    x = ops.gaussian((2, 4, 5, 5), seed=19, dtype=np.float64)
    r = _loss_weight((2, 4, 5, 5), seed=20)

    def loss_x(xv):
        return float((ic.forward(xv) * r).sum())

    gx, grads = ic.backward(r, x)
    assert rel_err(gx, fd_grad(loss_x, x.copy())) < 1e-7

    for name in ("f_kernel", "f_bias", "g_kernel", "g_bias"):
        param = ic.params()[name]
        orig = param.copy()

        def loss_p(pv, _param=param):
            _param[...] = pv
            return float((ic.forward(x) * r).sum())

        fd = fd_grad(loss_p, orig.copy())
        param[...] = orig
        assert rel_err(grads[name], fd) < 1e-7, name


def test_invconv_backward_with_cached_output_matches():
    ic = InvConv(6, k=3, rng=ops.default_rng(21), dtype=np.float64)
    x = ops.gaussian((2, 6, 4, 4), seed=22, dtype=np.float64)
    y = ic.forward(x)
    r = _loss_weight(y.shape, seed=23)
    gx_a, grads_a = ic.backward(r, x)
    gx_b, grads_b = ic.backward(r, x, y=y)
    assert rel_err(gx_b, gx_a) < 1e-12
    for name in grads_a:
        assert rel_err(grads_b[name], grads_a[name]) < 1e-12


def test_invconv_backward_reads_only_x2_and_y1():
    # the halves alone, in their own buffers, give the same bits
    ic = InvConv(6, k=3, rng=ops.default_rng(24), dtype=np.float64)
    x = ops.gaussian((2, 6, 4, 4), seed=25, dtype=np.float64)
    y = ic.forward(x)
    r = _loss_weight(y.shape, seed=26)
    gx_a, grads_a = ic.backward(r, x, y)
    gx_b, grads_b = ic.backward(r, x2=ops.split_channels(x)[1].copy(),
                                y1=ops.split_channels(y)[0].copy())
    assert gx_b.tobytes() == gx_a.tobytes()
    for name in grads_a:
        assert grads_b[name].tobytes() == grads_a[name].tobytes(), name


def test_invconv_rejects_bad_construction():
    with pytest.raises(ShapeError):
        InvConv(5)
    with pytest.raises(ConfigError):
        InvConv(4, k=2)


# --- pooling layers ---------------------------------------------------------


def test_channel_pool_layer_shapes_and_roundtrip():
    x = ops.gaussian((2, 3, 4, 4), seed=24)
    cp = ChannelPool()
    y = cp.forward(x)
    assert y.shape == (2, 12, 2, 2)
    assert_array_equal(cp.inverse(y), x)
    g, _ = cp.backward(y)
    assert_array_equal(g, x)  # permutation backward is the inverse permutation


def test_batch_pool_layer_shapes_and_roundtrip():
    x = ops.gaussian((2, 3, 4, 4), seed=25)
    bp = BatchPool()
    y = bp.forward(x)
    assert y.shape == (8, 3, 2, 2)
    assert_array_equal(bp.inverse(y), x)
    g, _ = bp.backward(y)
    assert_array_equal(g, x)


def test_maxpool_forward_and_backward():
    mp = MaxPool2x2()
    x = np.array([[[[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 8.0, 7.0],
                    [0.0, -1.0, 9.0, 1.0], [2.0, 1.0, 0.0, 3.0]]]], dtype=np.float32)
    y = mp.forward(x)
    assert_array_equal(y[0, 0], np.array([[4.0, 8.0], [2.0, 9.0]], dtype=np.float32))
    g = np.array([[[[10.0, 20.0], [30.0, 40.0]]]], dtype=np.float32)
    gx, _ = mp.backward(g, x)
    want = np.zeros_like(x)
    want[0, 0, 1, 1] = 10.0
    want[0, 0, 1, 2] = 20.0
    want[0, 0, 3, 0] = 30.0
    want[0, 0, 2, 2] = 40.0
    assert_array_equal(gx, want)


def test_maxpool_backward_matches_finite_differences():
    mp = MaxPool2x2()
    x = ops.gaussian((2, 3, 4, 4), seed=26, dtype=np.float64)
    r = _loss_weight((2, 3, 2, 2), seed=27)

    def loss(xv):
        return float((mp.forward(xv) * r).sum())

    gx, _ = mp.backward(r, x)
    assert rel_err(gx, fd_grad(loss, x.copy())) < 1e-7


# --- Conv2D layer ------------------------------------------------------------


def test_conv_layer_backward_matches_finite_differences():
    conv = Conv2D(3, 4, k=3, rng=ops.default_rng(28), dtype=np.float64)
    x = ops.gaussian((2, 3, 8, 8), seed=29, dtype=np.float64)
    y = conv.forward(x)
    r = _loss_weight(y.shape, seed=30)
    gx, grads = conv.backward(r, x)

    def loss_x(xv):
        return float((conv.forward(xv) * r).sum())

    assert rel_err(gx, fd_grad(loss_x, x.copy())) < 1e-7
    k0 = conv.kernel.copy()

    def loss_k(kv):
        conv.kernel[...] = kv
        return float((conv.forward(x) * r).sum())

    fd_k = fd_grad(loss_k, k0.copy())
    conv.kernel[...] = k0
    assert rel_err(grads["kernel"], fd_k) < 1e-7
    assert_allclose(grads["bias"], r.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv_layer_backward_frees_a_handed_over_input_before_its_input_gradient():
    conv = Conv2D(4, 4, k=3, rng=ops.default_rng(34))
    cell = _Cell(ops.gaussian((2, 4, 8, 8), seed=35))
    grad = ops.gaussian((2, 4, 8, 8), seed=36)
    with memtrack.MeasureScope() as scope:
        before = memtrack.live_bytes()
        gx, grads = conv.backward(grad, cell)
    assert gx.shape == grad.shape and cell.v is None
    # the input gradient, as large as x, takes x's place
    assert scope.peak_bytes - before <= grads["kernel"].nbytes + grads["bias"].nbytes


# --- ClassifierHead ----------------------------------------------------------


def test_head_identity_weights_passthrough():
    head = ClassifierHead(3, 3, group_size=1, dtype=np.float64)
    head.weight[...] = np.eye(3)
    head.bias[...] = 0
    x = np.arange(6, dtype=np.float64).reshape(2, 3, 1, 1)
    logits = head.forward(x)
    assert_array_equal(logits, x[:, :, 0, 0])


def test_head_group_mean_matches_single_sample():
    rng = ops.default_rng(31)
    head4 = ClassifierHead(5, 10, group_size=4, rng=ops.default_rng(32))
    head1 = ClassifierHead(5, 10, group_size=1, rng=ops.default_rng(32))
    single = ops.gaussian((1, 5, 2, 2), seed=33)
    group = np.ascontiguousarray(np.broadcast_to(single, (4, 5, 2, 2)))
    assert rel_err(head4.forward(group), head1.forward(single)) < 1e-6


def test_head_backward_matches_finite_differences():
    head = ClassifierHead(4, 3, group_size=2, rng=ops.default_rng(34), dtype=np.float64)
    x = ops.gaussian((4, 4, 2, 2), seed=35, dtype=np.float64)
    r = _loss_weight((2, 3), seed=36)

    def loss_x(xv):
        return float((head.forward(xv) * r).sum())

    head.forward(x)
    gx, grads = head.backward(r)
    assert rel_err(gx, fd_grad(loss_x, x.copy())) < 1e-8

    w0 = head.weight.copy()

    def loss_w(wv):
        head.weight[...] = wv
        return float((head.forward(x) * r).sum())

    fd_w = fd_grad(loss_w, w0.copy())
    head.weight[...] = w0
    assert rel_err(grads["weight"], fd_w) < 1e-8
    assert_allclose(grads["bias"], r.sum(axis=0), rtol=1e-12)


def test_head_rejects_indivisible_batch():
    head = ClassifierHead(4, 3, group_size=4)
    with pytest.raises(ShapeError):
        head.forward(np.zeros((6, 4, 2, 2), dtype=np.float32))


# --- shared invariants -------------------------------------------------------


def test_invertible_layers_reconstruction_error():
    """Round-trip error < 1e-5 rel (f32); bit-exact for the pooling permutations."""
    x = ops.gaussian((4, 8, 8, 8), seed=37)
    bn = InvBatchNorm(8)
    bn.gamma[...] = (ops.gaussian((8,), seed=38, std=0.3, dtype=np.float64) + 1.0).astype(np.float32)
    bn.forward(x, train=True)
    checks = [
        (bn, bn.inverse(bn.forward(x, train=True))),
        (InvLeakyReLU(2.0), None),
        (InvConv(8, rng=ops.default_rng(39)), None),
        (ChannelPool(), None),
        (BatchPool(), None),
    ]
    for layer, pre in checks:
        rec = pre if pre is not None else layer.inverse(layer.forward(x))
        err = rel_err(rec, x)
        if layer.kind in ("pool_c", "pool_b"):
            assert err == 0.0, layer.kind
        else:
            assert err < 1e-5, layer.kind


# --- elementwise kernels: bits and scratch ----------------------------------
# InvBatchNorm and InvLeakyReLU run the oracles' operations in reused
# buffers, in place when handed a _Cell.  Each case holds a plain tensor or
# a split_channels view, bare or handed over.


ELEMENTWISE_CASES = pytest.mark.parametrize(
    "dtype, bs, view",
    [(d, bs, v) for d in (np.float32, np.float64) for bs in (1, 16) for v in (False, True)],
)


def _kernel_input(dtype, bs, view, seed):
    """(bs, 3, 5, 4): a plain tensor, or the upper channel half of a 6-channel one."""
    x = ops.gaussian((bs, 6 if view else 3, 5, 4), seed=seed, dtype=dtype)
    return ops.split_channels(x)[1] if view else x


def _handovers(a):
    """(argument, what an oracle reads): a bare, and a copy of a in a _Cell."""
    return [(a, a), (_Cell(a.copy()), a.copy())]


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@ELEMENTWISE_CASES
def test_bn_matches_textbook_expressions_bitwise(dtype, bs, view):
    bn = InvBatchNorm(3, dtype=dtype)
    bn.gamma[...] = [0.7, -1.3, 0.0]
    bn.beta[...] = [0.2, -0.5, 1.1]
    consts = (bn.gamma, bn.beta, bn.eps, bn.eps_i)
    x = _kernel_input(dtype, bs, view, seed=40)
    grad = _kernel_input(dtype, bs, view, seed=41)
    y = bn.forward(x)
    mean, var = bn.cached_stats
    _same_bits(y, textbook_bn_affine(x, mean, var, *consts))
    _same_bits(bn.forward_cached(x), y)
    _same_bits(
        bn.forward(x, train=False),
        textbook_bn_affine(x, bn.running_mean, bn.running_var, *consts),
    )
    bn.forward(x)
    for arg, ref in _handovers(y) + [(x, x)]:
        _same_bits(bn.inverse(arg), textbook_bn_inverse(ref, mean, var, *consts))
    for arg, ref in _handovers(grad):
        gx, pg = bn.backward(arg, x)
        want = textbook_bn_backward(ref, x, bn.gamma, bn.eps, bn.eps_i)
        for got, w in zip((gx, pg["gamma"], pg["beta"]), want):
            _same_bits(got, w)
    # an input handed over holds u, cached or recomputed, with the same bits
    want = textbook_bn_backward(grad, x, bn.gamma, bn.eps, bn.eps_i)
    for cached in (False, True):
        for arg, _ in _handovers(grad):
            gx, pg = bn.backward(arg, _Cell(x.copy()), cached=cached)
            for got, w in zip((gx, pg["gamma"], pg["beta"]), want):
                _same_bits(got, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("view", [False, True])
def test_bn_backward_folds_image_slices_bitwise(dtype, view, monkeypatch):
    # 7 images in slices of 3, 3 and 1 reduce to the whole-volume sums' bits
    x = _kernel_input(dtype, 7, view, seed=46)
    grad = _kernel_input(dtype, 7, view, seed=47)
    monkeypatch.setattr(ops, "BN_SLICE_BYTES", 3 * x[0].nbytes)
    bn = InvBatchNorm(3, dtype=dtype)
    bn.gamma[...] = [0.7, -1.3, 0.0]
    for arg, ref in _handovers(grad):
        gx, pg = bn.backward(arg, x)
        want = textbook_bn_backward(ref, x, bn.gamma, bn.eps, bn.eps_i)
        for got, w in zip((gx, pg["gamma"], pg["beta"]), want):
            _same_bits(got, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 1, 5, 4), (9, 3, 1, 1), (5, 3, 7, 9), (64, 256, 4, 4)])
def test_bn_train_forward_normalizes_its_own_deviations_bitwise(dtype, shape):
    # one channel, 1x1 maps, odd sizes, and a batch of several product slices
    x = (3 * ops.gaussian(shape, seed=48, dtype=np.float64) + 1.5).astype(dtype)
    bn = InvBatchNorm(shape[1], dtype=dtype)
    bn.gamma[...] = ops.gaussian(shape[1:2], seed=49, dtype=dtype)
    bn.beta[...] = ops.gaussian(shape[1:2], seed=50, dtype=dtype)
    y = bn.forward(x)
    mean, var = bn.cached_stats
    _same_bits(mean, x.mean(axis=(0, 2, 3)))
    _same_bits(var, np.square(x - mean.reshape(1, -1, 1, 1)).mean(axis=(0, 2, 3)))
    _same_bits(var, x.var(axis=(0, 2, 3)))
    _same_bits(y, textbook_bn_affine(x, mean, var, bn.gamma, bn.beta, bn.eps, bn.eps_i))


@ELEMENTWISE_CASES
def test_lrelu_matches_masked_select_in_every_layout(dtype, bs, view):
    lr = InvLeakyReLU(2.5)
    x = _kernel_input(dtype, bs, view, seed=42)
    grad = _kernel_input(dtype, bs, view, seed=43)
    for arg, ref in _handovers(x):
        _same_bits(lr.forward(arg), where_lrelu_forward(ref, lr.n))
    for arg, ref in _handovers(x):
        _same_bits(lr.inverse(arg), where_lrelu_inverse(ref, lr.n))
    for arg, ref in _handovers(grad):
        _same_bits(lr.backward(arg, x)[0], where_lrelu_backward(ref, x, lr.n))
    for arg, ref in _handovers(grad):  # the gradient in a handed-over input
        _same_bits(lr.backward(arg, _Cell(x.copy()))[0], where_lrelu_backward(ref, x, lr.n))


def _traced_peak(call):
    """Bytes call allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("view", [False, True])
def test_elementwise_scratch_stays_within_budget(dtype, view):
    bs, c = 16, 8
    full = ops.gaussian((bs, 2 * c if view else c, 32, 32), seed=44, dtype=dtype)
    x = ops.split_channels(full)[1] if view else full
    grad = ops.gaussian(x.shape, seed=45, dtype=dtype)
    vol = grad.nbytes
    item = grad.itemsize
    elems = vol // item // bs  # one batch element's slice
    objects = 8192  # Python objects and views
    # numpy reductions buffer up to np.getbufsize() elements per operand
    vectors = 2 * np.getbufsize() * item + 32 * c * item
    bn = InvBatchNorm(c, dtype=dtype)
    # u, one image slice of a product, and the gradient; the one-expression
    # form (tests/oracles.py) holds about 5 volumes
    product = max(ops.BN_SLICE_BYTES // (elems * item), 1) * elems * item
    assert product < vol
    # the train forward: its output, which holds the deviations, and one
    # image slice of their squares
    assert _traced_peak(lambda: bn.forward(x)) <= vol + product + vectors + objects
    y = bn.forward(x)
    assert _traced_peak(lambda: bn.backward(grad, x)) <= 2 * vol + product + vectors + objects
    owned = grad.copy()
    assert _traced_peak(lambda: bn.backward(_Cell(owned), x)) <= vol + product + vectors + objects
    # handed its input too, it builds u there: no volume besides the two
    for cached in (False, True):
        owned, owned_x = grad.copy(), x.copy()
        assert _traced_peak(lambda: bn.backward(_Cell(owned), _Cell(owned_x), cached=cached)) \
            <= product + vectors + objects
    owned = y.copy()
    assert _traced_peak(lambda: bn.inverse(_Cell(owned))) <= vectors + objects
    lr = InvLeakyReLU(2.0)
    y = lr.forward(x)
    # per batch element: y * n for the inverse; for the gradient the sign
    # mask, the intp indices take converts it to, and the looked-up divisors
    owned = y.copy()
    assert _traced_peak(lambda: lr.inverse(_Cell(owned))) <= elems * item + objects
    owned = x.copy()
    assert _traced_peak(lambda: lr.forward(_Cell(owned))) <= elems * item + objects
    owned = grad.copy()
    budget = elems * (1 + np.dtype(np.intp).itemsize + item) + objects
    assert _traced_peak(lambda: lr.backward(_Cell(owned), x)) <= budget
    owned = x.copy()  # the gradient in its input, beside a bare output gradient
    assert _traced_peak(lambda: lr.backward(grad, _Cell(owned))) <= budget

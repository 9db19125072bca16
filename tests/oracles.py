"""Independent reference implementations used as test oracles.

These are written for clarity, not speed: direct nested loops, central
finite differences, and the whole-batch im2col convolution that ops.py's
chunked column kernels must match exactly. Product code must never import
from here.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def loop_conv2d(x, kernel, bias=None, stride=1, padding=0):
    """Direct 6-nested-loop cross-correlation, (bs,cin,h,w) x (cout,cin,kh,kw)."""
    bs, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, cout, oh, ow), dtype=x.dtype)
    for b in range(bs):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[b, ci, oy * stride + ky, ox * stride + kx] * kernel[co, ci, ky, kx]
                    out[b, co, oy, ox] = acc + (bias[co] if bias is not None else 0.0)
    return out


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(b.ravel())
    if denom == 0:
        return np.linalg.norm(a.ravel())
    return np.linalg.norm((a - b).ravel()) / denom


# -- im2col reference -------------------------------------------------------------
# Whole-batch column matrix via a sliding-window transpose, one BLAS matmul per
# call. ops.py must reproduce these bit for bit: both reduce every output over
# the same (channel, ky, kx) column order in a single GEMM.


def _pad_hw(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def im2col(xp, kh, kw, stride):
    """(bs, cin, H, W) -> column matrix (bs*oh*ow, cin*kh*kw), plus (oh, ow)."""
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    bs, cin, oh, ow = win.shape[:4]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(bs * oh * ow, cin * kh * kw)
    return col, oh, ow


def im2col_conv2d(x, kernel, bias=None, stride=1, padding=0):
    bs = x.shape[0]
    cout, _, kh, kw = kernel.shape
    col, oh, ow = im2col(_pad_hw(x, padding), kh, kw, stride)
    out = col @ kernel.reshape(cout, -1).T
    out = out.reshape(bs, oh, ow, cout).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return np.ascontiguousarray(out)


def im2col_conv2d_backward_input(grad_out, kernel, stride, padding, input_hw):
    """Dilate by the stride, full-correlate with the flipped transposed kernel, crop."""
    bs, cout, oh, ow = grad_out.shape
    _, cin, kh, kw = kernel.shape
    h, w = input_hw
    if stride > 1:
        g = np.zeros((bs, cout, (oh - 1) * stride + 1, (ow - 1) * stride + 1), grad_out.dtype)
        g[:, :, ::stride, ::stride] = grad_out
    else:
        g = grad_out
    k_t = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].swapaxes(0, 1))
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    col, gh, gw = im2col(gp, kh, kw, 1)
    out = col @ k_t.reshape(cin, -1).T
    out = out.reshape(bs, gh, gw, cin).transpose(0, 3, 1, 2)
    src = out[:, :, padding : padding + h, padding : padding + w]
    gx = np.zeros((bs, cin, h, w), dtype=grad_out.dtype)
    gx[:, :, : src.shape[2], : src.shape[3]] = src
    return gx


def im2col_conv2d_backward_weight(x, grad_out, stride, padding, kernel_hw):
    bs, cin = x.shape[:2]
    cout, oh, ow = grad_out.shape[1:]
    kh, kw = kernel_hw
    col, _, _ = im2col(_pad_hw(x, padding), kh, kw, stride)
    g_mat = grad_out.transpose(0, 2, 3, 1).reshape(bs * oh * ow, cout)
    gk = (col.T @ g_mat).reshape(cin, kh, kw, cout).transpose(3, 0, 1, 2)
    return np.ascontiguousarray(gk), grad_out.sum(axis=(0, 2, 3))


# -- leaky ReLU with a sign mask ---------------------------------------------------
# Masked-select forms of InvLeakyReLU. The layer's max/min and divisor lookup
# must reproduce them bit for bit, signed zeros and NaN included.


def where_lrelu_forward(x, n):
    return np.where(x > 0, x, x / n)


def where_lrelu_inverse(y, n):
    return np.where(y > 0, y, y * n)


def where_lrelu_backward(grad, sign_source, n):
    return np.where(sign_source > 0, grad, grad / n)


# -- batch norm as whole-tensor expressions ----------------------------------------
# The textbook forms of InvBatchNorm, one numpy expression per map. The layer
# evaluates the same operations in the same order into reused buffers, so it
# must reproduce these bit for bit. scale = |gamma| + eps_i.


def _col(v):
    return v.reshape(1, -1, 1, 1)


def textbook_bn_affine(x, mean, var, gamma, beta, eps, eps_i):
    denom = np.sqrt(var) + eps
    scale = np.abs(gamma) + eps_i
    return _col(scale) * (x - _col(mean)) / _col(denom) + _col(beta)


def textbook_bn_inverse(y, mean, var, gamma, beta, eps, eps_i):
    denom = np.sqrt(var) + eps
    scale = np.abs(gamma) + eps_i
    return (y - _col(beta)) / _col(scale) * _col(denom) + _col(mean)


def textbook_bn_backward(grad_out, x, gamma, eps, eps_i):
    """(input gradient, gamma gradient, beta gradient) of the train-mode map."""
    axes = (0, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    sqrt_v = np.sqrt(var)
    denom = sqrt_v + eps
    u = (x - mean) / denom
    grad_beta = grad_out.sum(axis=axes)
    sign = np.where(gamma >= 0, 1.0, -1.0).astype(x.dtype)
    grad_gamma = sign * (grad_out * u).sum(axis=axes)
    gu = grad_out * _col(np.abs(gamma) + eps_i)
    inv_sqrt_v = np.zeros_like(sqrt_v)
    np.divide(1.0, sqrt_v, out=inv_sqrt_v, where=sqrt_v > 0)
    gu_mean = gu.mean(axis=axes, keepdims=True)
    guu_mean = (gu * u).mean(axis=axes, keepdims=True)
    gx = (gu - gu_mean) / denom - u * guu_mean * inv_sqrt_v
    return gx, grad_gamma, grad_beta


def oneshot_synthesize_cifar_like(root, seed=0, noise_std=25.0):
    """data.synthesize_cifar_like drawing each file's noise in one call and
    holding the whole file in memory: the layout chunked synthesis must match
    byte for byte."""
    from revtrain import data, ops

    root.mkdir(parents=True, exist_ok=True)
    n = data.RECORDS_PER_FILE
    rng = ops.default_rng(seed)
    protos = data._class_prototypes(rng)
    for name in data.TRAIN_FILES + (data.TEST_FILE,):
        labels = rng.integers(0, data.NUM_CLASSES, size=n)
        noise = rng.normal(0.0, noise_std, size=(n, *data.IMAGE_SHAPE))
        images = np.clip(protos[labels] + noise, 0, 255).astype(np.uint8)
        records = np.empty((n, data.RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = labels
        records[:, 1:] = images.reshape(n, data.PIXELS_PER_RECORD)
        (root / name).write_bytes(records.tobytes())
    return root


def whole_split_channel_constants(images):
    """Per-channel mean and std over the whole split's float32 copy."""
    scaled = images.astype(np.float32) / 255.0
    return scaled.mean(axis=(0, 2, 3)), scaled.std(axis=(0, 2, 3))

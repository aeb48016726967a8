"""Minimal numpy layer library: explicit forward passes with caches and
hand-derived backward passes, dtype-preserving so gradient checks can run
in float64 while training runs in float32.

Every layer computes in the one dtype of its input, params and statistics:
a `checkpoint.Module` holds all its tensors in one dtype and casts its input
to it. The layers' constants are Python floats, which never promote an array
under NumPy's promotion rules."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the variance floor of layer norm and of batch norm, training and folded alike
EPS = 1e-5
# the weight of each training batch's statistics in batch norm's running ones
BN_MOMENTUM = 0.1


def init_linear(rng: np.random.Generator, fan_out: int, fan_in: int, dtype=np.float32):
    """Scaled-uniform fan-in init; returns (weight (out,in), bias (out,))."""
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype)
    b = np.zeros(fan_out, dtype=dtype)
    return w, b


# ---------------------------------------------------------------------------
# Pointwise


def _normal_cdf(x, out=None):
    """Phi(x) = (erf(x / sqrt 2) + 1) * 0.5, written into `out` if given."""
    cdf = erf(x / SQRT2, out=out)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x, cdf=None):
    """Exact Gaussian-CDF GELU: x * Phi(x). `cdf`, if given, is a buffer
    shaped like x that receives Phi(x) for `gelu_backward` to reuse."""
    return x * _normal_cdf(x, out=cdf)


def gelu_backward(dout, x, cdf=None):
    """`cdf` is the Phi(x) that `gelu` wrote; it is recomputed if None."""
    if cdf is None:
        cdf = _normal_cdf(x)
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d *= INV_SQRT_2PI                   # phi(x)
    d *= x
    d += cdf
    # in place unless dout's dtype is wider, which promotes as `dout * d` does
    return np.multiply(d, dout, out=d if d.dtype == np.result_type(d, dout) else None)


def relu(x, out=None):
    """max(x, 0), written into `out` if given: the eval conv stack passes the
    conv output it owns."""
    return np.maximum(x, 0, out=out)


def relu_backward(dout, x):
    return dout * (x > 0)


def dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout; returns (out, mask). rate=0 is the identity."""
    if rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


# ---------------------------------------------------------------------------
# Linear


def linear(x, w, b):
    """x: (..., in), w: (out, in), b: (out,)."""
    y = x @ w.T
    y += b
    return y


def linear_backward(dout, x, w):
    dx = dout @ w
    dw = dout.reshape(-1, dout.shape[-1]).T @ x.reshape(-1, x.shape[-1])
    db = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer norm (over the last axis)


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS)
    xhat = xc
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, (xhat, inv, gamma)


def layer_norm_backward(dout, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dgamma = (dout * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dout.reshape(-1, d).sum(axis=0)
    dxhat = dout * gamma
    dx = inv / d * (d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Softmax (over the last axis) / multi-head self-attention


def softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(dout, s):
    d = dout * s
    np.subtract(dout, d.sum(axis=-1, keepdims=True), out=d)
    d *= s
    return d


def _split_heads(z, n_heads: int):
    """(N, T, d) -> (N, h, T, d / h)."""
    n, t, d = z.shape
    return z.reshape(n, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(z):
    """(N, h, T, dh) -> (N, T, h * dh), the inverse of `_split_heads`."""
    n, h, t, dh = z.shape
    return z.transpose(0, 2, 1, 3).reshape(n, t, h * dh)


def attention(x, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int, rows=slice(None)):
    """Multi-head self-attention over (N, T, d) -> (out (N, len(rows), d),
    cache): only the query rows `rows` attend, to the keys of every row."""
    q, k, v = linear(x[:, rows], wq, bq), linear(x, wk, bk), linear(x, wv, bv)
    qh, kh, vh = (_split_heads(z, n_heads) for z in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    attn = softmax(scores)
    merged = _merge_heads(attn @ vh)
    out = linear(merged, wo, bo)
    cache = (x, qh, kh, vh, attn, merged, wq, wk, wv, wo, n_heads, scale, rows)
    return out, cache


def attention_backward(dout, cache):
    x, qh, kh, vh, attn, merged, wq, wk, wv, wo, n_heads, scale, rows = cache
    dmerged, dwo, dbo = linear_backward(dout, merged, wo)
    dctx = _split_heads(dmerged, n_heads)
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = softmax_backward(dattn, attn)
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dxq, dwq, dbq = linear_backward(_merge_heads(dqh), x[:, rows], wq)
    dxk, dwk, dbk = linear_backward(_merge_heads(dkh), x, wk)
    dxv, dwv, dbv = linear_backward(_merge_heads(dvh), x, wv)
    # (dxk + dxq) + dxv: with every row, the bytes of (dxq + dxk) + dxv
    dx = dxk
    dx[:, rows] += dxq
    dx += dxv
    grads = {"wq": dwq, "bq": dbq, "wk": dwk, "bk": dbk,
             "wv": dwv, "bv": dbv, "wo": dwo, "bo": dbo}
    return dx, grads


# ---------------------------------------------------------------------------
# Sliding windows, shared by convolution and pooling


def _windows(x, k, stride, ho, wo):
    """The k[0]*k[1] strided views x[:, :, i::stride, j::stride], each
    (N, C, ho, wo), one per window offset (i, j) in row-major order."""
    return [x[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            for i in range(k[0]) for j in range(k[1])]


# ---------------------------------------------------------------------------
# 2D convolution via im2col: stride 1, "same" zero padding (kh // 2, kw // 2)


def conv2d(x, w, b=None):
    """x: (N,C,H,W), w: (Cout,C,kh,kw), b: (Cout,) or None -> out (N,Cout,H,W)."""
    n, c, h, wd = x.shape
    cout, cin, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    cols = np.empty((n, c, kh * kw, h, wd), dtype=x.dtype)
    for k, view in enumerate(_windows(xp, (kh, kw), 1, h, wd)):
        cols[:, :, k] = view
    cols = cols.reshape(n, c * kh * kw, h * wd)
    out = np.matmul(w.reshape(cout, -1), cols)
    if b is not None:
        out += b[None, :, None]
    return out.reshape(n, cout, h, wd), (x, cols, w)


def _shift(size, d):
    """(to, from): the slices that add a plane shifted by d along an axis of
    `size` into an unshifted one, dropping what falls off either edge."""
    keep = max(size - abs(d), 0)
    return slice(max(d, 0), max(d, 0) + keep), slice(max(-d, 0), max(-d, 0) + keep)


def conv2d_param_backward(dout, cache):
    """The dw of `conv2d_backward` without the input gradient, which no
    caller of a first layer reads."""
    _, cols, w = cache
    dflat = dout.reshape(dout.shape[0], w.shape[0], -1)
    # cols @ dflat^T has C*kh*kw rows, not Cout, so a small Cout does not
    # leave BLAS's row tiles half empty. Each entry sums the same h*w
    # products as dflat @ cols^T; whether in the same order is up to the
    # BLAS kernels, which pick by CPU
    return np.matmul(cols, dflat.transpose(0, 2, 1)).sum(axis=0).T.reshape(w.shape)


def conv2d_backward(dout, cache):
    """(dx, dw, db); db is the gradient of a bias, if the conv had one."""
    x, cols, w = cache
    n, c, h, wd = x.shape
    cout, cin, kh, kw = w.shape
    dw = conv2d_param_backward(dout, cache)
    dflat = dout.reshape(n, cout, -1)
    dcols = np.matmul(w.reshape(cout, -1).T, dflat)
    dcols = dcols.reshape(n, c, kh * kw, h, wd)
    # col2im into the unpadded gradient: window (i, j) feeds input row
    # y + i - kh // 2 and column z + j - kw // 2, in the k order of `_windows`
    dx = np.zeros((n, c, h, wd), dtype=dout.dtype)
    for k in range(kh * kw):
        (ty, fy), (tz, fz) = _shift(h, k // kw - kh // 2), _shift(wd, k % kw - kw // 2)
        dx[:, :, ty, tz] += dcols[:, :, k, fy, fz]
    return dx, dw, dflat.sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# Batch norm over (N, H, W) per channel


def batch_norm2d(x, gamma, beta, running_mean, running_var, train: bool):
    """Training batch norm: returns (out, cache) and normalizes by the
    batch's statistics. It centres x once, for both the variance (squared,
    summed and divided as `np.var` does) and `xhat`, writes its temporaries
    in place and updates the running stats in place. Eval batch norm is a
    fixed affine map that `fold_batch_norm2d` folds into the conv before it,
    so `train=False` is an error."""
    if not train:
        raise ValueError("eval batch norm is folded into the conv weights by "
                         "nn.fold_batch_norm2d; batch_norm2d runs in training only")
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    xc = x - mu
    var = np.square(xc).mean(axis=(0, 2, 3))
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu.reshape(-1)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + EPS)
    xhat = xc
    xhat *= inv[None, :, None, None]
    out = xhat * gamma[None, :, None, None]
    out += beta[None, :, None, None]
    return out, (xhat, inv, gamma)


def fold_batch_norm2d(w, gamma, beta, running_mean, running_var):
    """(w', b') of the bias-free `conv2d(w)` followed by eval batch norm, as
    new arrays: w' = w * s and b' = beta - running_mean * s per output
    channel, with s = gamma / sqrt(running_var + EPS)."""
    s = gamma / np.sqrt(running_var + EPS)
    return w * s[:, None, None, None], beta - running_mean * s


def batch_norm2d_backward(dout, cache):
    xhat, inv, gamma = cache
    m = dout.shape[0] * dout.shape[2] * dout.shape[3]
    t = dout * xhat
    dgamma = t.sum(axis=(0, 2, 3))
    dbeta = dout.sum(axis=(0, 2, 3))
    dxhat = dout * gamma[None, :, None, None]
    np.multiply(dxhat, xhat, out=t)
    s2 = t.sum(axis=(0, 2, 3))
    s1 = dxhat.sum(axis=(0, 2, 3))
    np.multiply(xhat, s2[None, :, None, None], out=t)
    # inv / m * (m * dxhat - s1 - xhat * s2), in that order
    dx = dxhat
    dx *= m
    dx -= s1[None, :, None, None]
    dx -= t
    dx *= (inv / m)[None, :, None, None]
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# 2x2 pooling over the four window corners (truncates odd trailing rows/cols)


def _corners(x):
    return _windows(x, (2, 2), 2, x.shape[2] // 2, x.shape[3] // 2)


def avg_pool2d(x):
    a, b, c, d = _corners(x)
    # summed in pairs, as np.mean sums a window when the output is wider
    # than one column; a + b + c + d rounds differently
    out = a + b
    out += c + d
    out /= 4
    return out, x.shape


def avg_pool2d_backward(dout, shape):
    dx = np.zeros(shape, dtype=dout.dtype)
    quarter = dout * 0.25
    for view in _corners(dx):
        view[...] = quarter
    return dx


def max_pool2d(x):
    a, b, c, d = _corners(x)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return out, (x, out)


def max_pool2d_backward(dout, cache):
    """Each window's gradient goes to its first corner, in row-major order,
    that equals the max: the corner `argmax` picks."""
    x, out = cache
    dx = np.zeros(x.shape, dtype=dout.dtype)
    free = np.ones(out.shape, dtype=bool)
    for xv, dv in zip(_corners(x), _corners(dx)):
        hit = free & (xv == out)
        np.copyto(dv, dout, where=hit)
        free &= ~hit
    return dx

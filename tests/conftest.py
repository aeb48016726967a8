import math

import numpy as np
import pytest
from scipy.special import erf

from zsat import nn


def fd_gradcheck(params: dict, forward, grads_fn, n_coords: int = 30,
                 h: float = 1e-5, seed: int = 1, floor: float = 1e-6) -> float:
    """Max relative error between analytic gradients and central finite
    differences over randomly sampled coordinates.

    `forward()` returns the scalar loss for the current parameter values;
    `grads_fn()` returns the analytic gradient dict for the same values. The
    relative-error denominator is floored so coordinates whose true gradient
    is analytically zero are judged on absolute finite-difference noise.
    """
    rng = np.random.default_rng(seed)
    names = sorted(params)
    worst = 0.0
    grads = grads_fn()
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        arr = params[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        old = arr[idx]
        arr[idx] = old + h
        lp = forward()
        arr[idx] = old - h
        lm = forward()
        arr[idx] = old
        fd = (lp - lm) / (2 * h)
        an = grads[name][idx]
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), floor))
    return worst


def stacked_conv2d(x, w, b=None):
    """`nn.conv2d` with its im2col columns built by `np.pad` and `np.stack`:
    the reference whose bytes the one-buffer build must match. It takes the
    same arguments, the bias optional, and returns the same cache, so it can
    stand in for it."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    cols = np.stack([xp[:, :, i:i + h, j:j + wd] for i in range(kh) for j in range(kw)],
                    axis=2)
    cols = cols.reshape(n, c * kh * kw, h * wd)
    out = np.matmul(w.reshape(cout, -1), cols)
    if b is not None:
        out = out + b[None, :, None]
    return out.reshape(n, cout, h, wd), (x, cols, w)


# The transformer's layers as plain formulas, each result a new array and
# each stacked operand multiplied as a stack: the references whose bytes the
# layers of `nn` must match.
# Each takes the same arguments and returns the same cache as the layer it
# names, so `HEAD_LAYERS` can stand in for them.


def reference_gelu(x, cdf=None):
    if cdf is not None:
        cdf[...] = 0.5 * (1.0 + erf(x / nn.SQRT2))
    return 0.5 * x * (1.0 + erf(x / nn.SQRT2))


def reference_gelu_backward(dout, x, cdf=None):
    phi = nn.INV_SQRT_2PI * np.exp(-0.5 * x * x)
    cdf = 0.5 * (1.0 + erf(x / nn.SQRT2))
    return dout * (cdf + x * phi)


def reference_linear(x, w, b):
    return x @ w.T + b


def reference_linear_backward(dout, x, w):
    """The input gradient as `dout @ w` on the stack, one GEMM per sample."""
    flat = dout.reshape(-1, dout.shape[-1])
    return dout @ w, flat.T @ x.reshape(-1, x.shape[-1]), flat.sum(axis=0)


def reference_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def reference_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def reference_softmax_backward(dout, s, axis=-1):
    return s * (dout - (dout * s).sum(axis=axis, keepdims=True))


def reference_attention(x, wq, wk, wv, wo, bq, bk, bv, bo, n_heads: int,
                        rows=slice(None)):
    n, t, d = x.shape
    dh = d // n_heads

    def split(z):
        return z.reshape(n, -1, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (reference_linear(z, w, b) for z, w, b in
               ((x[:, rows], wq, bq), (x, wk, bk), (x, wv, bv)))
    qh, kh, vh = split(q), split(k), split(v)
    scale = 1.0 / math.sqrt(dh)
    attn = reference_softmax((qh @ kh.transpose(0, 1, 3, 2)) * scale)
    merged = (attn @ vh).transpose(0, 2, 1, 3).reshape(n, -1, d)
    out = reference_linear(merged, wo, bo)
    return out, (x, qh, kh, vh, attn, merged, wq, wk, wv, wo, n_heads, scale, rows)


def reference_attention_backward(dout, cache):
    """The query rows' input gradient is scattered into zeros of x's shape,
    then summed as (dxq + dxk) + dxv."""
    x, qh, kh, vh, attn, merged, wq, wk, wv, wo, n_heads, scale, rows = cache
    n, t, d = x.shape

    def split(z):
        return z.reshape(n, -1, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    def merge(z):
        return z.transpose(0, 2, 1, 3).reshape(n, -1, d)

    dmerged, dwo, dbo = nn.linear_backward(dout, merged, wo)
    dctx = split(dmerged)
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = reference_softmax_backward(dattn, attn) * scale
    dxq_rows, dwq, dbq = nn.linear_backward(merge(dscores @ kh), x[:, rows], wq)
    dxk, dwk, dbk = nn.linear_backward(merge(dscores.transpose(0, 1, 3, 2) @ qh), x, wk)
    dxv, dwv, dbv = nn.linear_backward(merge(dvh), x, wv)
    dxq = np.zeros_like(x)
    dxq[:, rows] = dxq_rows
    grads = {"wq": dwq, "bq": dbq, "wk": dwk, "bk": dbk,
             "wv": dwv, "bv": dbv, "wo": dwo, "bo": dbo}
    return dxq + dxk + dxv, grads


HEAD_LAYERS = {
    "gelu": reference_gelu, "gelu_backward": reference_gelu_backward,
    "linear": reference_linear, "linear_backward": reference_linear_backward,
    "layer_norm": reference_layer_norm,
    "softmax": reference_softmax, "softmax_backward": reference_softmax_backward,
    "attention": reference_attention, "attention_backward": reference_attention_backward,
}


# The conv stack's layers and eval batch-norm fold as plain formulas, each
# result a new array: the references whose bytes the in-place layers of `nn`
# must match. Batch norm's eval branch is the formula the fold replaces.
# The weight gradient uses the same GEMM call as `nn.conv2d_backward`; its
# rounding against the (Cout, C*kh*kw) orientation depends on the BLAS
# kernels, so it is not pinned here.


def reference_conv2d_backward(dout, cache):
    """col2im through a zero-padded input gradient, cropped at the end."""
    x, cols, w = cache
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    dflat = dout.reshape(n, cout, -1)
    dw = np.matmul(cols, dflat.transpose(0, 2, 1)).sum(axis=0).T.reshape(w.shape)
    db = dflat.sum(axis=(0, 2))
    dcols = np.matmul(w.reshape(cout, -1).T, dflat).reshape(n, c, kh * kw, h, wd)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=dout.dtype)
    for k in range(kh * kw):
        i, j = divmod(k, kw)
        dxp[:, :, i:i + h, j:j + wd] += dcols[:, :, k]
    return dxp[:, :, ph:ph + h, pw:pw + wd], dw, db


def reference_conv2d_param_backward(dout, cache):
    return reference_conv2d_backward(dout, cache)[1]


def reference_batch_norm2d(x, gamma, beta, running_mean, running_var, train: bool,
                           momentum=0.1, eps=1e-5):
    if train:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    out = xhat * gamma[None, :, None, None] + beta[None, :, None, None]
    return out, (xhat, inv, gamma) if train else None


def reference_fold_batch_norm2d(w, gamma, beta, running_mean, running_var, eps=1e-5):
    s = gamma / np.sqrt(running_var + eps)
    return w * s[:, None, None, None], beta - running_mean * s


def reference_batch_norm2d_backward(dout, cache):
    xhat, inv, gamma = cache
    m = dout.shape[0] * dout.shape[2] * dout.shape[3]
    dxhat = dout * gamma[None, :, None, None]
    dx = (inv[None, :, None, None] / m) * (
        m * dxhat
        - dxhat.sum(axis=(0, 2, 3))[None, :, None, None]
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None])
    return dx, (dout * xhat).sum(axis=(0, 2, 3)), dout.sum(axis=(0, 2, 3))


def reference_avg_pool2d(x):
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    a, b, c, d = (x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1))
    return ((a + b) + (c + d)) / 4, x.shape


CONV_LAYERS = {
    "conv2d": stacked_conv2d, "conv2d_backward": reference_conv2d_backward,
    "conv2d_param_backward": reference_conv2d_param_backward,
    "batch_norm2d": reference_batch_norm2d,
    "fold_batch_norm2d": reference_fold_batch_norm2d,
    "batch_norm2d_backward": reference_batch_norm2d_backward,
    "avg_pool2d": reference_avg_pool2d,
}


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A small synthetic corpus shared by tests that just need real data."""
    from zsat import protocol
    from zsat.dsp import MelConfig

    spec = protocol.SyntheticSpec(n_classes=6, clips_per_class=8, n_multilabel=6,
                                  fmax_hz=2400.0, mel=MelConfig(n_mels=32),
                                  test_classes=(2, 5))
    root = tmp_path_factory.mktemp("tiny_corpus")
    records, labels, vec_path = protocol.generate_synthetic_corpus(spec, root, seed=0)
    return {"spec": spec, "root": root, "records": records,
            "labels": labels, "vec_path": vec_path}

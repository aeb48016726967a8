"""Paper-shape layer slices: forward and backward of one 768-d transformer
block and of one CNN14 block at 128 mels, built from the `zsat.nn` public
functions and timed directly (outside the tracer)."""

from __future__ import annotations

import statistics
import time

import numpy as np

from zsat import nn

REPEATS = 3
# 128 mels x 10 s at 100 frames/s in 16x16 patches is an 8 x 62 grid; the
# paper's patchout drops 2 frequency rows and 10 time columns, leaving
# 6 x 52 tokens plus the class token.
TOKENS, D_MODEL, HEADS = 6 * 52 + 1, 768, 12
# the first CNN14 block (1 -> 64 -> 64 channels) on 1 s of a 128-mel input
MELS, FRAMES, CHANNELS = 128, 100, 64


def _transformer_block(rng):
    d, f32 = D_MODEL, np.float32
    p = {}
    for nm in "qkvo":
        p[f"w{nm}"], p[f"b{nm}"] = nn.init_linear(rng, d, d)
    p["w1"], p["b1"] = nn.init_linear(rng, 4 * d, d)
    p["w2"], p["b2"] = nn.init_linear(rng, d, 4 * d)
    g, b = np.ones(d, f32), np.zeros(d, f32)
    x = rng.standard_normal((1, TOKENS, d)).astype(f32)

    def forward():
        a, c1 = nn.layer_norm(x, g, b)
        att, ca = nn.attention(a, p["wq"], p["wk"], p["wv"], p["wo"],
                               p["bq"], p["bk"], p["bv"], p["bo"], HEADS)
        h1 = x + att
        y, c2 = nn.layer_norm(h1, g, b)
        f1 = nn.linear(y, p["w1"], p["b1"])
        gl = nn.gelu(f1)
        return h1 + nn.linear(gl, p["w2"], p["b2"]), (c1, ca, c2, y, f1, gl)

    def backward(out, cache):
        c1, ca, c2, y, f1, gl = cache
        dh = np.ones_like(out)
        dg, _, _ = nn.linear_backward(dh, gl, p["w2"])
        dy, _, _ = nn.linear_backward(nn.gelu_backward(dg, f1), y, p["w1"])
        dh1 = nn.layer_norm_backward(dy, c2)[0] + dh
        da, _ = nn.attention_backward(dh1, ca)
        return nn.layer_norm_backward(da, c1)[0] + dh1

    return forward, backward


def _cnn14_block(rng):
    f32, c = np.float32, CHANNELS
    w0 = rng.uniform(-1 / 3, 1 / 3, (c, 1, 3, 3)).astype(f32)
    w1 = rng.uniform(-1 / 24, 1 / 24, (c, c, 3, 3)).astype(f32)
    zero, one = np.zeros(c, f32), np.ones(c, f32)
    x = rng.standard_normal((1, 1, MELS, FRAMES)).astype(f32)

    def forward():
        h, caches = x, []
        for w in (w0, w1):
            h, cc = nn.conv2d(h, w, zero)
            h, cb = nn.batch_norm2d(h, one, zero, np.zeros(c), np.ones(c), True)
            caches.append((cc, cb, h))
            h = nn.relu(h)
        out, cp = nn.avg_pool2d(h)
        return out, (caches, cp)

    def backward(out, cache):
        caches, cp = cache
        dh = nn.avg_pool2d_backward(np.ones_like(out), cp)
        for cc, cb, pre in reversed(caches):
            dh, _, _ = nn.batch_norm2d_backward(nn.relu_backward(dh, pre), cb)
            dh, _, _ = nn.conv2d_backward(dh, cc)
        return dh

    return forward, backward


def slice_metrics(seed: int) -> dict:
    """Median forward and backward seconds of each slice over REPEATS."""
    rng = np.random.default_rng(seed)
    metrics = {}
    for name, build in (("transformer_block", _transformer_block),
                        ("cnn14_block", _cnn14_block)):
        forward, backward = build(rng)
        fwd, bwd = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out, cache = forward()
            t1 = time.perf_counter()
            grad = backward(out, cache)
            t2 = time.perf_counter()
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"slice {name}: non-finite gradient")
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        metrics[f"slice.{name}.fwd_s"] = statistics.median(fwd)
        metrics[f"slice.{name}.bwd_s"] = statistics.median(bwd)
    return metrics

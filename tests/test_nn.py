import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck, stacked_conv2d
from zsat import nn


def reference_conv2d(x, w, b, pad):
    """Stride-1 convolution one output position at a time."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    out = np.zeros((n, cout, ho, wo))
    for i in range(n):
        for o in range(cout):
            for y in range(ho):
                for z in range(wo):
                    out[i, o, y, z] = b[o] + (xp[i, :, y:y + kh, z:z + kw] * w[o]).sum()
    return out


def reference_conv2d_backward(dout, x, w, pad):
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp, dw, db = np.zeros_like(xp), np.zeros_like(w), np.zeros(cout)
    for i in range(n):
        for o in range(cout):
            for y in range(dout.shape[2]):
                for z in range(dout.shape[3]):
                    g = dout[i, o, y, z]
                    db[o] += g
                    dw[o] += g * xp[i, :, y:y + kh, z:z + kw]
                    dxp[i, :, y:y + kh, z:z + kw] += g * w[o]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, db


CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def reference_pool2d(x, kind):
    """2x2 stride-2 pooling one window at a time; odd trailing rows and
    columns are dropped. Averages sum the two row pairs, then add them."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for i, o, y, z in np.ndindex(out.shape):
        win = x[i, o, 2 * y:2 * y + 2, 2 * z:2 * z + 2]
        if kind == "avg":
            out[i, o, y, z] = ((win[0, 0] + win[0, 1]) + (win[1, 0] + win[1, 1])) / 4
        else:
            out[i, o, y, z] = win.max()
    return out


def reference_pool2d_backward(dout, x, kind):
    """Average pooling spreads a quarter of each gradient over its window;
    max pooling gives it all to the first corner, in row-major order, that
    holds the window's max."""
    dx = np.zeros_like(x)
    for (i, o, y, z), g in np.ndenumerate(dout):
        win = x[i, o, 2 * y:2 * y + 2, 2 * z:2 * z + 2]
        if kind == "avg":
            dx[i, o, 2 * y:2 * y + 2, 2 * z:2 * z + 2] = g * 0.25
        else:
            a, b = next(ab for ab in CORNERS if win[ab] == win.max())
            dx[i, o, 2 * y + a, 2 * z + b] = g
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["avg", "max"])
@pytest.mark.parametrize("values", ["relu", "repeats"])
@pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 2, 4, 3)])
def test_pool2d_matches_nested_loop_reference(dtype, kind, values, shape):
    """Exact equality, ties included: ReLU zeros tie whole windows and small
    integers repeat, so the max-pool gradient's corner is pinned too."""
    rng = np.random.default_rng(0)
    if values == "relu":
        x = np.maximum(rng.standard_normal(shape), 0).astype(dtype)
    else:
        x = rng.integers(0, 3, shape).astype(dtype)
    out, cache = getattr(nn, f"{kind}_pool2d")(x)
    want = reference_pool2d(x, kind)
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    dout = rng.standard_normal(out.shape).astype(dtype)
    dx = getattr(nn, f"{kind}_pool2d_backward")(dout, cache)
    want = reference_pool2d_backward(dout, x, kind)
    assert dx.dtype == dtype and dx.shape == x.shape
    assert dx.tobytes() == want.tobytes()


def test_conv2d_matches_nested_loop_reference():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out, cache = nn.conv2d(x, w, b)
    np.testing.assert_allclose(out, reference_conv2d(x, w, b, 1), rtol=0, atol=1e-12)
    dout = rng.standard_normal(out.shape)
    for got, want in zip(nn.conv2d_backward(dout, cache),
                         reference_conv2d_backward(dout, x, w, 1)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 4), cout=st.integers(1, 4),
       h=st.integers(1, 9), wd=st.integers(1, 9),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_conv2d_bytes_match_stacked_columns(n, c, cout, h, wd, dtype, seed):
    """The output and the cached columns equal, byte for byte and in dtype,
    those of a column build by `np.pad` and `np.stack`; x is left as it was."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, wd)).astype(dtype)
    w = rng.standard_normal((cout, c, 3, 3)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    x_bytes = x.tobytes()
    out, (_, cols, _) = nn.conv2d(x, w, b)
    want_out, (_, want_cols, _) = stacked_conv2d(x, w, b)
    assert x.tobytes() == x_bytes
    for got, want in ((out, want_out), (cols, want_cols)):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_dtype, w_dtype, want", [
    (np.float32, np.float32, np.float32),
    (np.float64, np.float32, np.float64),
])
def test_conv2d_dtype(x_dtype, w_dtype, want):
    """The output and every gradient take the promoted input dtype."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 7)).astype(x_dtype)
    w = rng.standard_normal((4, 3, 3, 3)).astype(w_dtype)
    b = np.zeros(4, dtype=w_dtype)
    out, cache = nn.conv2d(x, w, b)
    assert out.dtype == want
    grads = nn.conv2d_backward(np.ones_like(out), cache)
    assert [g.dtype for g in grads] == [want] * 3


def test_batch_norm2d_train_gradients_match_finite_differences():
    """Train mode normalizes by the batch's own statistics, so the gradient
    of x flows through them too; eval mode keeps no cache."""
    rng = np.random.default_rng(0)
    t = {"x": rng.standard_normal((3, 4, 5, 6)), "gamma": 0.5 + rng.random(4),
         "beta": rng.standard_normal(4)}
    w = rng.standard_normal((3, 4, 5, 6))

    def run(train=True):
        return nn.batch_norm2d(t["x"], t["gamma"], t["beta"], np.zeros(4),
                               np.ones(4), train)

    def forward():
        out, _ = run()
        return float(np.sum(out * w) + 0.5 * np.sum(out ** 2))

    def grads():
        out, cache = run()
        return dict(zip(("x", "gamma", "beta"),
                        nn.batch_norm2d_backward(w + out, cache)))

    assert fd_gradcheck(t, forward, grads, n_coords=60) < 1e-4
    assert run(train=False)[1] is None

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
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
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16),
       bias=st.booleans())
def test_conv2d_bytes_match_stacked_columns(n, c, cout, h, wd, dtype, seed, bias):
    """The output and the cached columns equal, byte for byte and in dtype,
    those of a column build by `np.pad` and `np.stack`, with a bias (eval's
    fold gives one) or without (training); x is left as it was."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, wd)).astype(dtype)
    w = rng.standard_normal((cout, c, 3, 3)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype) if bias else None
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
    out, cache = nn.conv2d(x, w)
    assert out.dtype == want
    grads = nn.conv2d_backward(np.ones_like(out), cache)
    assert [g.dtype for g in grads] == [want] * 3


def test_batch_norm2d_train_gradients_match_finite_differences():
    """Train mode normalizes by the batch's own statistics, so the gradient
    of x flows through them too; eval batch norm is folded into the conv, so
    `train=False` is an error naming the fold."""
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
    with pytest.raises(ValueError, match="fold_batch_norm2d"):
        run(train=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, c, cout, h, wd", [
    (1, 1, 2, 1, 1), (1, 2, 3, 2, 1), (1, 3, 2, 1, 2), (2, 3, 4, 5, 7),
    (3, 2, 5, 9, 3), (1, 4, 8, 6, 10)])
def test_conv_stack_layers_match_their_formulas_byte_for_byte(n, c, cout, h, wd, dtype):
    """Conv backward (with and without the input gradient), batch norm
    (train and backward, with the running statistics it leaves), the eval
    batch-norm fold and average pooling equal, byte for byte and in dtype,
    the plain formulas of `conftest.CONV_LAYERS`."""
    rng = np.random.default_rng(n * 1000 + h * 10 + wd)
    x = rng.standard_normal((n, c, h, wd)).astype(dtype)
    w = rng.standard_normal((cout, c, 3, 3)).astype(dtype)
    out, cache = nn.conv2d(x, w)
    _same_bytes(out, stacked_conv2d(x, w)[0], dtype)
    dout = rng.standard_normal(out.shape).astype(dtype)
    for got, want in zip(nn.conv2d_backward(dout, cache),
                         conftest.reference_conv2d_backward(dout, cache), strict=True):
        _same_bytes(got, want, dtype)
    _same_bytes(nn.conv2d_param_backward(dout, cache),
                conftest.reference_conv2d_param_backward(dout, cache), dtype)

    y = 3.0 * out + 1.0
    gamma, beta = (rng.standard_normal(cout).astype(dtype) for _ in range(2))
    stats = [np.zeros(cout, dtype), np.ones(cout, dtype)]
    want_stats = [s.copy() for s in stats]
    got, (xhat, inv, g) = nn.batch_norm2d(y, gamma, beta, *stats, True)
    want, want_cache = conftest.reference_batch_norm2d(y, gamma, beta, *want_stats, True)
    for got_a, want_a in zip((got, xhat, inv, *stats), (want, *want_cache[:2], *want_stats)):
        _same_bytes(got_a, want_a, dtype)
    assert g is gamma
    for got_a, want_a in zip(nn.batch_norm2d_backward(dout, (xhat, inv, gamma)),
                             conftest.reference_batch_norm2d_backward(dout, want_cache),
                             strict=True):
        _same_bytes(got_a, want_a, dtype)
    mean, var = rng.standard_normal(cout).astype(dtype), rng.random(cout).astype(dtype)
    for got, want in zip(nn.fold_batch_norm2d(w, gamma, beta, mean, var),
                         conftest.reference_fold_batch_norm2d(w, gamma, beta, mean, var),
                         strict=True):
        _same_bytes(got, want, dtype)

    got, shape = nn.avg_pool2d(y)
    _same_bytes(got, conftest.reference_avg_pool2d(y)[0], dtype)
    assert shape == y.shape


# --- the transformer's pointwise layers, against their plain formulas --------


def _same_bytes(got, want, dtype):
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _attention_inputs(rng, n, t, heads, dh, dtype):
    d = heads * dh
    x = rng.standard_normal((n, t, d)).astype(dtype)
    ws = [(rng.standard_normal((d, d)) / math.sqrt(d)).astype(dtype) for _ in range(4)]
    bs = [rng.standard_normal(d).astype(dtype) for _ in range(4)]
    return x, (*ws, *bs, heads)


layer_shapes = dict(n=st.integers(1, 3), t=st.integers(1, 7), heads=st.integers(1, 3),
                    dh=st.integers(1, 5), scale=st.sampled_from([0.1, 1.0, 8.0]),
                    dtype=st.sampled_from([np.float32, np.float64]),
                    seed=st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(**layer_shapes)
def test_pointwise_layers_match_their_formulas_byte_for_byte(n, t, heads, dh, scale,
                                                              dtype, seed):
    """GELU (its backward with and without the forward's CDF), softmax, layer
    norm and linear (forward and backward) equal, byte for byte and in dtype,
    the plain formulas."""
    rng = np.random.default_rng(seed)
    x = (scale * rng.standard_normal((n, t, heads * dh))).astype(dtype)
    dout = rng.standard_normal(x.shape).astype(dtype)

    cdf, want_cdf = np.empty_like(x), np.empty_like(x)
    _same_bytes(nn.gelu(x, cdf), conftest.reference_gelu(x, want_cdf), dtype)
    _same_bytes(cdf, want_cdf, dtype)
    _same_bytes(nn.gelu(x), conftest.reference_gelu(x), dtype)
    want = conftest.reference_gelu_backward(dout, x)
    _same_bytes(nn.gelu_backward(dout, x, cdf), want, dtype)
    _same_bytes(nn.gelu_backward(dout, x), want, dtype)
    wide = dout.astype(np.float64)      # promotes the gradient, as `wide * d` does
    _same_bytes(nn.gelu_backward(wide, x, cdf), conftest.reference_gelu_backward(wide, x),
                np.float64)

    s = nn.softmax(x)
    _same_bytes(s, conftest.reference_softmax(x), dtype)
    _same_bytes(nn.softmax_backward(dout, s), conftest.reference_softmax_backward(dout, s),
                dtype)

    gamma, beta = (rng.standard_normal(x.shape[-1]).astype(dtype) for _ in range(2))
    y, (xhat, inv, g) = nn.layer_norm(x, gamma, beta)
    want_y, (want_xhat, want_inv, _) = conftest.reference_layer_norm(x, gamma, beta)
    for got, want in ((y, want_y), (xhat, want_xhat), (inv, want_inv)):
        _same_bytes(got, want, dtype)
    assert g is gamma

    w = rng.standard_normal((4, x.shape[-1])).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    _same_bytes(nn.linear(x, w, b), conftest.reference_linear(x, w, b), dtype)
    dy = rng.standard_normal((*x.shape[:-1], 4)).astype(dtype)
    for got, want in zip(nn.linear_backward(dy, x, w),
                         conftest.reference_linear_backward(dy, x, w)):
        _same_bytes(got, want, dtype)


@settings(max_examples=60, deadline=None)
@given(**layer_shapes, data=st.data())
def test_attention_matches_its_formula_byte_for_byte(n, t, heads, dh, scale, dtype, seed,
                                                     data):
    """The output, every cached array and every gradient of attention equal,
    byte for byte and in dtype, those of the plain formulas, for every query
    row (the default) or a slice of them."""
    rng = np.random.default_rng(seed)
    x, args = _attention_inputs(rng, n, t, heads, dh, dtype)
    x *= dtype(scale)
    start = data.draw(st.integers(0, t - 1))
    rows = data.draw(st.sampled_from([slice(None), slice(start, data.draw(
        st.integers(start + 1, t)))]))
    query = (rows,) if rows != slice(None) else ()
    out, cache = nn.attention(x, *args, *query)
    want_out, want_cache = conftest.reference_attention(x, *args, rows)
    assert out.shape == x[:, rows].shape
    _same_bytes(out, want_out, dtype)
    for got, want in zip(cache, want_cache):
        if isinstance(want, np.ndarray):
            _same_bytes(got, want, dtype)
        else:
            assert got == want
    dout = rng.standard_normal(out.shape).astype(dtype)
    dx, grads = nn.attention_backward(dout, cache)
    want_dx, want_grads = conftest.reference_attention_backward(dout, want_cache)
    _same_bytes(dx, want_dx, dtype)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        _same_bytes(grads[name], want_grads[name], dtype)


@pytest.mark.parametrize("rows", [slice(0, 1), slice(2, 5), slice(4, 7)])
def test_sliced_attention_is_full_attention_on_its_rows(rows):
    """In float64, attention over the query rows `rows` gives full
    attention's output on those rows, and, from a gradient that is zero on
    every other row, full attention's gradients. The key bias is left out:
    softmax ignores a shift shared by every key, so its gradient is zero
    up to rounding either way."""
    rng = np.random.default_rng(2)
    x, args = _attention_inputs(rng, 3, 7, 2, 4, np.float64)
    full, full_cache = nn.attention(x, *args)
    out, cache = nn.attention(x, *args, rows)
    assert out.shape == (3, rows.stop - rows.start, 8)
    np.testing.assert_allclose(out, full[:, rows], rtol=0, atol=1e-12)
    dout = rng.standard_normal(out.shape)
    dfull = np.zeros_like(full)
    dfull[:, rows] = dout
    dx, grads = nn.attention_backward(dout, cache)
    want_dx, want = nn.attention_backward(dfull, full_cache)
    np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)
    assert grads.keys() == want.keys()
    for name in grads.keys() - {"bk"}:
        np.testing.assert_allclose(grads[name], want[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)
    assert np.abs(grads["bk"]).max() < 1e-12 and np.abs(want["bk"]).max() < 1e-12


def test_gelu_and_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    t = {"x": 2.0 * rng.standard_normal((3, 5, 7))}
    w = rng.standard_normal((3, 5, 7))
    for layer, backward in ((nn.gelu, nn.gelu_backward),
                            (nn.softmax, lambda dout, x: nn.softmax_backward(
                                dout, nn.softmax(x)))):
        def forward():
            out = layer(t["x"])
            return float(np.sum(out * w) + 0.5 * np.sum(out ** 2))

        def grads():
            return {"x": backward(w + layer(t["x"]), t["x"])}

        assert fd_gradcheck(t, forward, grads, n_coords=60) < 1e-5, layer.__name__


# --- no layer writes into an array its caller passed ---------------------------


def _frozen(value):
    """`value` with every array in it made read-only, so a write raises."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _frozen(v)
    return value


def _layer_calls(rng):
    """(name, forward thunk, backward from (dout, cache)) for every layer."""
    f32 = np.float32

    def arr(*shape):
        return rng.standard_normal(shape).astype(f32)

    x3, x4 = arr(2, 5, 8), arr(2, 3, 6, 5)
    w, b, gamma, beta = arr(4, 8), arr(4), arr(8), arr(8)
    _, att_args = _attention_inputs(rng, 2, 5, 2, 4, f32)
    cw, c3 = arr(4, 3, 3, 3), arr(3)
    bn = (arr(4), arr(4), arr(4), np.abs(arr(4)))
    calls = [
        ("gelu", lambda: (nn.gelu(x3), x3), lambda d, c: nn.gelu_backward(d, c)),
        ("gelu with cdf", lambda: (nn.gelu(x3, cdf := np.empty_like(x3)), (x3, cdf)),
         lambda d, c: nn.gelu_backward(d, *c)),
        ("relu", lambda: (nn.relu(x3), x3), nn.relu_backward),
        ("dropout", lambda: nn.dropout(x3, 0.5, np.random.default_rng(0)),
         nn.dropout_backward),
        ("linear", lambda: (nn.linear(x3, w, b), x3),
         lambda d, c: nn.linear_backward(d, c, w)),
        ("layer_norm", lambda: nn.layer_norm(x3, gamma, beta), nn.layer_norm_backward),
        ("softmax", lambda: (s := nn.softmax(x3), s),
         lambda d, c: nn.softmax_backward(d, c)),
        ("attention", lambda: nn.attention(x3, *att_args), nn.attention_backward),
        ("conv2d", lambda: nn.conv2d(x4, cw), nn.conv2d_backward),
        ("conv2d param grads", lambda: nn.conv2d(x4, cw), nn.conv2d_param_backward),
        ("batch_norm2d", lambda: nn.batch_norm2d(x4, c3, c3, np.zeros(3, f32),
                                                 np.ones(3, f32), True),
         nn.batch_norm2d_backward),
        ("avg_pool2d", lambda: nn.avg_pool2d(x4), nn.avg_pool2d_backward),
        ("max_pool2d", lambda: nn.max_pool2d(x4), nn.max_pool2d_backward),
        ("fold_batch_norm2d", lambda: (nn.fold_batch_norm2d(cw, *bn), None), None),
    ]
    return calls, (x3, x4, w, b, gamma, beta, att_args, cw, c3, bn)


def test_no_layer_writes_into_its_inputs():
    """Every forward and backward, and the eval batch-norm fold, which has
    no backward, runs on read-only inputs and caches (the gelu CDF buffer
    and batch norm's running statistics are the outputs they write) and
    gives the same bytes as on writable ones."""
    def run(freeze):
        rng = np.random.default_rng(0)
        calls, inputs = _layer_calls(rng)
        if freeze:
            _frozen(inputs)
        results = []
        for name, forward, backward in calls:
            out, cache = forward()
            if backward is None:
                results.extend((name, a) for a in out)
                continue
            dout = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
            if freeze:
                _frozen((dout, cache))
            grads = backward(dout, cache)
            grads = grads if isinstance(grads, tuple) else (grads,)
            for g in (out, *grads):
                results.append((name, g if isinstance(g, np.ndarray) else
                                np.concatenate([v.ravel() for v in g.values()])))
        return results

    for (name, got), (_, want) in zip(run(True), run(False), strict=True):
        assert got.tobytes() == want.tobytes(), name

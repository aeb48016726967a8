import numpy as np
import pytest


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


def stacked_conv2d(x, w, b):
    """`nn.conv2d` with its im2col columns built by `np.pad` and `np.stack`:
    the reference whose bytes the one-buffer build must match. It takes the
    same arguments and returns the same cache, so it can stand in for it."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    cols = np.stack([xp[:, :, i:i + h, j:j + wd] for i in range(kh) for j in range(kw)],
                    axis=2)
    cols = cols.reshape(n, c * kh * kw, h * wd)
    out = np.matmul(w.reshape(cout, -1), cols) + b[None, :, None]
    return out.reshape(n, cout, h, wd), (x, cols, w)


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

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HEAD_LAYERS, fd_gradcheck
from zsat import checkpoint, crossmodal, nn, protocol
from zsat.backbones import Backbone
from zsat.crossmodal import Projection, ProjectionConfig, TrainConfig
from zsat.errors import ConfigError, DataError, NumericalError


def make_params(m=6, n=4, hidden=8, seed=0, dropout=0.0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    p = Projection(ProjectionConfig(m, n, hidden, dropout), rng, dtype=dtype)
    p.stats["mean"][:] = rng.standard_normal(m)
    p.stats["std"][:] = np.abs(rng.standard_normal(m)) + 0.5
    return p


# --- projection forward/backward ---------------------------------------------

def test_projection_gradients_match_finite_differences():
    p = make_params(dtype=np.float64)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 6))
    y = rng.integers(0, 2, (5, 4)).astype(float)
    e = rng.standard_normal((4, 4))
    tensors = {**p.params, **p.stats}

    def forward():
        out, _ = crossmodal.project_batch(a, p)
        return crossmodal.bce_loss(out @ e.T, y)

    def grads():
        out, cache = crossmodal.project_batch(a, p)
        dlogits = crossmodal.bce_loss_backward(out @ e.T, y)
        _, g = crossmodal.project_backward(dlogits @ e, p, cache)
        return g

    assert fd_gradcheck(tensors, forward, grads, n_coords=60) < 1e-6


def _projection_run_bytes():
    """The bytes of one train-mode projection (dropout on) and its backward."""
    p = make_params(dropout=0.2)
    rng = np.random.default_rng(2)
    out, cache = crossmodal.project_batch(rng.standard_normal((5, 6)), p, train=True,
                                          rng=np.random.default_rng(3))
    da, grads = crossmodal.project_backward(rng.standard_normal(out.shape), p, cache)
    return [(k, v.dtype, v.tobytes()) for k, v in (("out", out), ("da", da), *grads.items())]


def test_projection_bytes_match_plain_layer_formulas(monkeypatch):
    """The projection computes the same bytes, forward and backward, as with
    GELU and linear written as plain formulas that return new arrays and
    recompute GELU's CDF in its backward."""
    got = _projection_run_bytes()
    for name, reference in HEAD_LAYERS.items():
        monkeypatch.setattr(nn, name, reference)
    assert got == _projection_run_bytes()


def test_project_rejects_dim_mismatch():
    p = make_params(m=6)
    with pytest.raises(ValueError):
        crossmodal.project_batch(np.zeros((2, 7)), p)


def test_project_rejects_nonfinite_input():
    p = make_params()
    bad = np.full((1, 6), np.nan)
    with pytest.raises(NumericalError, match="non-finite audio embedding"):
        crossmodal.project_batch(bad, p)


def test_classify_invariant_under_monotone_transform():
    """classify depends only on the ordering of logits, so scaling all
    candidate vectors by a positive constant cannot change the argmax."""
    p = make_params()
    rng = np.random.default_rng(5)
    projected, _ = crossmodal.project_batch(rng.standard_normal((7, 6)), p)
    emb = {f"c{i}": rng.standard_normal(4) for i in range(5)}
    scaled = {c: 3.5 * v for c, v in emb.items()}
    preds = crossmodal.classify(projected, emb, list(emb))
    # one clip at a time, one dot product per candidate
    assert preds == [max(emb, key=lambda c: float(np.dot(row, emb[c])))
                     for row in projected]
    assert preds == crossmodal.classify(projected, scaled, list(emb))


def test_classify_tie_breaks_to_lowest_id():
    p = make_params()
    projected, _ = crossmodal.project_batch(
        np.random.default_rng(1).standard_normal((3, 6)), p)
    vec = np.ones(4)
    emb = {"z": vec, "a": vec.copy()}
    assert crossmodal.classify(projected, emb, ["z", "a"]) == ["a", "a", "a"]


# --- loss -----------------------------------------------------------------------

def test_bce_zero_logit_positive_target_is_ln2():
    assert crossmodal.bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(
        np.log(2.0), abs=1e-12)


def masked_sigmoid(x):
    """The sigmoid the BCE gradient once took, one formula per sign mask;
    the reference for `bce_loss_backward`'s bytes."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@given(st.floats(-1e4, 1e4), st.integers(0, 1))
@example(0.0, 1)
@example(-0.0, 0)
@example(1e4, 0)
@example(-1e4, 1)
@settings(max_examples=300)
def test_bce_stable_over_extreme_logits(logit, target):
    loss = crossmodal.bce_loss(np.array([logit]), np.array([float(target)]))
    assert np.isfinite(loss) and loss >= 0
    # both signs in one call, so both branches of the gradient run together
    logits, targets = np.array([logit, -logit]), np.array([float(target), 1.0 - target])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grad = crossmodal.bce_loss_backward(logits, targets)
    assert np.all(np.isfinite(grad))
    assert grad.tobytes() == ((masked_sigmoid(logits) - targets) / logits.size).tobytes()


def test_bce_gradient_is_sigmoid_minus_target():
    logits = np.array([0.0, 100.0, -100.0])
    targets = np.array([1.0, 1.0, 0.0])
    g = crossmodal.bce_loss_backward(logits, targets)
    assert g[0] == pytest.approx((0.5 - 1.0) / 3)
    assert abs(g[1]) < 1e-12  # saturated correct prediction
    assert abs(g[2]) < 1e-12


# --- schedule ---------------------------------------------------------------------

def paper_cfg(**kw):
    return TrainConfig(**kw)


def test_lr_schedule_checkpoints():
    cfg = paper_cfg()
    assert crossmodal.lr_at(0, cfg) == pytest.approx(2e-5 / 100)
    assert crossmodal.lr_at(5, cfg) == 2e-5
    assert crossmodal.lr_at(50, cfg) == 2e-5
    assert crossmodal.lr_at(75, cfg) == pytest.approx((2e-5 + 1e-7) / 2)
    assert crossmodal.lr_at(100, cfg) == 1e-7
    assert crossmodal.lr_at(130, cfg) == 1e-7


def test_lr_warmup_is_geometric():
    cfg = paper_cfg()
    ratios = [crossmodal.lr_at(e + 1, cfg) / crossmodal.lr_at(e, cfg)
              for e in range(4)]
    assert np.allclose(ratios, ratios[0])


def test_lr_negative_epoch_raises():
    with pytest.raises(ValueError):
        crossmodal.lr_at(-1, paper_cfg())


def test_train_config_validation():
    with pytest.raises(ConfigError, match="final_lr"):
        TrainConfig(final_lr=1.0, initial_lr=1e-5)
    with pytest.raises(ConfigError, match="warmup"):
        TrainConfig(warmup_epochs=60, decay_start_epoch=50)
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0)


# --- optimizer --------------------------------------------------------------------

def test_adamw_single_step_hand_values():
    # lr=1, wd=0, eps=0, g=1: theta' = theta - 1 * mhat/sqrt(vhat) = theta - 1
    # because with a single step mhat = g and vhat = g^2.
    cfg = TrainConfig(initial_lr=1.0, warmup_epochs=0.5, decay_start_epoch=1,
                      decay_end_epoch=2, final_lr=1.0, epochs=1, batch_size=1,
                      weight_decay=0.0, epsilon=0.0)
    params = {"w": np.array([1.9])}
    state = crossmodal.init_adamw_state(params)
    crossmodal.adamw_step(params, {"w": np.array([1.0])}, state, 1.0, cfg)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-12)

    # decoupled decay subtracts lr*wd*theta additionally: 1.9 - 0.01 - 1 = 0.89
    params = {"w": np.array([1.9])}
    cfg_wd = TrainConfig(initial_lr=1.0, warmup_epochs=0.5, decay_start_epoch=1,
                         decay_end_epoch=2, final_lr=1.0, epochs=1, batch_size=1,
                         weight_decay=0.01 / 1.9, epsilon=0.0)
    state = crossmodal.init_adamw_state(params)
    crossmodal.adamw_step(params, {"w": np.array([1.0])}, state, 1.0, cfg_wd)
    assert params["w"][0] == pytest.approx(0.89, abs=1e-12)


def _adamw_inputs(dtype, seed=0):
    """Three parameters of mixed shapes, a bias among them, and a stream of
    gradients for them whose scales differ by tensor and by step."""
    rng = np.random.default_rng(seed)
    shapes = {"w": (4, 3), "b": (4,), "k": (2, 3, 2)}
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    grads = [{k: (rng.standard_normal(s) * 10.0 ** rng.integers(-3, 2)).astype(dtype)
              for k, s in shapes.items()} for _ in range(6)]
    return params, grads


def _plain_adamw(params, grads, lr, cfg):
    """AdamW as the plain per-tensor formula, each result a new array, with
    moments in the params' dtype."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t, step in enumerate(grads, start=1):
        for k, theta in params.items():
            g = step[k]
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
            v2[k] = cfg.beta2 * v2[k] + (1 - cfg.beta2) * g * g
            mhat = m[k] / (1 - cfg.beta1 ** t)
            vhat = v2[k] / (1 - cfg.beta2 ** t)
            params[k] = theta - (lr * cfg.weight_decay * theta
                                 + lr * mhat / (np.sqrt(vhat) + cfg.epsilon))
    return m, v2


ADAMW_CFG = TrainConfig(weight_decay=0.05)


def test_adamw_matches_the_plain_formula_in_float64():
    """Float64 params keep float64 moments, and every parameter and moment
    equals the plain per-tensor formula's byte for byte over several steps."""
    params, grads = _adamw_inputs(np.float64)
    want = dict(params)
    want_m, want_v = _plain_adamw(want, grads, 3e-2, ADAMW_CFG)
    state = crossmodal.init_adamw_state(params)
    for step in grads:
        crossmodal.adamw_step(params, step, state, 3e-2, ADAMW_CFG)
    assert state["step"] == len(grads)
    assert state["m"].dtype == state["v"].dtype == np.float64
    assert state["m"].tobytes() == np.concatenate([want_m[k].ravel() for k in params]).tobytes()
    assert state["v"].tobytes() == np.concatenate([want_v[k].ravel() for k in params]).tobytes()
    for k in params:
        assert params[k].tobytes() == want[k].tobytes(), k


def test_float32_adamw_tracks_the_float64_formula():
    """Float32 params get float32 moments, and after several steps they agree
    with float64 AdamW from the same start to float32 tolerance."""
    params, grads = _adamw_inputs(np.float32)
    want = {k: v.astype(np.float64) for k, v in params.items()}
    want_m, want_v = _plain_adamw(
        want, [{k: g.astype(np.float64) for k, g in s.items()} for s in grads],
        3e-2, ADAMW_CFG)
    state = crossmodal.init_adamw_state(params)
    assert state["m"].dtype == state["v"].dtype == np.float32
    for step in grads:
        crossmodal.adamw_step(params, step, state, 3e-2, ADAMW_CFG)
    for k in params:
        assert params[k].dtype == np.float32
        np.testing.assert_allclose(params[k], want[k], rtol=1e-5, atol=1e-6, err_msg=k)
    np.testing.assert_allclose(state["m"], np.concatenate([want_m[k].ravel() for k in params]),
                               rtol=1e-5, atol=1e-9)
    np.testing.assert_allclose(state["v"], np.concatenate([want_v[k].ravel() for k in params]),
                               rtol=1e-5, atol=1e-12)


def _adamw_snapshot(params, state):
    return ({k: v.tobytes() for k, v in params.items()}, state["step"],
            state["m"].tobytes(), state["v"].tobytes())


def test_adamw_rejects_nonfinite_gradient():
    """A non-finite gradient, in any tensor, raises naming its parameter
    and leaves every parameter, both moments and the step count as they were."""
    params, grads = _adamw_inputs(np.float32)
    state = crossmodal.init_adamw_state(params)
    crossmodal.adamw_step(params, grads[0], state, 1e-2, ADAMW_CFG)
    for name, bad in (("k", np.nan), ("b", np.inf), ("w", -np.inf)):
        step = dict(grads[1])
        step[name] = step[name].copy()
        step[name].flat[-1] = bad
        before = _adamw_snapshot(params, state)
        with pytest.raises(NumericalError, match=f"non-finite gradient for parameter '{name}'"):
            crossmodal.adamw_step(params, step, state, 1e-2, ADAMW_CFG)
        assert _adamw_snapshot(params, state) == before


def test_adamw_rejects_a_gradient_unlike_its_parameter():
    """A gradient of another dtype or shape than its parameter is an error
    naming it, so the flat gather never casts or misaligns; nothing moves."""
    params, grads = _adamw_inputs(np.float32)
    state = crossmodal.init_adamw_state(params)
    for name, bad, what in (("b", grads[0]["b"].astype(np.float64), "float64 \\(4,\\)"),
                            ("w", grads[0]["w"].T.copy(), "float32 \\(3, 4\\)")):
        before = _adamw_snapshot(params, state)
        with pytest.raises(ValueError, match=f"gradient for parameter '{name}' is {what}"):
            crossmodal.adamw_step(params, {**grads[0], name: bad}, state, 1e-2, ADAMW_CFG)
        assert _adamw_snapshot(params, state) == before
    with pytest.raises(ValueError, match="one dtype"):
        crossmodal.init_adamw_state({"a": np.zeros(2, np.float32), "b": np.zeros(2)})


# --- the shared training loop ------------------------------------------------------

def test_train_epochs_batches_targets_updates_and_divergence(monkeypatch):
    recs = [protocol.ClipRecord(cid, f"{cid}.wav", tags, "train") for cid, tags in
            (("a1", ("A",)), ("a2", ("A", "X")), ("b1", ("B",)),
             ("ab", ("A", "B")), ("b2", ("B",)))]
    want = {"a1": [1, 0], "a2": [1, 0], "b1": [0, 1], "ab": [1, 1], "b2": [0, 1]}
    cfg = TrainConfig(initial_lr=1e-2, warmup_epochs=1, decay_start_epoch=2,
                      decay_end_epoch=3, final_lr=1e-4, batch_size=2)
    steps = []
    real_adamw = crossmodal.adamw_step

    def counting_adamw(params, grads, state, lr, cfg):
        steps.append((lr, state["step"]))
        real_adamw(params, grads, state, lr, cfg)
    monkeypatch.setattr(crossmodal, "adamw_step", counting_adamw)

    batches, backwards = [], []

    def forward(ids, targets):
        batches.append((list(ids), targets.copy()))
        logits = np.full_like(targets, np.nan if len(batches) == 7 else 0.0)

        def backward(dlogits):
            backwards.append(dlogits.shape)
            return {"w": np.ones(3)}
        return logits, targets, backward

    params = {"w": np.zeros(3)}
    losses = crossmodal.train_epochs(recs, ["A", "B"], params, cfg,
                                     np.random.default_rng(4), 4, forward)
    # 5 clips in batches of 2: two steps per epoch, one AdamW update per step
    assert next(losses) == pytest.approx(np.log(2.0))
    assert next(losses) == pytest.approx(np.log(2.0))
    assert len(batches) == 4 and all(len(ids) == 2 for ids, _ in batches)
    assert backwards == [(2, 2)] * 4
    assert steps == [(crossmodal.lr_at(e, cfg), k) for k, e in enumerate((0, 0, 1, 1))]
    assert np.all(params["w"] < 0)
    # the sampler's seed is the first draw from the generator
    sampler = protocol.balanced_sampler(
        recs, ["A", "B"], seed=int(np.random.default_rng(4).integers(2 ** 31)))
    for ids, targets in batches:
        assert ids == [next(sampler) for _ in ids]
        assert np.array_equal(targets, [want[c] for c in ids])
    # a non-finite loss stops the loop before its backward pass or update
    next(losses)
    with pytest.raises(crossmodal.DivergenceError, match="at epoch 3$"):
        next(losses)
    assert len(batches) == 7 and len(backwards) == 6 and len(steps) == 6


# --- checkpoint round trip ----------------------------------------------------------

def test_projection_checkpoint_round_trip(tmp_path):
    p = make_params(dropout=0.15)
    path = tmp_path / "p.ckpt"
    p.save(path)
    back = Projection.load(path)
    got = {**back.params, **back.stats}
    for name, v in {**p.params, **p.stats}.items():
        assert np.array_equal(got[name], v.astype(np.float32))
    assert back.cfg.dropout_rate == 0.15


def test_projection_checkpoint_missing_entry_is_a_data_error(tmp_path):
    p = make_params()
    path = tmp_path / "p.ckpt"
    tensors = {**p.params, **p.stats}
    checkpoint.save_checkpoint(path, "projection", p.hyperparams(),
                               {k: v for k, v in tensors.items() if k != "w2"})
    with pytest.raises(DataError, match=r"missing tensors \['w2'\]"):
        Projection.load(path)
    hp = {k: v for k, v in p.hyperparams().items() if k != "dropout_rate"}
    checkpoint.save_checkpoint(path, "projection", hp, tensors)
    with pytest.raises(DataError, match="dropout_rate"):
        Projection.load(path)


# --- training ----------------------------------------------------------------------

class IdentityBackbone(Backbone):
    """Passes precomputed 'spectrogram' vectors straight through."""

    kind = "identity"

    def __init__(self):
        pass

    def embed_batch(self, x, *args, **kwargs):
        return x.reshape(x.shape[0], -1), None


def _toy_training_setup(n_classes=6, m=5, n=4, seed=0):
    rng = np.random.default_rng(seed)
    class_ids = [f"c{i}" for i in range(n_classes)]
    class_emb = {c: rng.standard_normal(n) for c in class_ids}
    records, specs = [], {}
    for i, c in enumerate(class_ids):
        for j in range(6):
            cid = f"{c}_{j}"
            split = "train" if j < 4 else "val"
            records.append(protocol.ClipRecord(cid, f"{cid}.wav", (c,), split))
            base = np.zeros(m)
            base[i % m] = 3.0
            specs[cid] = base + 0.1 * rng.standard_normal(m)
    return records, specs, class_ids, class_emb


def _proj_cfg(epochs=3):
    return TrainConfig(initial_lr=1e-2, warmup_epochs=1, decay_start_epoch=2,
                       decay_end_epoch=3, final_lr=1e-4, epochs=epochs,
                       batch_size=4)


def test_train_projection_reports_best_epoch_and_improves():
    records, specs, class_ids, class_emb = _toy_training_setup()
    p, report = crossmodal.train_projection(
        IdentityBackbone(), records, specs, class_ids, class_emb,
        _proj_cfg(), np.random.default_rng(0), hidden=16, dropout_rate=0.0,
        val_fraction=0.2)
    assert 0 <= report["best_epoch"] < 3
    assert report["best_val_map"] == max(report["val_map"])
    assert len(report["per_epoch_loss"]) == 3


def test_train_projection_is_deterministic():
    records, specs, class_ids, class_emb = _toy_training_setup()
    runs = []
    for _ in range(2):
        p, _ = crossmodal.train_projection(
            IdentityBackbone(), records, specs, class_ids, class_emb,
            _proj_cfg(), np.random.default_rng(0), hidden=16, dropout_rate=0.1,
            val_fraction=0.2)
        runs.append(p)
    for name, v in {**runs[0].params, **runs[0].stats}.items():
        assert np.array_equal(v, {**runs[1].params, **runs[1].stats}[name])


def test_train_projection_leaves_backbone_untouched():
    from zsat import backbones
    records, specs, class_ids, class_emb = _toy_training_setup(m=8)
    rng = np.random.default_rng(0)
    cfg = backbones.TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4,
                                      patch_t=1, max_f_patches=2, max_t_patches=1,
                                      embed_dim=6)
    model = backbones.TransformerBackbone(cfg, rng)
    for cid in specs:
        specs[cid] = np.random.default_rng(1).standard_normal((8, 1))
    before = {k: v.copy() for k, v in model.params.items()}
    crossmodal.train_projection(model, records, specs, class_ids, class_emb,
                                _proj_cfg(), rng, hidden=8, dropout_rate=0.0,
                                val_fraction=0.2)
    for k in before:
        assert np.array_equal(before[k], model.params[k])


def test_val_fraction_zero_classes_raises():
    records, specs, class_ids, class_emb = _toy_training_setup()
    with pytest.raises(DataError, match="zero"):
        crossmodal.train_projection(IdentityBackbone(), records, specs,
                                    class_ids, class_emb, _proj_cfg(epochs=1),
                                    np.random.default_rng(0), hidden=8,
                                    dropout_rate=0.2, val_fraction=0.01)


def test_train_projection_divergence_is_reported_with_its_epoch():
    records, specs, class_ids, class_emb = _toy_training_setup()
    cfg = dataclasses.replace(_proj_cfg(), initial_lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(crossmodal.DivergenceError,
                                                  match="at epoch 0$"):
        crossmodal.train_projection(IdentityBackbone(), records, specs, class_ids,
                                    class_emb, cfg, np.random.default_rng(0),
                                    hidden=8, dropout_rate=0.0, val_fraction=0.2)


def test_best_checkpoint_validation_map_beats_random():
    records, specs, class_ids, class_emb = _toy_training_setup()
    _, report = crossmodal.train_projection(
        IdentityBackbone(), records, specs, class_ids, class_emb,
        _proj_cfg(epochs=8), np.random.default_rng(3), hidden=16,
        dropout_rate=0.0, val_fraction=0.2)
    # one val class, two positives of 12 val clips -> random baseline 1/6
    assert report["best_val_map"] > 2 / 12

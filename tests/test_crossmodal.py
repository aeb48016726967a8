import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from zsat import crossmodal, protocol, semantics
from zsat.crossmodal import ProjectionParams, TrainConfig


def make_params(m=6, n=4, hidden=8, seed=0, dropout=0.0):
    rng = np.random.default_rng(seed)
    p = ProjectionParams.init(m, n, hidden, rng, dropout)
    p.mean = rng.standard_normal(m)
    p.std = np.abs(rng.standard_normal(m)) + 0.5
    return p


# --- projection forward/backward ---------------------------------------------

def test_projection_gradients_match_finite_differences():
    p = make_params()
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 6))
    y = rng.integers(0, 2, (5, 4)).astype(float)
    e = rng.standard_normal((4, 4))
    tensors = {k: getattr(p, k) for k in ProjectionParams.TENSORS}

    def forward():
        out, _ = crossmodal.project_batch(a, p)
        return crossmodal.bce_loss(out @ e.T, y)

    def grads():
        out, cache = crossmodal.project_batch(a, p)
        dlogits = crossmodal.bce_loss_backward(out @ e.T, y)
        _, g = crossmodal.project_backward(dlogits @ e, p, cache)
        return g

    assert fd_gradcheck(tensors, forward, grads, n_coords=60) < 1e-6


def test_project_rejects_dim_mismatch():
    p = make_params(m=6)
    with pytest.raises(ValueError):
        crossmodal.project_batch(np.zeros((2, 7)), p)


def test_project_rejects_nonfinite_input():
    p = make_params()
    bad = np.full((1, 6), np.nan)
    with pytest.raises(ValueError):
        crossmodal.project_batch(bad, p)


def test_classify_invariant_under_monotone_transform():
    """classify depends only on the ordering of logits, so scaling all
    candidate vectors by a positive constant cannot change the argmax."""
    p = make_params()
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6)
    cands = [semantics.SemanticEmbedding(rng.standard_normal(4), f"c{i}")
             for i in range(5)]
    scaled = [semantics.SemanticEmbedding(3.5 * c.vector, c.class_id)
              for c in cands]
    assert crossmodal.classify(a, cands, p) == crossmodal.classify(a, scaled, p)


def test_classify_tie_breaks_to_lowest_id():
    p = make_params()
    a = np.random.default_rng(1).standard_normal(6)
    vec = np.ones(4)
    cands = [semantics.SemanticEmbedding(vec, "z"),
             semantics.SemanticEmbedding(vec.copy(), "a")]
    assert crossmodal.classify(a, cands, p) == "a"


# --- loss -----------------------------------------------------------------------

def test_bce_zero_logit_positive_target_is_ln2():
    assert crossmodal.bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(
        np.log(2.0), abs=1e-12)


@given(st.floats(-1e4, 1e4), st.integers(0, 1))
@settings(max_examples=300)
def test_bce_stable_over_extreme_logits(logit, target):
    loss = crossmodal.bce_loss(np.array([logit]), np.array([float(target)]))
    assert np.isfinite(loss) and loss >= 0


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
    with pytest.raises(ValueError):
        TrainConfig(final_lr=1.0, initial_lr=1e-5)
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=60, decay_start_epoch=50)


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


def test_adamw_rejects_nonfinite_gradient():
    cfg = TrainConfig(initial_lr=1.0, warmup_epochs=0.5, decay_start_epoch=1,
                      decay_end_epoch=2, final_lr=1.0)
    params = {"w": np.ones(2)}
    state = crossmodal.init_adamw_state(params)
    with pytest.raises(crossmodal.GradientError, match="w"):
        crossmodal.adamw_step(params, {"w": np.array([np.nan, 0.0])}, state, 1.0, cfg)


# --- checkpoint round trip ----------------------------------------------------------

def test_projection_checkpoint_round_trip(tmp_path):
    p = make_params(dropout=0.15)
    path = tmp_path / "p.ckpt"
    crossmodal.save_projection(path, p)
    back = crossmodal.load_projection(path)
    for name in ProjectionParams.TENSORS:
        want = getattr(p, name).astype(np.float32)
        assert np.array_equal(getattr(back, name), want.astype(np.float64))
    assert back.dropout_rate == 0.15


# --- training ----------------------------------------------------------------------

class IdentityBackbone:
    """Passes precomputed 'spectrogram' vectors straight through."""

    kind = "identity"

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
            fake = type("S", (), {})()
            fake.values = base + 0.1 * rng.standard_normal(m)
            specs[cid] = fake
    return records, specs, class_ids, class_emb


def _proj_cfg(epochs=3):
    return TrainConfig(initial_lr=1e-2, warmup_epochs=1, decay_start_epoch=2,
                       decay_end_epoch=3, final_lr=1e-4, epochs=epochs,
                       batch_size=4, val_class_fraction=0.2)


def test_train_projection_reports_best_epoch_and_improves():
    records, specs, class_ids, class_emb = _toy_training_setup()
    p, report = crossmodal.train_projection(
        IdentityBackbone(), records, specs, class_ids, class_emb,
        _proj_cfg(), np.random.default_rng(0), hidden=16, dropout_rate=0.0)
    assert 0 <= report["best_epoch"] < 3
    assert report["best_val_map"] == max(report["val_map"])
    assert len(report["per_epoch_loss"]) == 3


def test_train_projection_is_deterministic():
    records, specs, class_ids, class_emb = _toy_training_setup()
    runs = []
    for _ in range(2):
        p, _ = crossmodal.train_projection(
            IdentityBackbone(), records, specs, class_ids, class_emb,
            _proj_cfg(), np.random.default_rng(0), hidden=16, dropout_rate=0.1)
        runs.append(p)
    for name in ProjectionParams.TENSORS:
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def test_train_projection_leaves_backbone_untouched():
    from zsat import backbones
    records, specs, class_ids, class_emb = _toy_training_setup(m=8)
    rng = np.random.default_rng(0)
    cfg = backbones.TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4,
                                      patch_t=1, max_f_patches=2, max_t_patches=1,
                                      embed_dim=6)
    model = backbones.TransformerBackbone(cfg, rng)
    for cid in specs:
        fake = type("S", (), {})()
        fake.values = np.random.default_rng(1).standard_normal((8, 1))
        specs[cid] = fake
    before = {k: v.copy() for k, v in model.params.items()}
    crossmodal.train_projection(model, records, specs, class_ids, class_emb,
                                _proj_cfg(), rng, hidden=8, dropout_rate=0.0)
    for k in before:
        assert np.array_equal(before[k], model.params[k])


def test_val_fraction_zero_classes_raises():
    records, specs, class_ids, class_emb = _toy_training_setup()
    cfg = TrainConfig(initial_lr=1e-2, warmup_epochs=1, decay_start_epoch=2,
                      decay_end_epoch=3, final_lr=1e-4, epochs=1, batch_size=4,
                      val_class_fraction=0.01)
    with pytest.raises(ValueError, match="zero"):
        crossmodal.train_projection(IdentityBackbone(), records, specs,
                                    class_ids, class_emb, cfg,
                                    np.random.default_rng(0), hidden=8)


def test_best_checkpoint_validation_map_beats_random():
    records, specs, class_ids, class_emb = _toy_training_setup()
    _, report = crossmodal.train_projection(
        IdentityBackbone(), records, specs, class_ids, class_emb,
        _proj_cfg(epochs=8), np.random.default_rng(3), hidden=16,
        dropout_rate=0.0)
    # one val class, two positives of 12 val clips -> random baseline 1/6
    assert report["best_val_map"] > 2 / 12

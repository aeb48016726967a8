import dataclasses
import hashlib
import inspect
import re

import numpy as np
import pytest

from conftest import CONV_LAYERS, HEAD_LAYERS, fd_gradcheck, reference_batch_norm2d
from zsat import backbones, checkpoint, crossmodal, dsp, nn, protocol
from zsat.backbones import ClassifierHead, ConvConfig, HeadConfig, TransformerConfig
from zsat.errors import ConfigError, DataError


def small_transformer(dtype=np.float64, seed=0, n_freq_drop=0, n_time_drop=0,
                      n_layers=1):
    cfg = TransformerConfig(d=8, n_heads=2, n_layers=n_layers, patch_f=4, patch_t=4,
                            max_f_patches=3, max_t_patches=4, embed_dim=5,
                            n_freq_drop=n_freq_drop, n_time_drop=n_time_drop)
    return backbones.TransformerBackbone(cfg, np.random.default_rng(seed),
                                         dtype=dtype)


def small_conv(kind, dtype=np.float32):
    """A small CNN14 or VGGish; VGGish windows are 16 frames of 32 mels."""
    cfg = ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4,
                     vggish_time=16, vggish_mels=32)
    return backbones.BACKBONE_KINDS[kind](cfg, np.random.default_rng(0),
                                          dtype=dtype)


def spec_of(values):
    return np.asarray(values, dtype=np.float64)


# --- patching ---------------------------------------------------------------

def test_patchify_grid_shape():
    model = small_transformer()
    x = np.random.default_rng(0).standard_normal((1, 12, 16))
    seq, (flat, rows, cols, fp, tp) = model._token_sequence(x, False, None)
    assert (fp, tp) == (3, 4)
    assert flat.shape == (1, 12, 4 * 4)
    assert seq.shape == (1, 1 + 12, 8)   # class token first


def test_structured_patchout_drops_whole_rows_and_columns():
    model = small_transformer(n_freq_drop=1, n_time_drop=2)
    x = np.random.default_rng(0).standard_normal((1, 12, 16))
    seq, (flat, rows, cols, fp, tp) = model._token_sequence(
        x, True, np.random.default_rng(1))
    assert seq.shape[1] == 1 + (3 - 1) * (4 - 2)
    assert len(set(rows.tolist())) == 2
    assert len(set(cols.tolist())) == 2
    # each surviving token is the patch at a kept (row, column) of the grid
    full, (all_flat, *_) = model._token_sequence(x, False, None)
    grid = all_flat.reshape(3, 4, -1)
    assert np.array_equal(flat.reshape(2, 2, -1), grid[rows][:, cols])


def test_patchout_eval_mode_is_identity():
    model = small_transformer(n_freq_drop=1, n_time_drop=2)
    x = np.random.default_rng(0).standard_normal((1, 12, 16))
    rng = np.random.default_rng(1)
    seq, _ = model._token_sequence(x, False, rng)
    assert seq.shape[1] == 1 + 12
    emb, _ = model.embed_batch(x, rng=rng)
    assert np.array_equal(emb, small_transformer().embed_batch(x)[0])
    # eval mode draws nothing from the generator
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_head_count_below_1_is_a_config_error():
    """No head count below 1 divides `d`: zero heads is a configuration
    error, not a `ZeroDivisionError`, and a negative count is refused."""
    for n_heads in (0, -4):
        with pytest.raises(ConfigError, match="divisible by n_heads"):
            TransformerConfig(d=8, n_heads=n_heads)


def test_patchout_config_validation():
    with pytest.raises(ConfigError, match="drop counts"):
        TransformerConfig(n_freq_drop=-1)
    with pytest.raises(ConfigError, match="drop counts"):
        TransformerConfig(n_time_drop=-1)
    model = small_transformer(n_freq_drop=3)
    with pytest.raises(DataError, match="smaller than the grid"):
        model.embed_batch(np.zeros((1, 12, 16)), train=True,
                          rng=np.random.default_rng(0))


# --- embeddings ------------------------------------------------------------------

def test_transformer_embed_shape_and_determinism():
    model = small_transformer()
    x = spec_of(np.random.default_rng(3).standard_normal((12, 16)))
    a = model.embed([x])
    assert a.shape == (1, 5)
    assert np.array_equal(a, small_transformer().embed([x]))


def test_embed_matches_per_clip_embed_batch_for_every_kind():
    """`Backbone.embed` over clips of mixed lengths is, row for row, the
    embedding of one eval-mode `embed_batch` call per clip, in the model
    dtype."""
    models = {kind: model for kind, (model, _) in _small_backbones().items()}
    assert set(models) == set(backbones.BACKBONE_KINDS)
    rng = np.random.default_rng(4)
    # (mels, frame counts): the transformer grid holds at most 16 frames;
    # VGGish clips span one to three 16-frame windows with a remainder
    shapes = {"transformer": (12, (16, 8, 12)), "cnn14": (32, (32, 48, 40)),
              "vggish": (32, (37, 16, 50))}
    for kind, model in models.items():
        mels, lengths = shapes[kind]
        specs = [spec_of(rng.standard_normal((mels, t))) for t in lengths]
        emb = model.embed(specs)
        assert emb.dtype == model.dtype
        assert emb.shape == (len(specs), model.cfg.embed_dim)
        for row, s in zip(emb, specs):
            one, _ = model.embed_batch(s[None])
            assert np.array_equal(row, one[0])


def test_transformer_last_block_attends_from_the_class_token_only(monkeypatch):
    """The embedding reads only the class token, so in training and in eval
    the last block's attention returns one row per clip and every earlier
    block's one row per token."""
    shapes = []

    def recorded(*args):
        out = attention(*args)
        shapes.append(out[0].shape)
        return out
    attention = nn.attention
    monkeypatch.setattr(nn, "attention", recorded)
    model = small_transformer(n_layers=3, n_freq_drop=1, n_time_drop=1)
    x = np.random.default_rng(0).standard_normal((2, 12, 16))
    model.embed_batch(x)
    model.embed_batch(x, train=True, rng=np.random.default_rng(0))
    # 1 + 3 x 4 tokens in eval, 1 + 2 x 3 after patchout
    assert shapes == [(2, 13, 8), (2, 13, 8), (2, 1, 8), (2, 7, 8), (2, 7, 8), (2, 1, 8)]


def test_transformer_patchout_reduces_sequence_but_keeps_dim():
    model = small_transformer(n_freq_drop=1, n_time_drop=1)
    x = np.random.default_rng(0).standard_normal((2, 12, 16))
    emb, cache = model.embed_batch(x, train=True, rng=np.random.default_rng(0))
    flat, rows, cols, fp, tp = cache[0]
    assert flat.shape[1] == (3 - 1) * (4 - 1)
    assert emb.shape == (2, 5)


def test_cnn14_embed_shape():
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16, embed_dim=6)
    model = backbones.Cnn14Backbone(cfg, np.random.default_rng(0))
    x = spec_of(np.random.default_rng(1).standard_normal((64, 96)))
    emb = model.embed([x])
    assert emb.shape == (1, 6)
    assert np.all(np.isfinite(emb))


def test_vggish_chunk_mean_identity():
    """The embedding of a multi-chunk clip equals the mean of the per-chunk
    embeddings (remainder frames discarded)."""
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16,
                     embed_dim=6, vggish_time=16, vggish_mels=32)
    model = backbones.VggishBackbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    full = rng.standard_normal((32, 37))  # 2 chunks of 16 + 5 leftover frames
    whole, chunk_a, chunk_b = model.embed(
        [spec_of(full), spec_of(full[:, :16]), spec_of(full[:, 16:32])])
    assert np.allclose(whole, (chunk_a + chunk_b) / 2, atol=1e-6)


def test_vggish_batch_of_multi_chunk_clips():
    """N > 1 clips of K > 1 chunks in one call: each clip's embedding is the
    one it gets alone, and a train step gives finite gradients."""
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16,
                     embed_dim=6, vggish_time=16, vggish_mels=32)
    model = backbones.VggishBackbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    clips = rng.standard_normal((2, 32, 53))   # 3 chunks of 16 + 5 leftover frames
    batch, _ = model.embed_batch(clips)
    alone = np.concatenate([model.embed([spec_of(c)]) for c in clips])
    assert not np.allclose(alone[0], alone[1])
    assert np.allclose(batch, alone, atol=1e-6)
    emb, cache = model.embed_batch(clips, train=True)
    grads = model.backward(np.ones_like(emb), cache)
    assert set(grads) == set(model.params)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_vggish_too_short_input_raises():
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16,
                     embed_dim=6, vggish_time=16, vggish_mels=32)
    model = backbones.VggishBackbone(cfg, np.random.default_rng(0))
    with pytest.raises(DataError, match="need at least 16 frames"):
        model.embed([spec_of(np.zeros((32, 10)))])


@pytest.mark.parametrize("kind, channels, shape, error, message", [
    ("cnn14", (2, 2, 3, 3, 4, 4), (1, 31, 64), DataError,
     "input has 31 mel bins and 64 frames; needs at least 32 of each"),
    ("cnn14", (2, 2, 3, 3, 4, 4), (1, 64, 31), DataError,
     "input has 64 mel bins and 31 frames; needs at least 32 of each"),
    ("vggish", (2, 2, 3, 3, 4, 4), (1, 16, 32), DataError, "expected 32 mel bins, got 16"),
    ("vggish", (2, 2, 3, 3, 4), (1, 32, 32), ConfigError,
     "vggish preset needs 6 conv channel counts"),
])
def test_conv_input_rules(kind, channels, shape, error, message):
    """A conv backbone rejects, by name, an input its windows cannot be cut
    from, and VGGish a channel list its fully-connected table cannot size."""
    cfg = ConvConfig(channels=channels, fc_units=6, embed_dim=4,
                     vggish_time=16, vggish_mels=32)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        model = backbones.BACKBONE_KINDS[kind](cfg, np.random.default_rng(0))
        model.embed_batch(np.zeros(shape))


@pytest.mark.parametrize("kind", sorted(backbones.BACKBONE_KINDS))
def test_eval_forward_keeps_no_cache(kind):
    """An eval `embed_batch` returns None in place of its cache; a train one
    returns a cache that `backward` turns into a gradient of every tensor."""
    model, x = _small_backbones()[kind]
    _, cache = model.embed_batch(x[None])
    assert cache is None
    emb, cache = model.embed_batch(x[None], train=True, rng=np.random.default_rng(0))
    grads = model.backward(np.ones_like(emb), cache)
    assert {k: g.shape for k, g in grads.items()} == {
        k: v.shape for k, v in model.params.items()}


@pytest.mark.parametrize("kind", sorted(backbones.BACKBONE_KINDS))
def test_backward_casts_a_wider_demb_to_the_model_dtype(kind):
    """A float32 backbone given a float64 `demb` returns float32 gradients,
    with the bytes the same values in float32 give."""
    model, x = _small_backbones()[kind]

    def grads(dtype):
        emb, cache = model.embed_batch(np.stack([x, -x]), train=True,
                                       rng=np.random.default_rng(0))
        demb = np.random.default_rng(1).standard_normal(emb.shape).astype(np.float32)
        return model.backward(demb.astype(dtype), cache)

    want, got = grads(np.float32), grads(np.float64)
    assert got.keys() == want.keys() == model.params.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype == np.float32, k
        assert got[k].tobytes() == want[k].tobytes(), k


def _float_arrays(value):
    """Every floating-point array in a layer's output, with tuples, lists
    and dicts walked."""
    if isinstance(value, np.ndarray):
        return [value] if np.issubdtype(value.dtype, np.floating) else []
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _float_arrays(v)]
    if isinstance(value, dict):
        return [a for v in value.values() for a in _float_arrays(v)]
    return []


@pytest.mark.parametrize("kind", sorted(backbones.BACKBONE_KINDS))
def test_every_layer_computes_in_the_model_dtype(kind, monkeypatch):
    """A float32 backbone fed float64 log-mels, the dtype `dsp` returns,
    computes every layer output, its embeddings and its gradients in
    float32, in training and in eval."""
    dtypes = []

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            dtypes.extend((name, a.dtype) for a in _float_arrays(out))
            return out
        return recorded
    for name, fn in inspect.getmembers(nn, inspect.isfunction):
        if not name.startswith("_") and fn.__module__ == nn.__name__:
            monkeypatch.setattr(nn, name, wrap(name, fn))
    model, x = _small_backbones()[kind]
    assert x.dtype == np.float64
    batch = np.stack([x, -x])
    emb, _ = model.embed_batch(batch)
    dtypes.append(("eval embed_batch", emb.dtype))
    emb, cache = model.embed_batch(batch, train=True, rng=np.random.default_rng(0))
    dtypes.append(("train embed_batch", emb.dtype))
    grads = model.backward(np.ones_like(emb), cache)
    dtypes.extend((f"gradient {k}", g.dtype) for k, g in grads.items())
    assert any(name == "linear_backward" for name, _ in dtypes)
    assert [(name, dt) for name, dt in dtypes if dt != np.float32] == []
    assert model.dtype == np.float32


def _plain_eval_stack(model):
    """An eval `_stack_forward` for `model` as plain formulas: conv, then
    eval batch norm by the running statistics, then ReLU, per layer."""
    p, st = model.params, model.stats

    def forward(h, train):
        assert not train
        for sfx, _, pool in model.layers():
            h, _ = nn.conv2d(h, p[f"conv_w{sfx}"], p[f"conv_b{sfx}"])
            h, _ = reference_batch_norm2d(h, p[f"bn_g{sfx}"], p[f"bn_b{sfx}"],
                                          st[f"bn_mean{sfx}"], st[f"bn_var{sfx}"], False)
            h = np.maximum(h, 0)
            if pool:
                h, _ = getattr(nn, f"{pool}_pool2d")(h)
        return h, []
    return forward


@pytest.mark.parametrize("kind", ["cnn14", "vggish"])
@pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_conv_eval_folds_batch_norm_into_the_conv(kind, dtype, bound, monkeypatch):
    """With random running statistics, gammas and betas, an eval embedding
    equals conv, eval batch norm and ReLU written as plain formulas, up to
    the rounding of folding batch norm into the conv weights. The draws
    leave every layer's ReLU some live outputs, so no layer passes on its
    bias alone."""
    model = small_conv(kind, dtype=dtype)
    rng = np.random.default_rng(7)
    for sfx, cout, _ in model.layers():
        model.params[f"bn_g{sfx}"][...] = rng.uniform(0.5, 2.0, cout)
        model.params[f"bn_b{sfx}"][...] = rng.uniform(-0.5, 1.0, cout)
        model.stats[f"bn_mean{sfx}"][...] = 0.1 * rng.standard_normal(cout)
        model.stats[f"bn_var{sfx}"][...] = rng.uniform(0.1, 3.0, cout)
    x = rng.standard_normal((2, 32, 48))
    got, _ = model.embed_batch(x)
    monkeypatch.setattr(model, "_stack_forward", _plain_eval_stack(model))
    want, _ = model.embed_batch(x)
    assert got.dtype == want.dtype == dtype
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("kind", ["cnn14", "vggish"])
def test_conv_eval_runs_no_batch_norm_pass(kind, monkeypatch):
    """Eval batch norm is folded into the conv weights, so an eval
    `embed_batch` calls `nn.batch_norm2d` not once; a train one calls it
    once per conv layer."""
    calls = []

    def recorded(*args):
        calls.append(args[5])
        return batch_norm2d(*args)
    batch_norm2d = nn.batch_norm2d
    monkeypatch.setattr(nn, "batch_norm2d", recorded)
    model, x = _small_backbones()[kind]
    model.embed_batch(x[None])
    assert calls == []
    model.embed_batch(np.stack([x, -x]), train=True)
    assert calls == [True] * len(model.layers())


# --- gradients ------------------------------------------------------------------

def _loss_setup(model, x, w):
    """Loss and gradients of train-mode embeddings: gradients are only ever
    taken in train mode, where batch norm normalizes by batch statistics.
    With no patchout drops, a train-mode transformer is its eval function."""
    def forward():
        emb, _ = model.embed_batch(x, train=True)
        return float(np.sum(emb * w) + 0.5 * np.sum(emb ** 2))

    def grads():
        emb, cache = model.embed_batch(x, train=True)
        return model.backward((w + emb).astype(np.float64), cache)

    return forward, grads


def test_transformer_gradients_match_finite_differences():
    """Two layers, so an all-token block feeds the class-token-only last one.
    Softmax ignores a shift shared by every key, so the key biases `bk<i>`
    cannot move the loss: their gradient is zero but for rounding, and is
    checked against zero rather than judged by finite differences."""
    model = small_transformer(dtype=np.float64, n_layers=2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 12, 16))
    w = rng.standard_normal(5)
    forward, grads = _loss_setup(model, x, w)
    key_bias = [k for k in model.params if k.startswith("bk")]
    assert len(key_bias) == 2
    g = grads()
    assert max(np.abs(g[k]).max() for k in key_bias) < 1e-12
    rest = {k: v for k, v in model.params.items() if k not in key_bias}
    assert fd_gradcheck(rest, forward, grads, n_coords=60) < 1e-6


def _conv_gradient_error(kind):
    """Max relative error of a conv backbone's train-mode gradients against
    finite differences."""
    model = small_conv(kind, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 32, 32))
    w = rng.standard_normal(4)
    forward, grads = _loss_setup(model, x, w)
    return fd_gradcheck(model.params, forward, grads, n_coords=40)


def test_cnn14_gradients_match_finite_differences():
    assert _conv_gradient_error("cnn14") < 1e-4


def test_vggish_gradients_match_finite_differences():
    assert _conv_gradient_error("vggish") < 1e-4


def _conv_run_bytes(kind):
    """The bytes of a toy conv backbone's eval embedding, of one train-mode
    `embed_batch` and `backward` with every gradient, and of the batch-norm
    running statistics that step leaves."""
    model = small_conv(kind)
    x = np.random.default_rng(6).standard_normal((2, 32, 32))
    out = {"eval": model.embed([x[0]])}
    emb, cache = model.embed_batch(x, train=True)
    out["train"] = emb
    out.update(model.backward(np.ones_like(emb), cache))
    out.update(model.stats)
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in out.items()}


@pytest.mark.parametrize("kind", ["cnn14", "vggish"])
def test_conv_backbone_bytes_match_stacked_columns(kind, monkeypatch):
    """A conv backbone computes the same bytes, forward, backward and in
    its running statistics, as with `nn.conv2d` building its columns by
    `np.pad` and `np.stack`, and conv backward, batch norm and average
    pooling written as plain formulas that return new arrays."""
    got = _conv_run_bytes(kind)
    for name, reference in CONV_LAYERS.items():
        monkeypatch.setattr(nn, name, reference)
    assert got == _conv_run_bytes(kind)


def _transformer_run_bytes():
    """The bytes of a toy float32 transformer's eval embedding, and of one
    train-mode `embed_batch` (patchout on) and `backward` with every
    gradient. Two layers, so an all-token block feeds the class-token-only
    last one."""
    model = small_transformer(dtype=np.float32, n_freq_drop=1, n_time_drop=1, n_layers=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 12, 16))
    out = {"eval": model.embed_batch(x)[0]}
    out["train"], cache = model.embed_batch(x, train=True, rng=np.random.default_rng(4))
    # in the model dtype, as pretraining passes it
    demb = rng.standard_normal(out["train"].shape).astype(np.float32)
    out.update(model.backward(demb, cache))
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in out.items()}


def test_transformer_bytes_match_plain_layer_formulas(monkeypatch):
    """The transformer computes the same bytes, forward and backward, as with
    GELU, softmax, layer norm, attention and linear written as plain formulas
    that return new arrays and recompute GELU's CDF in its backward."""
    got = _transformer_run_bytes()
    for name, reference in HEAD_LAYERS.items():
        monkeypatch.setattr(nn, name, reference)
    assert got == _transformer_run_bytes()


# --- classification head and pretraining ----------------------------------------

def _toy_pretrain_inputs(n_classes=3, n_clips=6, shape=(12, 16), seed=0):
    rng = np.random.default_rng(seed)
    class_ids = [f"c{i}" for i in range(n_classes)]
    records, specs = [], {}
    for i, c in enumerate(class_ids):
        for j in range(n_clips):
            cid = f"{c}_{j}"
            records.append(protocol.ClipRecord(cid, f"{cid}.wav", (c,), "train"))
            v = rng.standard_normal(shape) + 2.0 * (i == 0)
            specs[cid] = v
    return records, specs, class_ids


def _pretrain_cfg(epochs=2):
    return crossmodal.TrainConfig(initial_lr=1e-3, warmup_epochs=1,
                                  decay_start_epoch=1, decay_end_epoch=2,
                                  final_lr=1e-5, epochs=epochs, batch_size=4)


def test_pretrain_runs_and_updates_parameters():
    records, specs, class_ids = _toy_pretrain_inputs()
    rng = np.random.default_rng(0)
    model = small_transformer(dtype=np.float32)
    head = ClassifierHead(HeadConfig(len(class_ids), 5), rng)
    before = {k: v.copy() for k, v in model.params.items()}
    model, head, history = backbones.pretrain_backbone(
        model, head, records, class_ids, specs, _pretrain_cfg(),
        dsp.AugmentConfig(), rng)
    assert len(history) == 2
    assert all(np.isfinite(history))
    assert any(not np.array_equal(before[k], model.params[k]) for k in before)


def test_pretrain_deterministic_for_fixed_seed():
    outs = []
    for _ in range(2):
        records, specs, class_ids = _toy_pretrain_inputs()
        rng = np.random.default_rng(9)
        model = small_transformer(dtype=np.float32, seed=9, n_freq_drop=1)
        head = ClassifierHead(HeadConfig(len(class_ids), 5), rng)
        model, head, history = backbones.pretrain_backbone(
            model, head, records, class_ids, specs, _pretrain_cfg(),
            dsp.AugmentConfig(mixup_alpha=0.3), rng)
        outs.append((history, {k: v.copy() for k, v in model.params.items()}))
    assert outs[0][0] == outs[1][0]
    for k in outs[0][1]:
        assert np.array_equal(outs[0][1][k], outs[1][1][k])


def test_pretrain_divergence_is_reported_with_its_epoch():
    records, specs, class_ids = _toy_pretrain_inputs()
    rng = np.random.default_rng(0)
    model = small_transformer(dtype=np.float32)
    head = ClassifierHead(HeadConfig(len(class_ids), 5), rng)
    cfg = dataclasses.replace(_pretrain_cfg(), initial_lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(crossmodal.DivergenceError,
                                                  match="at epoch 0$"):
        backbones.pretrain_backbone(model, head, records, class_ids, specs, cfg,
                                    dsp.AugmentConfig(), rng)


def test_pretrain_clips_of_two_lengths_raise_before_any_step():
    records, specs, class_ids = _toy_pretrain_inputs()
    specs[records[-1].clip_id] = specs[records[-1].clip_id][:, :12]
    rng = np.random.default_rng(0)
    model = small_transformer(dtype=np.float32)
    head = ClassifierHead(HeadConfig(len(class_ids), 5), rng)
    before = {k: v.copy() for k, v in model.params.items()}
    state = rng.bit_generator.state
    with pytest.raises(DataError, match="training clips of one length"):
        backbones.pretrain_backbone(model, head, records, class_ids, specs,
                                    _pretrain_cfg(), dsp.AugmentConfig(mixup_alpha=0.3),
                                    rng)
    # nothing was drawn and no parameter moved
    assert rng.bit_generator.state == state
    assert all(np.array_equal(before[k], model.params[k]) for k in before)


@pytest.mark.parametrize("kind", ["transformer", "cnn14", "vggish"])
def test_pretrain_hands_adamw_only_model_dtype_gradients(kind, monkeypatch):
    """Every gradient that pretraining hands AdamW, the head's included, is
    float32 like the float32 model and head."""
    shape = (12, 16) if kind == "transformer" else (32, 32)
    records, specs, class_ids = _toy_pretrain_inputs(shape=shape)
    rng = np.random.default_rng(0)
    model = (small_transformer(dtype=np.float32) if kind == "transformer"
             else small_conv(kind))
    head = ClassifierHead(HeadConfig(len(class_ids), model.cfg.embed_dim), rng)
    seen = set()
    real_adamw = crossmodal.adamw_step

    def recording_adamw(params, grads, state, lr, cfg):
        seen.update((k, g.dtype) for k, g in grads.items())
        real_adamw(params, grads, state, lr, cfg)
    monkeypatch.setattr(crossmodal, "adamw_step", recording_adamw)
    backbones.pretrain_backbone(model, head, records, class_ids, specs,
                                _pretrain_cfg(epochs=1), dsp.AugmentConfig(), rng)
    assert {k for k, _ in seen} == {*(f"bb.{k}" for k in model.params),
                                    "head.weight", "head.bias"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}


def test_pretrain_empty_class_set_raises():
    records, specs, _ = _toy_pretrain_inputs()
    model = small_transformer()
    head = ClassifierHead(HeadConfig(1, 5), np.random.default_rng(0))
    with pytest.raises(DataError, match="empty class set"):
        backbones.pretrain_backbone(model, head, records, [], specs,
                                    _pretrain_cfg(), dsp.AugmentConfig(),
                                    np.random.default_rng(0))


# --- checkpoints ------------------------------------------------------------------

def _small_backbones():
    """One small model of every kind, with an input spectrogram it accepts."""
    rng = np.random.default_rng(0)
    return {"transformer": (small_transformer(dtype=np.float32, n_freq_drop=1,
                                              n_time_drop=2),
                            spec_of(rng.standard_normal((12, 16)))),
            "cnn14": (small_conv("cnn14"), spec_of(rng.standard_normal((32, 32)))),
            "vggish": (small_conv("vggish"), spec_of(rng.standard_normal((32, 32))))}


def _assert_same_backbone(back, model, x):
    assert type(back) is type(model)
    assert back.cfg == model.cfg
    assert set(back.params) == set(model.params)
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert set(back.stats) == set(model.stats)
    for k in model.stats:   # batch-norm running statistics
        assert back.stats[k].dtype == model.stats[k].dtype
        assert np.array_equal(back.stats[k], model.stats[k])
    assert np.allclose(model.embed([x]), back.embed([x]), atol=1e-6)


def test_backbone_checkpoint_round_trip(tmp_path):
    models = _small_backbones()
    assert set(models) == set(backbones.BACKBONE_KINDS)
    rng = np.random.default_rng(7)
    for kind, (model, x) in models.items():
        # running statistics away from their initial values, so a lost or
        # swapped statistic changes the reloaded embedding
        for v in model.stats.values():
            v += rng.uniform(0.1, 0.5, v.shape)
        path = tmp_path / f"{kind}.ckpt"
        model.save(path)
        _assert_same_backbone(backbones.BACKBONE_KINDS[kind].load(path), model, x)


def test_v1_checkpoints_still_load(tmp_path):
    """Checkpoints written before the patchout drop counts moved into the
    transformer config, and before ConvConfig lost its `kind` field."""
    for kind, (model, x) in _small_backbones().items():
        hp = dataclasses.asdict(model.cfg)
        if kind == "transformer":
            del hp["n_freq_drop"], hp["n_time_drop"]
            # without drop counts in the file, the loaded model drops nothing
            model.cfg = dataclasses.replace(model.cfg, n_freq_drop=0, n_time_drop=0)
        else:
            hp["kind"] = kind
            hp["channels"] = list(hp["channels"])
        path = tmp_path / f"{kind}_v1.ckpt"
        checkpoint.save_checkpoint(path, kind, hp, {**model.params, **model.stats})
        _assert_same_backbone(type(model).load(path), model, x)


def _small_modules():
    """One small module of every checkpoint kind."""
    rng = np.random.default_rng(0)
    proj = crossmodal.Projection(crossmodal.ProjectionConfig(6, 4, 8, 0.1), rng)
    proj.stats["mean"][:] = rng.standard_normal(6)
    proj.stats["std"][:] = 0.5 + rng.random(6)
    return {**{kind: model for kind, (model, _) in _small_backbones().items()},
            "head": ClassifierHead(HeadConfig(3, 5), rng), "projection": proj}


def test_backbone_checkpoint_tensors_checked_against_hyperparameters(tmp_path):
    """Every kind of checkpoint reloads as the module it was saved from:
    every tensor in the same dtype, float32, and with the same value. One
    that lacks a tensor they build,
    holds one they do not, or holds one in another shape is a data error
    naming that tensor."""
    # per kind: a tensor to leave out and a matrix to transpose
    picks = {"transformer": ("cls", "head_w"), "cnn14": ("bn_mean0_0", "head_w"),
             "vggish": ("bn_mean0", "head_w"), "head": ("bias", "weight"),
             "projection": ("mean", "w1")}
    modules = _small_modules()
    assert set(modules) == set(picks)
    for kind, module in modules.items():
        path = tmp_path / f"{kind}.ckpt"
        module.save(path)
        back = type(module).load(path)
        assert back.cfg == module.cfg
        for group in ("params", "stats"):
            want, got = getattr(module, group), getattr(back, group)
            assert set(got) == set(want)
            for k, v in want.items():
                assert got[k].dtype == v.dtype == np.float32, (kind, k)
                assert np.array_equal(got[k], v), (kind, k)

        tensors = {**module.params, **module.stats}
        missing, wrong = picks[kind]
        cases = {
            "missing": ({k: v for k, v in tensors.items() if k != missing},
                        rf"missing tensors \['{missing}'\]"),
            "unexpected": ({**tensors, "extra": np.zeros(2)},
                           r"unexpected tensors \['extra'\]"),
            "shape": ({**tensors, wrong: tensors[wrong].T}, wrong),
        }
        for case, (bad, match) in cases.items():
            path = tmp_path / f"{kind}_{case}.ckpt"
            checkpoint.save_checkpoint(path, kind, module.hyperparams(), bad)
            with pytest.raises(DataError, match=match):
                type(module).load(path)


# The SHA-256 of `_init_digest()`. A change to the order, count or kind of
# the draws that build a module changes it, and with it every seed's initial
# weights.
INIT_DIGEST = "bf848e77f36955688b333347a62fe2aaa6e96441d23ef7ddd157e2b4f6bb5cf6"


def _init_digest():
    """SHA-256 over every seed-0 initial tensor (name, dtype, shape and bytes)
    of one toy module per kind, float32 and float64 transformers included,
    each module followed by its generator's next draw."""
    tcfg = TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4, patch_t=4,
                             max_f_patches=3, max_t_patches=4, embed_dim=5)
    ccfg = ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4,
                      vggish_time=16, vggish_mels=32)
    builds = [(backbones.TransformerBackbone, tcfg, {}),
              (backbones.TransformerBackbone, tcfg, {"dtype": np.float64}),
              (backbones.Cnn14Backbone, ccfg, {}), (backbones.VggishBackbone, ccfg, {}),
              (ClassifierHead, HeadConfig(3, 5), {}),
              (crossmodal.Projection, crossmodal.ProjectionConfig(6, 4, 8, 0.1), {})]
    digest = hashlib.sha256()
    for cls, cfg, kwargs in builds:
        rng = np.random.default_rng(0)
        module = cls(cfg, rng, **kwargs)
        for group in ("params", "stats"):
            for name, v in getattr(module, group).items():
                digest.update(f"{group} {name} {v.dtype.str} {v.shape}".encode())
                digest.update(v.tobytes())
        digest.update(rng.random(1).tobytes())
    return digest.hexdigest()


def test_initial_tensors_and_draws_are_pinned():
    assert _init_digest() == INIT_DIGEST


def test_load_draws_nothing(tmp_path, monkeypatch):
    """`Module.load` of every kind never makes a generator."""
    modules = _small_modules()
    for kind, module in modules.items():
        module.save(tmp_path / f"{kind}.ckpt")

    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was made")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for kind, module in modules.items():
        assert type(module).load(tmp_path / f"{kind}.ckpt").cfg == module.cfg


def test_checkpoint_kind_mismatch(tmp_path):
    model = small_transformer(dtype=np.float32)
    path = tmp_path / "bb.ckpt"
    model.save(path)
    with pytest.raises(DataError, match="checkpoint kind 'transformer'"):
        checkpoint.load_checkpoint(path, expected_kind="cnn14")


def test_interrupted_checkpoint_write_keeps_previous(tmp_path):
    """A write that fails half way leaves the previous checkpoint loadable
    and no temporary file behind."""
    path = tmp_path / "bb.ckpt"
    checkpoint.save_checkpoint(path, "head", {"n": 1}, {"w": np.ones(3)})
    before = path.read_bytes()
    # "b" is written after "a"; its conversion to float32 raises mid-write
    with pytest.raises(ValueError):
        checkpoint.save_checkpoint(path, "head", {"n": 2},
                                   {"a": np.zeros(4), "b": np.array(["x"])})
    assert path.read_bytes() == before
    _, hp, tensors = checkpoint.load_checkpoint(path, "head")
    assert hp == {"n": 1} and np.array_equal(tensors["w"], np.ones(3))
    assert [p.name for p in tmp_path.iterdir()] == ["bb.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError, match="bad magic"):
        checkpoint.load_checkpoint(path, "head")


def test_cnn14_checkpoint_round_trip_with_bn_stats(tmp_path):
    cfg = ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4)
    model = backbones.Cnn14Backbone(cfg, np.random.default_rng(0))
    for v in model.stats.values():
        v += np.random.default_rng(2).uniform(0.1, 0.5, v.shape)
    x = spec_of(np.random.default_rng(1).standard_normal((32, 32)))
    path = tmp_path / "cnn.ckpt"
    model.save(path)
    back = backbones.Cnn14Backbone.load(path)
    assert np.allclose(model.embed([x]), back.embed([x]), atol=1e-6)


@pytest.mark.parametrize("kind", ["cnn14", "vggish"])
def test_conv_eval_after_training_equals_eval_after_reload(kind, tmp_path):
    """Training moves the running statistics, which are held in the model
    dtype like every tensor, so the trained model and its reloaded
    checkpoint give the same embedding bytes."""
    model, x = _small_backbones()[kind]
    model.embed_batch(np.stack([x, 2 * x]), train=True)
    path = tmp_path / f"{kind}.ckpt"
    model.save(path)
    back = type(model).load(path)
    assert np.array_equal(model.embed([x]), back.embed([x]))


def test_conv_checkpoint_without_channels_is_a_data_error(tmp_path):
    """An empty `channels` list builds no conv stack: loading such a file
    is a data error naming the field, not an `IndexError`."""
    path = tmp_path / "cnn.ckpt"
    hp = {**dataclasses.asdict(ConvConfig(fc_units=6, embed_dim=4)), "channels": []}
    checkpoint.save_checkpoint(path, "cnn14", hp, {})
    with pytest.raises(DataError, match="channels"):
        backbones.Cnn14Backbone.load(path)
    for channels in ((), (4, 0, 4, 4, 4, 4), (4.0, 4, 4, 4, 4, 4)):
        with pytest.raises(ConfigError, match="channels"):
            ConvConfig(channels=channels)


def test_checkpoint_hyperparameter_of_a_wrong_type_is_a_data_error(tmp_path):
    """A hyperparameter of the wrong type is a data error naming the field,
    found when the file is loaded, not once the model runs; a list comes
    back as the tuple that was saved."""
    tcfg = TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4, patch_t=4,
                             max_f_patches=3, max_t_patches=4, embed_dim=5)
    model = backbones.TransformerBackbone(tcfg, np.random.default_rng(0))
    tensors = {**model.params, **model.stats}
    for field, value in (("n_heads", 4.0), ("patch_f", True), ("n_layers", "1")):
        path = tmp_path / f"{field}.ckpt"
        checkpoint.save_checkpoint(path, "transformer",
                                   {**model.hyperparams(), field: value}, tensors)
        with pytest.raises(DataError, match=rf"{field} must be an integer, not "
                                            rf"{type(value).__name__}"):
            backbones.TransformerBackbone.load(path)
    ccfg = ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4)
    conv = backbones.Cnn14Backbone(ccfg, np.random.default_rng(0))
    conv.save(tmp_path / "cnn.ckpt")
    assert backbones.Cnn14Backbone.load(tmp_path / "cnn.ckpt").cfg.channels == ccfg.channels

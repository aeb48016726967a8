import dataclasses

import numpy as np
import pytest

from conftest import fd_gradcheck
from zsat import backbones, checkpoint, crossmodal, dsp, protocol
from zsat.backbones import ClassifierHead, ConvConfig, TransformerConfig


def small_transformer(dtype=np.float64, seed=0, n_freq_drop=0, n_time_drop=0):
    cfg = TransformerConfig(d=8, n_heads=2, n_layers=1, patch_f=4, patch_t=4,
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
    return dsp.MelSpectrogram(np.asarray(values, dtype=np.float64),
                              dsp.MelConfig(n_mels=values.shape[0]))


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


def test_patchout_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(n_freq_drop=-1)
    with pytest.raises(ValueError):
        TransformerConfig(n_time_drop=-1)
    model = small_transformer(n_freq_drop=3)
    with pytest.raises(ValueError, match="smaller than the grid"):
        model.embed_batch(np.zeros((1, 12, 16)), train=True,
                          rng=np.random.default_rng(0))


# --- embeddings ------------------------------------------------------------------

def test_transformer_embed_shape_and_determinism():
    model = small_transformer()
    x = spec_of(np.random.default_rng(3).standard_normal((12, 16)))
    a, _ = model.embed_batch(x.values[None])
    b = model.embed(x)
    assert b.shape == (5,)
    assert np.array_equal(a[0], b)


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
    emb = model.embed(x)
    assert emb.shape == (6,)
    assert np.all(np.isfinite(emb))


def test_vggish_chunk_mean_identity():
    """The embedding of a multi-chunk clip equals the mean of the per-chunk
    embeddings (remainder frames discarded)."""
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16,
                     embed_dim=6, vggish_time=16, vggish_mels=32)
    model = backbones.VggishBackbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    full = rng.standard_normal((32, 37))  # 2 chunks of 16 + 5 leftover frames
    whole = model.embed(spec_of(full))
    chunk_a = model.embed(spec_of(full[:, :16]))
    chunk_b = model.embed(spec_of(full[:, 16:32]))
    assert np.allclose(whole, (chunk_a + chunk_b) / 2, atol=1e-6)


def test_vggish_too_short_input_raises():
    cfg = ConvConfig(channels=(4, 4, 8, 8, 8, 8), fc_units=16,
                     embed_dim=6, vggish_time=16, vggish_mels=32)
    model = backbones.VggishBackbone(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.embed(spec_of(np.zeros((32, 10))))


# --- gradients ------------------------------------------------------------------

def _loss_setup(model, x, w):
    def forward():
        emb, _ = model.embed_batch(x)
        return float(np.sum(emb * w) + 0.5 * np.sum(emb ** 2))

    def grads():
        emb, cache = model.embed_batch(x)
        return model.backward((w + emb).astype(np.float64), cache)

    return forward, grads


def test_transformer_gradients_match_finite_differences():
    model = small_transformer(dtype=np.float64)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 12, 16))
    w = rng.standard_normal(5)
    forward, grads = _loss_setup(model, x, w)
    assert fd_gradcheck(model.params, forward, grads, n_coords=60) < 1e-4


def test_cnn14_gradients_match_finite_differences():
    model = small_conv("cnn14", dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 32, 32))
    w = rng.standard_normal(4)

    # gradients are only ever taken in train mode, where batch norm
    # normalizes by batch statistics
    def forward():
        emb, _ = model.embed_batch(x, train=True)
        return float(np.sum(emb * w) + 0.5 * np.sum(emb ** 2))

    def grads():
        emb, cache = model.embed_batch(x, train=True)
        return model.backward((w + emb).astype(np.float64), cache)

    assert fd_gradcheck(model.params, forward, grads, n_coords=40) < 1e-4


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
            specs[cid] = dsp.MelSpectrogram(v, dsp.MelConfig(n_mels=shape[0]))
    return records, specs, class_ids


def _pretrain_cfg(epochs=2):
    return crossmodal.TrainConfig(initial_lr=1e-3, warmup_epochs=1,
                                  decay_start_epoch=1, decay_end_epoch=2,
                                  final_lr=1e-5, epochs=epochs, batch_size=4)


def test_pretrain_runs_and_updates_parameters():
    records, specs, class_ids = _toy_pretrain_inputs()
    rng = np.random.default_rng(0)
    model = small_transformer(dtype=np.float32)
    head = ClassifierHead.init(len(class_ids), 5, rng)
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
        head = ClassifierHead.init(len(class_ids), 5, rng)
        model, head, history = backbones.pretrain_backbone(
            model, head, records, class_ids, specs, _pretrain_cfg(),
            dsp.AugmentConfig(mixup_enabled=True, mixup_alpha=0.3), rng)
        outs.append((history, {k: v.copy() for k, v in model.params.items()}))
    assert outs[0][0] == outs[1][0]
    for k in outs[0][1]:
        assert np.array_equal(outs[0][1][k], outs[1][1][k])


def test_pretrain_empty_class_set_raises():
    records, specs, _ = _toy_pretrain_inputs()
    model = small_transformer()
    head = ClassifierHead.init(1, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
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
    for k in model.stats:   # batch-norm running statistics, stored as float32
        assert back.stats[k].dtype == np.float64
        assert np.array_equal(back.stats[k], model.stats[k].astype(np.float32))
    assert np.allclose(model.embed(x), back.embed(x), atol=1e-6)


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
        checkpoint.save_backbone(path, model)
        _assert_same_backbone(checkpoint.load_backbone(path, kind), model, x)


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
        _assert_same_backbone(checkpoint.load_backbone(path), model, x)


def test_checkpoint_kind_mismatch(tmp_path):
    model = small_transformer(dtype=np.float32)
    path = tmp_path / "bb.ckpt"
    checkpoint.save_backbone(path, model)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_checkpoint(path, expected_kind="cnn14")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_checkpoint(path)


def test_cnn14_checkpoint_round_trip_with_bn_stats(tmp_path):
    cfg = ConvConfig(channels=(2, 2, 3, 3, 4, 4), fc_units=6, embed_dim=4)
    model = backbones.Cnn14Backbone(cfg, np.random.default_rng(0))
    for v in model.stats.values():
        v += np.random.default_rng(2).uniform(0.1, 0.5, v.shape)
    x = spec_of(np.random.default_rng(1).standard_normal((32, 32)))
    path = tmp_path / "cnn.ckpt"
    checkpoint.save_backbone(path, model)
    back = checkpoint.load_backbone(path)
    assert np.allclose(model.embed(x), back.embed(x), atol=1e-6)

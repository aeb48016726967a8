"""Audio embedding backbones behind one `Backbone` interface: a patchout
spectrogram transformer, an arbitrary-length pooling convnet, and a
fixed-window convnet, plus supervised multi-label pretraining with a
classification head."""

from __future__ import annotations

import numpy as np

from . import crossmodal, dsp, nn, protocol
from .checkpoint import Module
from .errors import ConfigError, Count, DataError, settings


@settings
class TransformerConfig:
    d: Count = 768
    n_heads: Count = 12
    n_layers: Count = 12
    patch_f: Count = 16
    patch_t: Count = 16
    max_f_patches: Count = 8
    max_t_patches: Count = 64
    embed_dim: Count = 768
    ffn_mult: Count = 4
    # structured patchout: whole grid rows (frequency) and columns (time)
    # dropped from the token sequence in training only
    n_freq_drop: int = 0
    n_time_drop: int = 0

    def __post_init__(self):
        if self.d % self.n_heads != 0:
            raise ConfigError("d must be divisible by n_heads")
        if self.n_freq_drop < 0 or self.n_time_drop < 0:
            raise ConfigError("drop counts must be >= 0")

    def grid(self, f: int, t: int, train: bool) -> tuple[int, int]:
        """The patch grid (rows F, columns T) of an (f, t) input. In
        training, patchout must leave a row and a column of it."""
        pf, pt = self.patch_f, self.patch_t
        if f < pf or t < pt:
            raise DataError(f"input {f}x{t} smaller than one {pf}x{pt} patch")
        fp, tp = f // pf, t // pt
        if fp > self.max_f_patches or tp > self.max_t_patches:
            raise DataError("input grid exceeds configured positional tables")
        if train and (self.n_freq_drop >= fp or self.n_time_drop >= tp):
            raise DataError("patchout drops must be smaller than the grid")
        return fp, tp


@settings
class ConvConfig:
    channels: tuple[Count, ...] = (64, 128, 256, 512, 1024, 2048)
    fc_units: Count = 2048
    embed_dim: Count = 768
    vggish_time: Count = 96
    vggish_mels: Count = 64

    def __post_init__(self):
        if not self.channels:
            raise ConfigError("conv channels must be a non-empty list")


def _linear(w: str, b: str, fan_out: int, fan_in: int) -> list:
    """Table rows of a linear layer: a "uniform" weight and a zero bias."""
    return [(w, (fan_out, fan_in), "uniform", True), (b, (fan_out,), "zeros", True)]


def _affine(g: str, b: str, d: int) -> list:
    """Table rows of a norm layer's scale (ones) and shift (zeros)."""
    return [(g, (d,), "ones", True), (b, (d,), "zeros", True)]


def _choose_drops(size: int, n_drop: int, rng: np.random.Generator) -> np.ndarray:
    """Surviving indices after dropping n_drop of `size` uniformly w/o replacement."""
    if n_drop == 0:
        return np.arange(size)
    dropped = rng.choice(size, size=n_drop, replace=False)
    return np.setdiff1d(np.arange(size), dropped)


class Backbone(Module):
    """Interface shared by the embedding backbones, and their one pipeline:
    cast the (N, f, t) spectrograms once to `dtype`, cut each clip into
    windows (`_windows`), run the kind's `_body` to one feature row per
    window, run the fully-connected chain of `fc_layers()` rows (name, out,
    in), a ReLU between each two layers and the embedding head last, and
    average each clip's windows. `backward` mirrors it.

    A subclass sets `config_key` (the ExperimentConfig field holding its
    settings) and defines `_body_tensors`, `_body`, `_body_backward` and
    `fc_layers`. Only training differentiates a backbone: an eval
    `embed_batch` returns `None` in place of its cache, and `backward` takes
    only a train-mode cache.
    """

    config_key: str

    def tensors(self) -> list:
        rows = self._body_tensors()
        for name, fan_out, fan_in in self.fc_layers():
            rows += _linear(f"{name}_w", f"{name}_b", fan_out, fan_in)
        return rows

    def _windows(self, x: np.ndarray):
        """(windows, windows per clip): the whole clip is its one window."""
        return x, 1

    def embed_batch(self, x: np.ndarray, train: bool = False,
                    rng: np.random.Generator | None = None):
        """x: (N, f, t) of any float dtype -> (embeddings (N, m) in `dtype`,
        cache). `train` turns on patchout and batch statistics; `rng` draws
        patchout's drops."""
        p = self.params
        windows, per = self._windows(x.astype(self.dtype, copy=False))
        h, c_body = self._body(windows, train, rng)
        fc_in = []   # each layer's input; a ReLU output is > 0 where its input is
        for k, (name, _, _) in enumerate(self.fc_layers()):
            fc_in.append(nn.relu(h, out=h) if k else h)
            h = nn.linear(fc_in[k], p[f"{name}_w"], p[f"{name}_b"])
        emb = h.reshape(-1, per, h.shape[1]).mean(axis=1)
        return emb, (c_body, fc_in, per) if train else None

    def backward(self, demb: np.ndarray, cache) -> dict:
        """The gradient of every tensor in `params`, in `dtype`, from `demb`."""
        p = self.params
        c_body, fc_in, per = cache
        dh = np.repeat(demb.astype(self.dtype, copy=False) / per, per, axis=0)
        grads = {}
        for k, (name, _, _) in reversed(list(enumerate(self.fc_layers()))):
            dh, grads[f"{name}_w"], grads[f"{name}_b"] = nn.linear_backward(
                dh, fc_in[k], p[f"{name}_w"])
            if k:
                dh = nn.relu_backward(dh, fc_in[k])
        return self._body_backward(dh, c_body, grads)

    def embed(self, specs: list[np.ndarray]) -> np.ndarray:
        """Eval-mode embeddings (N, m) in `dtype` of a list of (f, t) clips.
        Each clip is its own `embed_batch` call, so lengths may differ."""
        return np.stack([self.embed_batch(s[None])[0][0] for s in specs])


class TransformerBackbone(Backbone):
    """Pre-norm transformer over non-overlapping spectrogram patches with a
    class token and disentangled frequency/time positional tables; its body
    ends at the class token's row of the final layer norm."""

    kind = "transformer"
    config_type = TransformerConfig
    config_key = "transformer"

    def _body_tensors(self) -> list:
        cfg = self.cfg
        d, h = cfg.d, cfg.ffn_mult * cfg.d
        rows = [*_linear("proj_w", "proj_b", d, cfg.patch_f * cfg.patch_t),
                ("cls", (d,), "normal", True),
                ("pos_f", (cfg.max_f_patches, d), "normal", True),
                ("pos_t", (cfg.max_t_patches, d), "normal", True)]
        for i in range(cfg.n_layers):
            rows += _affine(f"ln1_g{i}", f"ln1_b{i}", d)
            for nm in ("q", "k", "v", "o"):
                rows += _linear(f"w{nm}{i}", f"b{nm}{i}", d, d)
            rows += [*_affine(f"ln2_g{i}", f"ln2_b{i}", d),
                     *_linear(f"ffn_w1_{i}", f"ffn_b1_{i}", h, d),
                     *_linear(f"ffn_w2_{i}", f"ffn_b2_{i}", d, h)]
        return [*rows, *_affine("lnf_g", "lnf_b", d)]

    def fc_layers(self) -> list:
        return [("head", self.cfg.embed_dim, self.cfg.d)]

    # -- patch handling -----------------------------------------------------

    def _token_sequence(self, x, train: bool, rng):
        """Cut x (N, f, t) into flattened patches (N, F, T, pf*pt) on the
        grid (F, T), project surviving patches, add positions, prepend class
        token. In training, patchout drops whole grid rows, then whole columns."""
        p, cfg = self.params, self.cfg
        pf, pt = cfg.patch_f, cfg.patch_t
        n, f, t = x.shape
        fp, tp = cfg.grid(f, t, train)
        v = x[:, :fp * pf, :tp * pt].reshape(n, fp, pf, tp, pt)
        patches = v.transpose(0, 1, 3, 2, 4).reshape(n, fp, tp, pf * pt)
        rows = _choose_drops(fp, cfg.n_freq_drop if train else 0, rng)
        cols = _choose_drops(tp, cfg.n_time_drop if train else 0, rng)
        sel = patches[:, rows][:, :, cols]            # (N, R, C, pf*pt)
        n, r, c, pdim = sel.shape
        flat = sel.reshape(n, r * c, pdim)
        tok = nn.linear(flat, p["proj_w"], p["proj_b"])
        pos = p["pos_f"][rows][:, None, :] + p["pos_t"][cols][None, :, :]
        tok = tok + pos.reshape(1, r * c, -1)
        cls = np.broadcast_to(p["cls"], (n, 1, self.cfg.d))
        return np.concatenate([cls, tok], axis=1), (flat, rows, cols)

    # -- forward / backward -------------------------------------------------

    def _block(self, i: int, h: np.ndarray, rows: slice):
        """Block i on h (N, T, d) -> (its output rows `rows`, cache). Every
        token gives keys and values; only `rows` are computed past them.
        `_body` gives the last block the class token, the one row read."""
        p = self.params
        a, c_ln1 = nn.layer_norm(h, p[f"ln1_g{i}"], p[f"ln1_b{i}"])
        att, c_att = nn.attention(a, *(p[f"{wb}{nm}{i}"] for wb in "wb" for nm in "qkvo"),
                                  self.cfg.n_heads, rows)
        h1 = h[:, rows] + att
        b, c_ln2 = nn.layer_norm(h1, p[f"ln2_g{i}"], p[f"ln2_b{i}"])
        f1 = nn.linear(b, p[f"ffn_w1_{i}"], p[f"ffn_b1_{i}"])
        cdf = np.empty_like(f1)
        f2 = nn.linear(nn.gelu(f1, cdf), p[f"ffn_w2_{i}"], p[f"ffn_b2_{i}"])
        return h1 + f2, (i, rows, c_ln1, c_att, c_ln2, b, f1, cdf)

    def _block_backward(self, dh: np.ndarray, cache, grads: dict) -> np.ndarray:
        """The gradient of a block's input from `dh`, that of its output
        rows; adds the block's parameter gradients to `grads`."""
        i, rows, c_ln1, c_att, c_ln2, b, f1, cdf = cache
        # f1 * cdf is the forward's GELU output, byte for byte
        dg, grads[f"ffn_w2_{i}"], grads[f"ffn_b2_{i}"] = nn.linear_backward(
            dh, f1 * cdf, self.params[f"ffn_w2_{i}"])
        df1 = nn.gelu_backward(dg, f1, cdf)
        db, grads[f"ffn_w1_{i}"], grads[f"ffn_b1_{i}"] = nn.linear_backward(
            df1, b, self.params[f"ffn_w1_{i}"])
        dh1, grads[f"ln2_g{i}"], grads[f"ln2_b{i}"] = nn.layer_norm_backward(db, c_ln2)
        dh1 += dh
        da, att_grads = nn.attention_backward(dh1, c_att)
        grads.update({f"{nm}{i}": g for nm, g in att_grads.items()})
        dskip, grads[f"ln1_g{i}"], grads[f"ln1_b{i}"] = nn.layer_norm_backward(da, c_ln1)
        dskip[:, rows] += dh1
        return dskip

    def _body(self, x: np.ndarray, train: bool, rng):
        """x: (N, f, t) -> (the class token's rows (N, d), cache). `train`
        turns patchout on; `rng` draws the dropped rows and columns."""
        p, n_layers = self.params, self.cfg.n_layers
        h, patch_cache = self._token_sequence(x, train, rng)
        blocks = []
        for i in range(n_layers):
            h, block = self._block(i, h, slice(0, 1) if i == n_layers - 1 else slice(None))
            if train:
                blocks.append(block)
        y, c_lnf = nn.layer_norm(h, p["lnf_g"], p["lnf_b"])
        return y[:, 0, :], (patch_cache, blocks, c_lnf)

    def _body_backward(self, dcls: np.ndarray, cache, grads: dict) -> dict:
        p, cfg = self.params, self.cfg
        (flat, rows, cols), blocks, c_lnf = cache
        dh, grads["lnf_g"], grads["lnf_b"] = nn.layer_norm_backward(dcls[:, None, :], c_lnf)
        for block in reversed(blocks):
            dh = self._block_backward(dh, block, grads)
        grads["cls"] = dh[:, 0, :].sum(axis=0)
        dtok = dh[:, 1:, :]
        dpos = dtok.sum(axis=0).reshape(rows.size, cols.size, cfg.d)
        grads["pos_f"] = np.zeros_like(p["pos_f"])
        grads["pos_t"] = np.zeros_like(p["pos_t"])
        np.add.at(grads["pos_f"], rows, dpos.sum(axis=1))
        np.add.at(grads["pos_t"], cols, dpos.sum(axis=0))
        # `nn.linear_backward`'s dw and db; nothing reads the patches' gradient
        dtok = dtok.reshape(-1, cfg.d)
        grads["proj_w"], grads["proj_b"] = dtok.T @ flat.reshape(len(dtok), -1), dtok.sum(axis=0)
        return grads


class ConvBackbone(Backbone):
    """A body of bias-free 3x3 conv (batch norm would cancel a bias) -> batch
    norm -> ReLU -> optional 2x2 pooling, pooled to features. A subclass
    lists its conv layers in `layers()` as (name suffix, output channels,
    pooling "avg" | "max" | None) and defines `fc_layers`, `_features` and
    `_features_backward`."""

    config_type = ConvConfig
    config_key = "conv"

    def _body_tensors(self) -> list:
        rows, cin = [], 1
        for sfx, cout, _ in self.layers():
            rows += [(f"conv_w{sfx}", (cout, cin, 3, 3), "uniform", True),
                     *_affine(f"bn_g{sfx}", f"bn_b{sfx}", cout),
                     (f"bn_mean{sfx}", (cout,), "zeros", False),
                     (f"bn_var{sfx}", (cout,), "ones", False)]
            cin = cout
        return rows

    def _body(self, x: np.ndarray, train: bool, rng):
        """x: (N, f, t) windows -> (features, cache); nothing here draws
        from `rng`. `train` normalizes batch norm by batch statistics and
        keeps the per-layer caches `_body_backward` reads. Eval batch norm is
        a fixed affine map: each layer folds it into its conv weight and bias
        for this call alone, so eval runs conv and ReLU, in place on the conv
        output, and keeps one folded weight at a time."""
        p, st = self.params, self.stats
        h, caches = x[:, None, :, :], []
        for sfx, _, pool in self.layers():
            w = p[f"conv_w{sfx}"]
            bn = (p[f"bn_g{sfx}"], p[f"bn_b{sfx}"], st[f"bn_mean{sfx}"], st[f"bn_var{sfx}"])
            if train:
                h, c_conv = nn.conv2d(h, w)
                pre, c_bn = nn.batch_norm2d(h, *bn, True)
                h = nn.relu(pre)
            else:
                h = nn.conv2d(h, *nn.fold_batch_norm2d(w, *bn))[0]
                h = nn.relu(h, out=h)
            c_pool = None
            if pool:
                # looked up per call, so a wrapper installed on `nn` sees it
                h, c_pool = getattr(nn, f"{pool}_pool2d")(h)
            if train:
                caches.append((c_conv, c_bn, pre, c_pool))
        h, c_feat = self._features(h)
        return h, (caches, c_feat)

    def _body_backward(self, dfeat: np.ndarray, cache, grads: dict) -> dict:
        """Nothing reads the gradient of the input spectrogram, so the first
        conv layer gives its weight gradient alone."""
        caches, c_feat = cache
        dh = self._features_backward(dfeat, c_feat)
        for k, ((sfx, _, pool), (c_conv, c_bn, pre, c_pool)) in enumerate(zip(
                reversed(self.layers()), reversed(caches), strict=True)):
            if pool:
                dh = getattr(nn, f"{pool}_pool2d_backward")(dh, c_pool)
            dh = nn.relu_backward(dh, pre)
            dh, grads[f"bn_g{sfx}"], grads[f"bn_b{sfx}"] = nn.batch_norm2d_backward(dh, c_bn)
            if k == len(caches) - 1:
                grads[f"conv_w{sfx}"] = nn.conv2d_param_backward(dh, c_conv)
            else:
                dh, grads[f"conv_w{sfx}"], _ = nn.conv2d_backward(dh, c_conv)
        return grads


class Cnn14Backbone(ConvBackbone):
    """Deep convnet: 6 blocks of two 3x3 convs with batch norm and ReLU,
    2x2 average pooling between blocks; pooled features pass a wide
    fully-connected layer and an embedding head. Accepts any input length."""

    kind = "cnn14"
    POOLED_BLOCKS = 5  # no pooling after the last block

    def layers(self) -> list:
        return [(f"{i}_{j}", cout, "avg" if j == 1 and i < self.POOLED_BLOCKS else None)
                for i, cout in enumerate(self.cfg.channels) for j in range(2)]

    def fc_layers(self) -> list:
        cfg = self.cfg
        return [("fc", cfg.fc_units, cfg.channels[-1]), ("head", cfg.embed_dim, cfg.fc_units)]

    def _windows(self, x: np.ndarray):
        """The whole clip is its one window."""
        need = 2 ** self.POOLED_BLOCKS
        if min(x.shape[1:]) < need:
            raise DataError(f"input has {x.shape[1]} mel bins and {x.shape[2]} "
                            f"frames; needs at least {need} of each")
        return x, 1

    def _features(self, fmap: np.ndarray):
        """(N, C, f', t') -> (N, C): the mean over frequency, then its mean
        plus its max over time."""
        over_f = fmap.mean(axis=2)                 # (N, C, t')
        arg_t = over_f.argmax(axis=2)
        max_t = np.take_along_axis(over_f, arg_t[:, :, None], axis=2)[:, :, 0]
        return over_f.mean(axis=2) + max_t, (fmap.shape, over_f.shape, arg_t)

    def _features_backward(self, dfeat: np.ndarray, cache) -> np.ndarray:
        fshape, oshape, arg_t = cache
        dover = np.zeros(oshape, dtype=dfeat.dtype)
        dover += dfeat[:, :, None] / oshape[2]     # mean over time
        np.put_along_axis(dover, arg_t[:, :, None],
                          np.take_along_axis(dover, arg_t[:, :, None], axis=2)
                          + dfeat[:, :, None], axis=2)
        return np.broadcast_to(dover[:, :, None, :] / fshape[2], fshape).astype(dfeat.dtype)


class VggishBackbone(ConvBackbone):
    """Fixed-window convnet: 6 conv layers with batch norm and ReLU, max
    pooling, two wide fully-connected layers. Longer inputs are split into
    fixed-length chunks whose embeddings are averaged."""

    kind = "vggish"
    # max pooling after these conv layer indices (0-based)
    POOL_AFTER = (0, 1, 3, 5)

    def layers(self) -> list:
        return [(f"{i}", cout, "max" if i in self.POOL_AFTER else None)
                for i, cout in enumerate(self.cfg.channels)]

    def fc_layers(self) -> list:
        cfg = self.cfg
        if len(cfg.channels) != 6:
            raise ConfigError("vggish preset needs 6 conv channel counts")
        pooled = 2 ** len(self.POOL_AFTER)
        if min(cfg.vggish_time, cfg.vggish_mels) < pooled:
            raise ConfigError(f"vggish window {cfg.vggish_time}x{cfg.vggish_mels} is "
                              f"smaller than its {pooled}x{pooled} max pooling")
        ht, wf = cfg.vggish_time // pooled, cfg.vggish_mels // pooled
        return [("fc1", cfg.fc_units, cfg.channels[-1] * ht * wf),
                ("fc2", cfg.fc_units, cfg.fc_units), ("head", cfg.embed_dim, cfg.fc_units)]

    def _windows(self, x: np.ndarray):
        """Every clip's t//chunk chunks of (t_chunk, f), clip-major; the
        trailing remainder is discarded."""
        tlen = self.cfg.vggish_time
        n, f, t = x.shape
        if f != self.cfg.vggish_mels:
            raise DataError(f"expected {self.cfg.vggish_mels} mel bins, got {f}")
        if t < tlen:
            raise DataError(f"need at least {tlen} frames, got {t}")
        per = t // tlen
        return x[:, :, :per * tlen].transpose(0, 2, 1).reshape(n * per, tlen, f), per

    def _features(self, fmap: np.ndarray):
        return fmap.reshape(len(fmap), -1), fmap.shape

    def _features_backward(self, dfeat: np.ndarray, shape) -> np.ndarray:
        return dfeat.reshape(shape)


BACKBONE_KINDS = {cls.kind: cls for cls in
                  (TransformerBackbone, Cnn14Backbone, VggishBackbone)}


# ---------------------------------------------------------------------------
# Supervised pretraining


@settings
class HeadConfig:
    n_classes: int   # |C_trn|
    m: int           # backbone embedding dim


class ClassifierHead(Module):
    """Linear multi-label classifier over the training classes, trained
    with the backbone: `weight` (|C_trn|, m) and `bias` (|C_trn|,)."""

    kind = "head"
    config_type = HeadConfig

    def tensors(self) -> list:
        return _linear("weight", "bias", self.cfg.n_classes, self.cfg.m)


def pretrain_backbone(model, head: ClassifierHead, manifest, class_ids: list,
                      spectrograms: dict, cfg, aug_cfg, rng,
                      epochs: int | None = None):
    """Multi-label BCE pretraining of a backbone plus classification head.

    `manifest` is a list of records with .clip_id/.tags/.split; `spectrograms`
    maps clip id -> (f, t) log-mel array. Mixup runs when `aug_cfg.mixup_alpha > 0`.
    Trains `model` and `head` in place and returns (model, head, per-epoch
    mean loss history). Deterministic for a fixed rng seed (single-threaded).
    """
    if not class_ids:
        raise DataError("empty class set")
    train_records = protocol.training_records(manifest, class_ids)
    if not train_records:
        raise DataError("no training clips tagged with the given classes")
    if len({spectrograms[r.clip_id].shape[1] for r in train_records}) > 1:
        raise DataError("pretraining batches need training clips of one length")
    params = {**{f"bb.{k}": v for k, v in model.params.items()},
              **{f"head.{k}": v for k, v in head.params.items()}}
    head_w, head_b = head.params["weight"], head.params["bias"]

    def forward(ids, targets):
        batch = np.stack([dsp.apply_spec_augmentations(spectrograms[c], aug_cfg, rng)
                          for c in ids])
        if aug_cfg.mixup_alpha > 0 and len(ids) >= 2:
            lam = float(rng.beta(aug_cfg.mixup_alpha, aug_cfg.mixup_alpha))
            batch, targets = dsp.mixup(batch, targets, lam, rng.permutation(len(ids)))
        emb, cache = model.embed_batch(batch, train=True, rng=rng)

        def backward(dlogits):
            # the float64 loss gradient, cast once to the head's dtype
            demb, dw, db = nn.linear_backward(dlogits.astype(head_w.dtype, copy=False),
                                              emb, head_w)
            grads = model.backward(demb, cache)
            return {**{f"bb.{k}": v for k, v in grads.items()},
                    "head.weight": dw, "head.bias": db}
        return nn.linear(emb, head_w, head_b), targets, backward

    history = list(crossmodal.train_epochs(
        train_records, class_ids, params, cfg, rng,
        cfg.epochs if epochs is None else epochs, forward))
    return model, head, history

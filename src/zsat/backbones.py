"""Audio embedding backbones behind one `Backbone` interface: a patchout
spectrogram transformer, an arbitrary-length pooling convnet, and a
fixed-window convnet, plus supervised multi-label pretraining with a
classification head."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import nn
from .dsp import MelSpectrogram


@dataclass(frozen=True)
class TransformerConfig:
    d: int = 768
    n_heads: int = 12
    n_layers: int = 12
    patch_f: int = 16
    patch_t: int = 16
    max_f_patches: int = 8
    max_t_patches: int = 64
    embed_dim: int = 768
    ffn_mult: int = 4
    # structured patchout: whole grid rows (frequency) and columns (time)
    # dropped from the token sequence in training only
    n_freq_drop: int = 0
    n_time_drop: int = 0

    def __post_init__(self):
        if self.d % self.n_heads != 0:
            raise ValueError("d must be divisible by n_heads")
        if self.n_freq_drop < 0 or self.n_time_drop < 0:
            raise ValueError("drop counts must be >= 0")


@dataclass(frozen=True)
class ConvConfig:
    channels: tuple = (64, 128, 256, 512, 1024, 2048)
    fc_units: int = 2048
    embed_dim: int = 768
    vggish_time: int = 96
    vggish_mels: int = 64


def _choose_drops(size: int, n_drop: int, rng: np.random.Generator) -> np.ndarray:
    """Surviving indices after dropping n_drop of `size` uniformly w/o replacement."""
    if n_drop == 0:
        return np.arange(size)
    dropped = rng.choice(size, size=n_drop, replace=False)
    return np.setdiff1d(np.arange(size), dropped)


class Backbone:
    """Interface shared by the embedding backbones.

    A subclass sets `kind` (its checkpoint tag), `config_type` and
    `config_key` (the ExperimentConfig field holding its settings), keeps
    trained tensors in `params` and running statistics in `stats`, and
    defines `embed_batch(x, train=False, rng=None)`, which maps (N, f, t)
    spectrograms to (embeddings (N, m), cache), and `backward(demb, cache)`,
    which returns the gradient of every tensor in `params`.
    """

    kind: str
    config_type: type
    config_key: str
    STAT_PREFIXES = ("bn_mean", "bn_var")

    def embed(self, x: MelSpectrogram) -> np.ndarray:
        emb, _ = self.embed_batch(x.values[None])
        return emb[0]

    def hyperparams(self) -> dict:
        return dataclasses.asdict(self.cfg)

    @classmethod
    def from_hyperparams(cls, hp: dict, tensors: dict):
        # conv checkpoints written while ConvConfig had a `kind` field still
        # carry it; the checkpoint header's kind tag is the one that counts
        hp = {k: tuple(v) if isinstance(v, list) else v
              for k, v in hp.items() if k != "kind"}
        obj = cls.__new__(cls)
        obj.cfg = cls.config_type(**hp)
        obj.params = {k: v for k, v in tensors.items()
                      if not k.startswith(cls.STAT_PREFIXES)}
        obj.stats = {k: v.astype(np.float64) for k, v in tensors.items()
                     if k.startswith(cls.STAT_PREFIXES)}
        return obj


class TransformerBackbone(Backbone):
    """Pre-norm transformer over non-overlapping spectrogram patches with a
    class token and disentangled frequency/time positional tables."""

    kind = "transformer"
    config_type = TransformerConfig
    config_key = "transformer"

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator,
                 dtype=np.float32):
        self.cfg = cfg
        d, m = cfg.d, cfg.embed_dim
        p = {}
        p["proj_w"], p["proj_b"] = nn.init_linear(rng, d, cfg.patch_f * cfg.patch_t, dtype)
        p["cls"] = (0.02 * rng.standard_normal(d)).astype(dtype)
        p["pos_f"] = (0.02 * rng.standard_normal((cfg.max_f_patches, d))).astype(dtype)
        p["pos_t"] = (0.02 * rng.standard_normal((cfg.max_t_patches, d))).astype(dtype)
        for i in range(cfg.n_layers):
            p[f"ln1_g{i}"] = np.ones(d, dtype)
            p[f"ln1_b{i}"] = np.zeros(d, dtype)
            for nm in ("q", "k", "v", "o"):
                p[f"w{nm}{i}"], p[f"b{nm}{i}"] = nn.init_linear(rng, d, d, dtype)
            p[f"ln2_g{i}"] = np.ones(d, dtype)
            p[f"ln2_b{i}"] = np.zeros(d, dtype)
            p[f"ffn_w1_{i}"], p[f"ffn_b1_{i}"] = nn.init_linear(rng, cfg.ffn_mult * d, d, dtype)
            p[f"ffn_w2_{i}"], p[f"ffn_b2_{i}"] = nn.init_linear(rng, d, cfg.ffn_mult * d, dtype)
        p["lnf_g"] = np.ones(d, dtype)
        p["lnf_b"] = np.zeros(d, dtype)
        p["head_w"], p["head_b"] = nn.init_linear(rng, m, d, dtype)
        self.params = p
        self.stats = {}

    # -- patch handling -----------------------------------------------------

    def _patches(self, x: np.ndarray):
        """x: (N, f, t) -> flattened patches (N, F, T, pf*pt) and grid (F, T)."""
        pf, pt = self.cfg.patch_f, self.cfg.patch_t
        n, f, t = x.shape
        if f < pf or t < pt:
            raise ValueError(f"input {f}x{t} smaller than one {pf}x{pt} patch")
        fp, tp = f // pf, t // pt
        if fp > self.cfg.max_f_patches or tp > self.cfg.max_t_patches:
            raise ValueError("input grid exceeds configured positional tables")
        v = x[:, :fp * pf, :tp * pt].reshape(n, fp, pf, tp, pt)
        return v.transpose(0, 1, 3, 2, 4).reshape(n, fp, tp, pf * pt), (fp, tp)

    def _token_sequence(self, x, train: bool, rng):
        """Project surviving patches, add positions, prepend class token.
        In training, patchout drops whole grid rows, then whole columns."""
        p, cfg = self.params, self.cfg
        patches, (fp, tp) = self._patches(x)
        if train and (cfg.n_freq_drop or cfg.n_time_drop):
            if cfg.n_freq_drop >= fp or cfg.n_time_drop >= tp:
                raise ValueError("patchout drops must be smaller than the grid")
            rows = _choose_drops(fp, cfg.n_freq_drop, rng)
            cols = _choose_drops(tp, cfg.n_time_drop, rng)
        else:
            rows, cols = np.arange(fp), np.arange(tp)
        sel = patches[:, rows][:, :, cols]            # (N, R, C, pf*pt)
        n, r, c, pdim = sel.shape
        flat = sel.reshape(n, r * c, pdim)
        tok = nn.linear(flat, p["proj_w"], p["proj_b"])
        pos = p["pos_f"][rows][:, None, :] + p["pos_t"][cols][None, :, :]
        tok = tok + pos.reshape(1, r * c, -1)
        cls = np.broadcast_to(p["cls"], (n, 1, self.cfg.d))
        seq = np.concatenate([cls, tok], axis=1)
        return seq, (flat, rows, cols, fp, tp)

    # -- forward / backward -------------------------------------------------

    def embed_batch(self, x: np.ndarray, train: bool = False,
                    rng: np.random.Generator | None = None):
        """x: (N, f, t) -> (embeddings (N, m), cache for backward).
        `train` turns patchout on; `rng` draws the dropped rows and columns."""
        p, cfg = self.params, self.cfg
        seq, patch_cache = self._token_sequence(x, train, rng)
        h = seq
        blocks = []
        for i in range(cfg.n_layers):
            a, c_ln1 = nn.layer_norm(h, p[f"ln1_g{i}"], p[f"ln1_b{i}"])
            att, c_att = nn.attention(a, p[f"wq{i}"], p[f"wk{i}"], p[f"wv{i}"],
                                      p[f"wo{i}"], p[f"bq{i}"], p[f"bk{i}"],
                                      p[f"bv{i}"], p[f"bo{i}"], cfg.n_heads)
            h1 = h + att
            b, c_ln2 = nn.layer_norm(h1, p[f"ln2_g{i}"], p[f"ln2_b{i}"])
            f1 = nn.linear(b, p[f"ffn_w1_{i}"], p[f"ffn_b1_{i}"])
            g = nn.gelu(f1)
            f2 = nn.linear(g, p[f"ffn_w2_{i}"], p[f"ffn_b2_{i}"])
            h = h1 + f2
            blocks.append((c_ln1, c_att, c_ln2, b, f1, g))
        y, c_lnf = nn.layer_norm(h, p["lnf_g"], p["lnf_b"])
        cls_out = y[:, 0, :]
        emb = nn.linear(cls_out, p["head_w"], p["head_b"])
        return emb, (patch_cache, blocks, c_lnf, cls_out, y.shape)

    def backward(self, demb: np.ndarray, cache) -> dict:
        p, cfg = self.params, self.cfg
        patch_cache, blocks, c_lnf, cls_out, yshape = cache
        flat, rows, cols, fp, tp = patch_cache
        grads = {}
        dcls_out, grads["head_w"], grads["head_b"] = nn.linear_backward(
            demb, cls_out, p["head_w"])
        dy = np.zeros(yshape, dtype=demb.dtype)
        dy[:, 0, :] = dcls_out
        dh, grads["lnf_g"], grads["lnf_b"] = nn.layer_norm_backward(dy, c_lnf)
        for i in reversed(range(cfg.n_layers)):
            c_ln1, c_att, c_ln2, b, f1, g = blocks[i]
            dg, grads[f"ffn_w2_{i}"], grads[f"ffn_b2_{i}"] = nn.linear_backward(
                dh, g, p[f"ffn_w2_{i}"])
            df1 = nn.gelu_backward(dg, f1)
            db, grads[f"ffn_w1_{i}"], grads[f"ffn_b1_{i}"] = nn.linear_backward(
                df1, b, p[f"ffn_w1_{i}"])
            dh1, grads[f"ln2_g{i}"], grads[f"ln2_b{i}"] = nn.layer_norm_backward(db, c_ln2)
            dh1 = dh1 + dh
            datt = dh1
            da, att_grads = nn.attention_backward(datt, c_att)
            for nm, gval in att_grads.items():
                grads[f"{nm}{i}"] = gval
            dskip, grads[f"ln1_g{i}"], grads[f"ln1_b{i}"] = nn.layer_norm_backward(da, c_ln1)
            dh = dh1 + dskip
        grads["cls"] = dh[:, 0, :].sum(axis=0)
        dtok = dh[:, 1:, :]
        r, c = rows.size, cols.size
        dpos = dtok.sum(axis=0).reshape(r, c, cfg.d)
        grads["pos_f"] = np.zeros_like(p["pos_f"])
        grads["pos_t"] = np.zeros_like(p["pos_t"])
        np.add.at(grads["pos_f"], rows, dpos.sum(axis=1))
        np.add.at(grads["pos_t"], cols, dpos.sum(axis=0))
        _, grads["proj_w"], grads["proj_b"] = nn.linear_backward(dtok, flat, p["proj_w"])
        return grads


class Cnn14Backbone(Backbone):
    """Deep convnet: 6 blocks of two 3x3 convs with batch norm and ReLU,
    2x2 average pooling between blocks; pooled features pass a wide
    fully-connected layer and an embedding head. Accepts any input length."""

    kind = "cnn14"
    config_type = ConvConfig
    config_key = "conv"
    POOLED_BLOCKS = 5  # no pooling after the last block

    def __init__(self, cfg: ConvConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        ch = cfg.channels
        p = {}
        stats = {}
        cin = 1
        for i, cout in enumerate(ch):
            for j in range(2):
                fan_in = cin * 9
                bound = 1.0 / np.sqrt(fan_in)
                p[f"conv_w{i}_{j}"] = rng.uniform(
                    -bound, bound, size=(cout, cin, 3, 3)).astype(dtype)
                p[f"conv_b{i}_{j}"] = np.zeros(cout, dtype)
                p[f"bn_g{i}_{j}"] = np.ones(cout, dtype)
                p[f"bn_b{i}_{j}"] = np.zeros(cout, dtype)
                stats[f"bn_mean{i}_{j}"] = np.zeros(cout, np.float64)
                stats[f"bn_var{i}_{j}"] = np.ones(cout, np.float64)
                cin = cout
        p["fc_w"], p["fc_b"] = nn.init_linear(rng, cfg.fc_units, ch[-1], dtype)
        p["head_w"], p["head_b"] = nn.init_linear(rng, cfg.embed_dim, cfg.fc_units, dtype)
        self.params = p
        self.stats = stats

    def min_frames(self) -> int:
        return 2 ** self.POOLED_BLOCKS

    def embed_batch(self, x: np.ndarray, train: bool = False,
                    rng: np.random.Generator | None = None):
        """x: (N, f, t) -> (embeddings (N, m), cache). `train` normalizes
        batch norm by batch statistics; nothing here draws from `rng`."""
        if x.shape[2] < self.min_frames():
            raise ValueError(f"input has {x.shape[2]} frames; "
                             f"needs at least {self.min_frames()}")
        p, st = self.params, self.stats
        h = x[:, None, :, :]
        caches = []
        for i in range(len(self.cfg.channels)):
            for j in range(2):
                h, c_conv = nn.conv2d(h, p[f"conv_w{i}_{j}"], p[f"conv_b{i}_{j}"])
                h, c_bn = nn.batch_norm2d(h, p[f"bn_g{i}_{j}"], p[f"bn_b{i}_{j}"],
                                          st[f"bn_mean{i}_{j}"], st[f"bn_var{i}_{j}"],
                                          train)
                pre = h
                h = nn.relu(h)
                caches.append((c_conv, c_bn, pre))
            if i < self.POOLED_BLOCKS:
                h, c_pool = nn.avg_pool2d(h)
                caches.append(("pool", c_pool))
        fmap = h                                   # (N, C, f', t')
        over_f = fmap.mean(axis=2)                 # (N, C, t')
        mean_t = over_f.mean(axis=2)
        arg_t = over_f.argmax(axis=2)
        max_t = np.take_along_axis(over_f, arg_t[:, :, None], axis=2)[:, :, 0]
        feat = mean_t + max_t
        fc = nn.linear(feat, p["fc_w"], p["fc_b"])
        fcr = nn.relu(fc)
        emb = nn.linear(fcr, p["head_w"], p["head_b"])
        return emb, (caches, fmap.shape, over_f.shape, arg_t, feat, fc, fcr)

    def backward(self, demb: np.ndarray, cache) -> dict:
        p = self.params
        caches, fshape, oshape, arg_t, feat, fc, fcr = cache
        grads = {}
        dfcr, grads["head_w"], grads["head_b"] = nn.linear_backward(demb, fcr, p["head_w"])
        dfc = nn.relu_backward(dfcr, fc)
        dfeat, grads["fc_w"], grads["fc_b"] = nn.linear_backward(dfc, feat, p["fc_w"])
        dover = np.zeros(oshape, dtype=demb.dtype)
        dover += dfeat[:, :, None] / oshape[2]     # mean over time
        np.put_along_axis(dover, arg_t[:, :, None],
                          np.take_along_axis(dover, arg_t[:, :, None], axis=2)
                          + dfeat[:, :, None], axis=2)
        dfmap = np.broadcast_to(dover[:, :, None, :] / fshape[2], fshape).astype(demb.dtype)
        dh = dfmap
        k = len(caches) - 1
        for i in reversed(range(len(self.cfg.channels))):
            if i < self.POOLED_BLOCKS:
                tag, c_pool = caches[k]
                k -= 1
                dh = nn.avg_pool2d_backward(dh, c_pool)
            for j in (1, 0):
                c_conv, c_bn, pre = caches[k]
                k -= 1
                dh = nn.relu_backward(dh, pre)
                dh, grads[f"bn_g{i}_{j}"], grads[f"bn_b{i}_{j}"] = \
                    nn.batch_norm2d_backward(dh, c_bn)
                dh, grads[f"conv_w{i}_{j}"], grads[f"conv_b{i}_{j}"] = \
                    nn.conv2d_backward(dh, c_conv)
        return grads


class VggishBackbone(Backbone):
    """Fixed-window convnet: 6 conv layers with batch norm and ReLU, max
    pooling, two wide fully-connected layers. Longer inputs are split into
    fixed-length chunks whose embeddings are averaged."""

    kind = "vggish"
    config_type = ConvConfig
    config_key = "conv"
    # max pooling after these conv layer indices (0-based)
    POOL_AFTER = (0, 1, 3, 5)

    def __init__(self, cfg: ConvConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        ch = cfg.channels
        if len(ch) != 6:
            raise ValueError("vggish preset needs 6 conv channel counts")
        p, stats = {}, {}
        cin = 1
        for i, cout in enumerate(ch):
            bound = 1.0 / np.sqrt(cin * 9)
            p[f"conv_w{i}"] = rng.uniform(-bound, bound, size=(cout, cin, 3, 3)).astype(dtype)
            p[f"conv_b{i}"] = np.zeros(cout, dtype)
            p[f"bn_g{i}"] = np.ones(cout, dtype)
            p[f"bn_b{i}"] = np.zeros(cout, dtype)
            stats[f"bn_mean{i}"] = np.zeros(cout, np.float64)
            stats[f"bn_var{i}"] = np.ones(cout, np.float64)
            cin = cout
        ht = cfg.vggish_time // (2 ** len(self.POOL_AFTER))
        wf = cfg.vggish_mels // (2 ** len(self.POOL_AFTER))
        flat_dim = ch[-1] * ht * wf
        p["fc1_w"], p["fc1_b"] = nn.init_linear(rng, cfg.fc_units, flat_dim, dtype)
        p["fc2_w"], p["fc2_b"] = nn.init_linear(rng, cfg.fc_units, cfg.fc_units, dtype)
        p["head_w"], p["head_b"] = nn.init_linear(rng, cfg.embed_dim, cfg.fc_units, dtype)
        self.params = p
        self.stats = stats

    def _embed_chunks(self, chunks: np.ndarray, train: bool):
        """chunks: (K, t_chunk, f) -> (embeddings (K, m), cache)."""
        p, st = self.params, self.stats
        h = chunks[:, None, :, :]
        caches = []
        for i in range(6):
            h, c_conv = nn.conv2d(h, p[f"conv_w{i}"], p[f"conv_b{i}"])
            h, c_bn = nn.batch_norm2d(h, p[f"bn_g{i}"], p[f"bn_b{i}"],
                                      st[f"bn_mean{i}"], st[f"bn_var{i}"], train)
            pre = h
            h = nn.relu(h)
            pooled = None
            if i in self.POOL_AFTER:
                h, pooled = nn.max_pool2d(h)
            caches.append((c_conv, c_bn, pre, pooled))
        shape = h.shape
        flat = h.reshape(h.shape[0], -1)
        f1 = nn.linear(flat, p["fc1_w"], p["fc1_b"])
        r1 = nn.relu(f1)
        f2 = nn.linear(r1, p["fc2_w"], p["fc2_b"])
        r2 = nn.relu(f2)
        emb = nn.linear(r2, p["head_w"], p["head_b"])
        return emb, (caches, shape, flat, f1, r1, f2, r2)

    def _chunk(self, x: np.ndarray) -> np.ndarray:
        """x: (f, t) -> (K, t_chunk, f); trailing remainder discarded."""
        tlen = self.cfg.vggish_time
        f, t = x.shape
        if f != self.cfg.vggish_mels:
            raise ValueError(f"expected {self.cfg.vggish_mels} mel bins, got {f}")
        if t < tlen:
            raise ValueError(f"need at least {tlen} frames, got {t}")
        k = t // tlen
        return x[:, :k * tlen].T.reshape(k, tlen, f)

    def embed_batch(self, x: np.ndarray, train: bool = False,
                    rng: np.random.Generator | None = None):
        """x: (N, f, t); every clip contributes t//chunk chunks. `train`
        normalizes batch norm by batch statistics; `rng` is unused."""
        n = x.shape[0]
        chunks = np.concatenate([self._chunk(x[i]) for i in range(n)], axis=0)
        per = x.shape[2] // self.cfg.vggish_time
        emb, cache = self._embed_chunks(chunks, train)
        emb = emb.reshape(n, per, -1).mean(axis=1)
        return emb, (cache, n, per)

    def backward(self, demb: np.ndarray, cache) -> dict:
        inner, n, per = cache
        dchunks = np.repeat(demb / per, per, axis=0)
        return self._backward_chunks(dchunks, inner)

    def _backward_chunks(self, demb: np.ndarray, cache) -> dict:
        p = self.params
        caches, shape, flat, f1, r1, f2, r2 = cache
        grads = {}
        dr2, grads["head_w"], grads["head_b"] = nn.linear_backward(demb, r2, p["head_w"])
        df2 = nn.relu_backward(dr2, f2)
        dr1, grads["fc2_w"], grads["fc2_b"] = nn.linear_backward(df2, r1, p["fc2_w"])
        df1 = nn.relu_backward(dr1, f1)
        dflat, grads["fc1_w"], grads["fc1_b"] = nn.linear_backward(df1, flat, p["fc1_w"])
        dh = dflat.reshape(shape)
        for i in reversed(range(6)):
            c_conv, c_bn, pre, pooled = caches[i]
            if pooled is not None:
                dh = nn.max_pool2d_backward(dh, pooled)
            dh = nn.relu_backward(dh, pre)
            dh, grads[f"bn_g{i}"], grads[f"bn_b{i}"] = nn.batch_norm2d_backward(dh, c_bn)
            dh, grads[f"conv_w{i}"], grads[f"conv_b{i}"] = nn.conv2d_backward(dh, c_conv)
        return grads


BACKBONE_KINDS = {cls.kind: cls for cls in
                  (TransformerBackbone, Cnn14Backbone, VggishBackbone)}


# ---------------------------------------------------------------------------
# Supervised pretraining


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (|C_trn|, m)
    bias: np.ndarray    # (|C_trn|,)

    @classmethod
    def init(cls, n_classes: int, m: int, rng: np.random.Generator, dtype=np.float32):
        w, b = nn.init_linear(rng, n_classes, m, dtype)
        return cls(weight=w, bias=b)


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


def pretrain_backbone(model, head: ClassifierHead, manifest, class_ids: list,
                      spectrograms: dict, cfg, aug_cfg, rng,
                      epochs: int | None = None):
    """Multi-label BCE pretraining of a backbone plus classification head.

    `manifest` is a list of records with .clip_id/.tags/.split; `spectrograms`
    maps clip id -> MelSpectrogram. Returns per-epoch mean loss history.
    Deterministic for a fixed rng seed (single-threaded).
    """
    from . import crossmodal, protocol
    from .dsp import apply_spec_augmentations, mixup

    if not class_ids:
        raise ValueError("empty class set")
    epochs = cfg.epochs if epochs is None else epochs
    class_index = {c: i for i, c in enumerate(class_ids)}
    train_records = [r for r in manifest if r.split == "train"
                     and any(t in class_index for t in r.tags)]
    if not train_records:
        raise ValueError("no training clips tagged with the given classes")
    by_id = {r.clip_id: r for r in train_records}

    sampler = protocol.balanced_sampler(train_records, class_ids,
                                        seed=int(rng.integers(2 ** 31)))
    opt_state = crossmodal.init_adamw_state(
        {**{f"bb.{k}": v for k, v in model.params.items()},
         "head.weight": head.weight, "head.bias": head.bias})
    steps_per_epoch = max(1, len(train_records) // cfg.batch_size)
    history = []
    for epoch in range(epochs):
        lr = crossmodal.lr_at(epoch, cfg)
        losses = []
        for _ in range(steps_per_epoch):
            ids = [next(sampler) for _ in range(cfg.batch_size)]
            specs, targets = [], []
            for cid in ids:
                rec = by_id[cid]
                s = apply_spec_augmentations(spectrograms[cid], aug_cfg, rng)
                y = np.zeros(len(class_ids))
                for t in rec.tags:
                    if t in class_index:
                        y[class_index[t]] = 1.0
                specs.append(s)
                targets.append(y)
            if aug_cfg.mixup_enabled and len(specs) >= 2:
                lam = float(rng.beta(aug_cfg.mixup_alpha, aug_cfg.mixup_alpha))
                perm = rng.permutation(len(specs))
                mixed = [mixup(specs[i], specs[int(j)], targets[i], targets[int(j)], lam)
                         for i, j in enumerate(perm)]
                specs = [m[0] for m in mixed]
                targets = [m[1] for m in mixed]
            batch = np.stack([s.values for s in specs]).astype(
                next(iter(model.params.values())).dtype)
            y = np.stack(targets)
            emb, cache = model.embed_batch(batch, train=True, rng=rng)
            logits = emb @ head.weight.T + head.bias
            loss = crossmodal.bce_loss(logits, y)
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            dlogits = crossmodal.bce_loss_backward(logits, y)
            demb = dlogits @ head.weight
            dw = dlogits.T @ emb
            db = dlogits.sum(axis=0)
            grads = {f"bb.{k}": v for k, v in model.backward(
                demb.astype(emb.dtype), cache).items()}
            grads["head.weight"] = dw
            grads["head.bias"] = db
            params = {**{f"bb.{k}": v for k, v in model.params.items()},
                      "head.weight": head.weight, "head.bias": head.bias}
            crossmodal.adamw_step(params, grads, opt_state, lr, cfg)
            losses.append(float(loss))
        history.append(float(np.mean(losses)))
    return model, head, history

"""Cross-modal projection into the semantic space, dot-product
classification, BCE training with AdamW and the warmup/decay schedule, and
best-validation-mAP checkpoint selection."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nn
from .checkpoint import load_checkpoint, save_checkpoint


class GradientError(RuntimeError):
    pass


@dataclass
class ProjectionParams:
    mean: np.ndarray      # (m,) input normalizer
    std: np.ndarray       # (m,) strictly positive
    w1: np.ndarray        # (hidden, m)
    b1: np.ndarray        # (hidden,)
    w2: np.ndarray        # (n, hidden)
    b2: np.ndarray        # (n,)
    dropout_rate: float = 0.2

    TRAINED = ("w1", "b1", "w2", "b2")
    TENSORS = ("mean", "std", "w1", "b1", "w2", "b2")

    def __post_init__(self):
        if np.any(self.std <= 0):
            raise ValueError("normalizer std must be strictly positive")
        if not (0 <= self.dropout_rate < 1):
            raise ValueError("dropout_rate must be in [0, 1)")
        for name in self.TENSORS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def m(self) -> int:
        return self.w1.shape[1]

    @property
    def n(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def init(cls, m: int, n: int, hidden: int, rng: np.random.Generator,
             dropout_rate: float = 0.2, dtype=np.float64):
        w1, b1 = nn.init_linear(rng, hidden, m, dtype)
        w2, b2 = nn.init_linear(rng, n, hidden, dtype)
        return cls(mean=np.zeros(m, dtype), std=np.ones(m, dtype),
                   w1=w1, b1=b1, w2=w2, b2=b2, dropout_rate=dropout_rate)

    def copy(self) -> "ProjectionParams":
        return copy.deepcopy(self)


def project_batch(a: np.ndarray, p: ProjectionParams, mode: str = "eval",
                  rng: np.random.Generator | None = None):
    """a: (N, m) -> (out (N, n), cache). Train mode applies inverted dropout."""
    if a.shape[-1] != p.m:
        raise ValueError(f"embedding dim {a.shape[-1]} != projection input {p.m}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite audio embedding")
    z = (a - p.mean) / p.std
    pre = nn.linear(z, p.w1, p.b1)
    h = nn.gelu(pre)
    mask = None
    if mode == "train" and p.dropout_rate > 0:
        h, mask = nn.dropout(h, p.dropout_rate, rng)
    out = nn.linear(h, p.w2, p.b2)
    return out, (a, z, pre, h, mask)


def project_backward(dout: np.ndarray, p: ProjectionParams, cache):
    """Exact backprop through the 2-layer network and the input normalizer.

    Returns (da, grads) with grads for every parameter tensor, including the
    normalizer mean/std (those are frozen during training but checked against
    finite differences).
    """
    a, z, pre, h, mask = cache
    dh, dw2, db2 = nn.linear_backward(dout, h, p.w2)
    dh = nn.dropout_backward(dh, mask)
    dpre = nn.gelu_backward(dh, pre)
    dz, dw1, db1 = nn.linear_backward(dpre, z, p.w1)
    da = dz / p.std
    flat_dz = dz.reshape(-1, p.m)
    flat_z = z.reshape(-1, p.m)
    dmean = -(flat_dz / p.std).sum(axis=0)
    dstd = -(flat_dz * flat_z / p.std).sum(axis=0)
    return da, {"mean": dmean, "std": dstd, "w1": dw1, "b1": db1,
                "w2": dw2, "b2": db2}


def project(a: np.ndarray, p: ProjectionParams, mode: str = "eval",
            rng: np.random.Generator | None = None) -> np.ndarray:
    out, _ = project_batch(np.asarray(a)[None], p, mode, rng)
    return out[0]


def classify(a: np.ndarray, candidates, p: ProjectionParams) -> str:
    """Argmax class posterior over the candidate set; ties to lowest class id."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate set")
    proj = project(a, p, mode="eval")
    best_id, best_logit = None, -np.inf
    for cand in sorted(candidates, key=lambda c: c.class_id):
        logit = float(np.dot(proj, cand.vector))
        if logit > best_logit:
            best_id, best_logit = cand.class_id, logit
    return best_id


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy in the stable log-sum-exp form."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError("logits/targets length mismatch")
    per = np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(per.mean())


def bce_loss_backward(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/dlogits = (sigmoid(logit) - target) / count."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return (nn.sigmoid(logits) - targets) / logits.size


# ---------------------------------------------------------------------------
# Optimizer and schedule


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 2e-5
    warmup_epochs: float = 5.0
    decay_start_epoch: float = 50.0
    decay_end_epoch: float = 100.0
    final_lr: float = 1e-7
    epochs: int = 130
    batch_size: int = 24
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8
    weight_decay: float = 1e-4
    seed: int = 0
    val_class_fraction: float = 0.1

    def __post_init__(self):
        if not (0 < self.final_lr <= self.initial_lr):
            raise ValueError("require 0 < final_lr <= initial_lr")
        if not (self.warmup_epochs <= self.decay_start_epoch < self.decay_end_epoch):
            raise ValueError("require warmup <= decay_start < decay_end")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def lr_at(epoch: float, cfg: TrainConfig) -> float:
    """Geometric warmup from initial_lr/100, plateau, linear decay, floor."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch < cfg.warmup_epochs:
        return cfg.initial_lr / 100.0 * 100.0 ** (epoch / cfg.warmup_epochs)
    if epoch <= cfg.decay_start_epoch:
        return cfg.initial_lr
    if epoch < cfg.decay_end_epoch:
        frac = (epoch - cfg.decay_start_epoch) / (cfg.decay_end_epoch - cfg.decay_start_epoch)
        return cfg.initial_lr + frac * (cfg.final_lr - cfg.initial_lr)
    return cfg.final_lr


def init_adamw_state(params: dict) -> dict:
    return {"step": 0,
            "m": {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()},
            "v": {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}}


def adamw_step(params: dict, grads: dict, state: dict, lr: float,
               cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    state["step"] += 1
    t = state["step"]
    b1, b2 = cfg.beta1, cfg.beta2
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= (lr * cfg.weight_decay * theta
                  + lr * mhat / (np.sqrt(vhat) + cfg.epsilon)).astype(theta.dtype)


# ---------------------------------------------------------------------------
# Projection training with the backbone frozen


def save_projection(path, p: ProjectionParams) -> None:
    save_checkpoint(path, "projection",
                    {"m": p.m, "n": p.n, "hidden": int(p.w1.shape[0]),
                     "dropout_rate": p.dropout_rate},
                    {k: getattr(p, k) for k in p.TENSORS})


def load_projection(path) -> ProjectionParams:
    _, hp, tensors = load_checkpoint(path, expected_kind="projection")
    return ProjectionParams(dropout_rate=hp["dropout_rate"],
                            **{k: tensors[k].astype(np.float64) for k in
                               ProjectionParams.TENSORS})


def split_validation_classes(class_ids: list, fraction: float,
                             rng: np.random.Generator):
    """Held-out model-selection classes; errors if the fraction covers none."""
    n_val = int(round(fraction * len(class_ids)))
    if n_val == 0:
        raise ValueError(
            f"val_class_fraction={fraction} selects zero of {len(class_ids)} classes")
    if n_val >= len(class_ids):
        raise ValueError("validation classes would cover the whole training set")
    ordered = sorted(class_ids)
    val = sorted(rng.choice(len(ordered), size=n_val, replace=False).tolist())
    val_ids = [ordered[i] for i in val]
    loss_ids = [c for c in ordered if c not in set(val_ids)]
    return loss_ids, val_ids


def train_projection(backbone, manifest, spectrograms: dict, class_ids: list,
                     class_embeddings: dict, cfg: TrainConfig,
                     rng: np.random.Generator, hidden: int = 1024,
                     dropout_rate: float = 0.2, epochs: int | None = None):
    """Train the projection with the backbone frozen.

    `class_embeddings` maps class id -> semantic vector (np.ndarray of dim n).
    Validation classes (val_class_fraction of class_ids) are removed from the
    loss entirely; after each epoch, tagging mAP on the val split over those
    classes drives checkpoint selection. Returns (best ProjectionParams,
    selection report dict).
    """
    from . import protocol
    from .evaluation import average_precision

    epochs = cfg.epochs if epochs is None else epochs
    loss_ids, val_ids = split_validation_classes(class_ids, cfg.val_class_fraction, rng)

    def embed_records(records):
        out = {}
        for r in records:
            emb, _ = backbone.embed_batch(spectrograms[r.clip_id].values[None])
            out[r.clip_id] = emb[0].astype(np.float64)
        return out

    train_records = [r for r in manifest if r.split == "train"
                     and any(t in loss_ids for t in r.tags)]
    val_records = [r for r in manifest if r.split == "val"]
    if not train_records:
        raise ValueError("no training clips tagged with the loss classes")
    if not val_records:
        raise ValueError("empty validation split")
    train_emb = embed_records(train_records)
    val_emb = embed_records(val_records)

    amat = np.stack(list(train_emb.values()))
    mean = amat.mean(axis=0)
    std = np.maximum(amat.std(axis=0), 1e-8)

    n = next(iter(class_embeddings.values())).shape[0]
    m = amat.shape[1]
    p = ProjectionParams.init(m, n, hidden, rng, dropout_rate)
    p.mean, p.std = mean, std

    e_loss = np.stack([class_embeddings[c] for c in loss_ids])
    e_val = np.stack([class_embeddings[c] for c in val_ids])
    by_id = {r.clip_id: r for r in train_records}
    loss_index = {c: i for i, c in enumerate(loss_ids)}

    sampler = protocol.balanced_sampler(train_records, loss_ids,
                                        seed=int(rng.integers(2 ** 31)))
    trained = {k: getattr(p, k) for k in ProjectionParams.TRAINED}
    opt_state = init_adamw_state(trained)
    steps_per_epoch = max(1, len(train_records) // cfg.batch_size)

    def val_map(params: ProjectionParams) -> float:
        a = np.stack([val_emb[r.clip_id] for r in val_records])
        proj, _ = project_batch(a, params, mode="eval")
        logits = proj @ e_val.T
        aps = []
        for j, cid in enumerate(val_ids):
            labels = np.array([1 if cid in r.tags else 0 for r in val_records])
            if labels.sum() == 0:
                continue
            aps.append(average_precision(logits[:, j], labels))
        if not aps:
            raise ValueError("no validation class has positives in the val split")
        return float(np.mean(aps))

    history = {"per_epoch_loss": [], "val_map": [], "val_classes": val_ids}
    best = (-np.inf, p.copy(), -1)
    for epoch in range(epochs):
        lr = lr_at(epoch, cfg)
        losses = []
        for _ in range(steps_per_epoch):
            ids = [next(sampler) for _ in range(cfg.batch_size)]
            a = np.stack([train_emb[c] for c in ids])
            y = np.zeros((len(ids), len(loss_ids)))
            for row, cid in enumerate(ids):
                for t in by_id[cid].tags:
                    if t in loss_index:
                        y[row, loss_index[t]] = 1.0
            proj, cache = project_batch(a, p, mode="train", rng=rng)
            logits = proj @ e_loss.T
            loss = bce_loss(logits, y)
            if not np.isfinite(loss):
                raise GradientError(f"non-finite projection loss at epoch {epoch}")
            dlogits = bce_loss_backward(logits, y)
            dproj = dlogits @ e_loss
            _, grads = project_backward(dproj, p, cache)
            adamw_step(trained, {k: grads[k] for k in trained}, opt_state, lr, cfg)
            losses.append(loss)
        vmap = val_map(p)
        history["per_epoch_loss"].append(float(np.mean(losses)))
        history["val_map"].append(vmap)
        if vmap > best[0]:
            best = (vmap, p.copy(), epoch)
    history["best_epoch"] = best[2]
    history["best_val_map"] = best[0]
    return best[1], history

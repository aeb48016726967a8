"""Cross-modal projection into the semantic space, dot-product
classification, the minibatch BCE training loop with AdamW and the
warmup/decay schedule that pretraining and the projection share, and
best-validation-mAP checkpoint selection."""

from __future__ import annotations

import copy

import numpy as np

from . import nn, protocol
from .checkpoint import Module
from .errors import ConfigError, Count, DataError, DivergenceError, NumericalError, settings
from .evaluation import average_precision, mean_ap


@settings
class ProjectionConfig:
    m: int                # audio embedding dim
    n: int                # semantic dim
    hidden: int
    dropout_rate: float

    def __post_init__(self):
        check_dropout_rate(self.dropout_rate, "dropout_rate")


def check_dropout_rate(rate: float, name: str) -> None:
    """The one range rule for the projection's dropout, wherever it is set."""
    if not (0 <= rate < 1):
        raise ConfigError(f"{name} must be in [0, 1)")


class Projection(Module):
    """Two-layer GELU network from normalized audio embeddings into the
    semantic space: `params` w1 (hidden, m), b1, w2 (n, hidden), b2; `stats`
    the input normalizer's mean and strictly positive std, each (m,)."""

    kind = "projection"
    config_type = ProjectionConfig

    def tensors(self) -> list:
        m, n, hidden = self.cfg.m, self.cfg.n, self.cfg.hidden
        return [("w1", (hidden, m), "uniform", True), ("b1", (hidden,), "zeros", True),
                ("w2", (n, hidden), "uniform", True), ("b2", (n,), "zeros", True),
                ("mean", (m,), "zeros", False), ("std", (m,), "ones", False)]

    @classmethod
    def load(cls, path, **want):
        proj = super().load(path, **want)
        # training floors the std at 1e-8, so only a projection file holds less
        if np.any(proj.stats["std"] <= 0):
            raise DataError(f"{path}: normalizer std must be strictly positive")
        return proj


def project_batch(a: np.ndarray, p: Projection, train: bool = False,
                  rng: np.random.Generator | None = None):
    """a: (N, m), cast to `p.dtype` -> (out (N, n), cache). `train` applies
    inverted dropout."""
    if a.shape[-1] != p.cfg.m:
        raise ValueError(f"embedding dim {a.shape[-1]} != projection input {p.cfg.m}")
    a = a.astype(p.dtype, copy=False)
    if not np.all(np.isfinite(a)):
        raise NumericalError("non-finite audio embedding")
    w = p.params
    z = (a - p.stats["mean"]) / p.stats["std"]
    pre = nn.linear(z, w["w1"], w["b1"])
    cdf = np.empty_like(pre)
    h = nn.gelu(pre, cdf)
    h, mask = nn.dropout(h, p.cfg.dropout_rate, rng) if train else (h, None)
    out = nn.linear(h, w["w2"], w["b2"])
    return out, (a, z, pre, cdf, h, mask)


def project_backward(dout: np.ndarray, p: Projection, cache):
    """Exact backprop through the 2-layer network and the input normalizer.

    Returns (da, grads) with grads for every parameter tensor, including the
    normalizer mean/std (those are frozen during training but checked against
    finite differences). `dout` is cast to `p.dtype`.
    """
    dout = dout.astype(p.dtype, copy=False)
    a, z, pre, cdf, h, mask = cache
    std = p.stats["std"]
    dh, dw2, db2 = nn.linear_backward(dout, h, p.params["w2"])
    dh = nn.dropout_backward(dh, mask)
    dpre = nn.gelu_backward(dh, pre, cdf)
    dz, dw1, db1 = nn.linear_backward(dpre, z, p.params["w1"])
    da = dz / std
    flat_dz = dz.reshape(-1, p.cfg.m)
    flat_z = z.reshape(-1, p.cfg.m)
    dmean = -(flat_dz / std).sum(axis=0)
    dstd = -(flat_dz * flat_z / std).sum(axis=0)
    return da, {"mean": dmean, "std": dstd, "w1": dw1, "b1": db1,
                "w2": dw2, "b2": db2}


def classify(projected: np.ndarray, class_embeddings: dict,
             candidate_ids) -> list:
    """Argmax class posterior of each projected clip (N, n) over the
    candidate classes; ties go to the lowest class id."""
    ids = sorted(candidate_ids)
    if not ids:
        raise ValueError("empty candidate set")
    logits = projected @ np.stack([class_embeddings[c] for c in ids]).T
    return [ids[j] for j in np.argmax(logits, axis=1)]


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy in the stable log-sum-exp form."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError("logits/targets length mismatch")
    per = np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(per.mean())


def bce_loss_backward(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/dlogits = (sigmoid(logit) - target) / count, with the
    sigmoid taken from exp(-|logit|), which never overflows."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    e = np.exp(-np.abs(logits))
    return (np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - targets) / logits.size


# ---------------------------------------------------------------------------
# Optimizer and schedule


@settings
class TrainConfig:
    initial_lr: float = 2e-5
    warmup_epochs: float = 5.0
    decay_start_epoch: float = 50.0
    decay_end_epoch: float = 100.0
    final_lr: float = 1e-7
    epochs: Count = 130
    batch_size: Count = 24
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not (0 < self.final_lr <= self.initial_lr):
            raise ConfigError("require 0 < final_lr <= initial_lr")
        if not (self.warmup_epochs <= self.decay_start_epoch < self.decay_end_epoch):
            raise ConfigError("require warmup <= decay_start < decay_end")


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
    """The step count and the moments `m` and `v`, each one flat buffer in
    the params' one dtype that holds every parameter in `params` order, and
    two more such buffers that a step works in. Kept from step to step, the
    work buffers cost no page faults; all four take 16 bytes per float32
    parameter."""
    dtypes = {theta.dtype for theta in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    size = sum(theta.size for theta in params.values())
    dtype = dtypes.pop()
    return {"step": 0, "m": np.zeros(size, dtype), "v": np.zeros(size, dtype),
            "work": np.empty((2, size), dtype)}


def adamw_step(params: dict, grads: dict, state: dict, lr: float,
               cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update of every parameter, in place.

    The gradients are gathered into one flat buffer, and every term of the
    formula is computed over the flat buffers in the params' dtype. A
    non-finite gradient raises before any parameter, moment or the step
    count moves.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    for name, theta in params.items():
        grad = grads[name]
        if grad.dtype != theta.dtype or grad.shape != theta.shape:
            raise ValueError(f"gradient for parameter {name!r} is {grad.dtype} {grad.shape}, "
                             f"the parameter {theta.dtype} {theta.shape}")
    m, v, (g, tmp) = state["m"], state["v"], state["work"]
    np.concatenate([grads[k].ravel() for k in params], out=g, casting="no")
    if not np.isfinite(g).all():
        name = next(k for k in params if not np.isfinite(grads[k]).all())
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    state["step"] += 1
    t = state["step"]
    b1, b2 = cfg.beta1, cfg.beta2
    np.multiply(g, 1 - b2, out=tmp)
    tmp *= g
    v *= b2
    v += tmp                            # v = b2 v + (1 - b2) g g
    g *= 1 - b1
    m *= b1
    m += g                              # m = b1 m + (1 - b1) g
    np.divide(v, 1 - b2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += cfg.epsilon                  # sqrt(vhat) + eps
    np.divide(m, 1 - b1 ** t, out=g)
    g *= lr
    g /= tmp                            # lr mhat / (sqrt(vhat) + eps)
    np.concatenate([theta.ravel() for theta in params.values()], out=tmp)
    tmp *= lr * cfg.weight_decay
    tmp += g                            # lr wd theta + lr mhat / (sqrt(vhat) + eps)
    start = 0
    for theta in params.values():
        theta -= tmp[start:start + theta.size].reshape(theta.shape)
        start += theta.size


def train_epochs(records, class_ids: list, params: dict, cfg: TrainConfig,
                 rng: np.random.Generator, epochs: int, forward):
    """The minibatch multi-label BCE loop of pretraining and the projection:
    balanced batches over `class_ids`, AdamW on `params` in place under the
    `lr_at` schedule. Yields each epoch's mean loss.

    `forward(ids, targets)` takes clip ids and (N, K) multi-hot targets and
    returns (logits, targets, backward); targets come back because mixup
    replaces them. `backward(dlogits)` returns a gradient per `params` key.
    """
    tags = {r.clip_id: r.tags for r in records}
    sampler = protocol.balanced_sampler(records, class_ids,
                                        seed=int(rng.integers(2 ** 31)))
    opt_state = init_adamw_state(params)
    steps_per_epoch = max(1, len(records) // cfg.batch_size)
    for epoch in range(epochs):
        lr = lr_at(epoch, cfg)
        losses = []
        for _ in range(steps_per_epoch):
            ids = [next(sampler) for _ in range(cfg.batch_size)]
            # The last step's `backward` keeps its activation cache until this
            # forward returns. Freed earlier, the cache is often the top of the
            # heap, which malloc trims and faults back in: 150k-210k minor
            # page faults per 2-epoch toy pretraining instead of 13k-26k.
            logits, targets, backward = forward(
                ids, protocol.multi_hot([tags[c] for c in ids], class_ids))
            loss = bce_loss(logits, targets)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            grads = backward(bce_loss_backward(logits, targets))
            adamw_step(params, grads, opt_state, lr, cfg)
            losses.append(loss)
        yield float(np.mean(losses))


# ---------------------------------------------------------------------------
# Projection training with the backbone frozen


def split_validation_classes(class_ids: list, fraction: float,
                             rng: np.random.Generator):
    """Held-out model-selection classes; errors if the fraction covers none."""
    n_val = int(round(fraction * len(class_ids)))
    if n_val == 0:
        raise DataError(
            f"projection_val_fraction={fraction} selects zero of {len(class_ids)} classes")
    if n_val >= len(class_ids):
        raise DataError("validation classes would cover the whole training set")
    ordered = sorted(class_ids)
    val = sorted(rng.choice(len(ordered), size=n_val, replace=False).tolist())
    val_ids = [ordered[i] for i in val]
    loss_ids = [c for c in ordered if c not in set(val_ids)]
    return loss_ids, val_ids


def train_projection(backbone, manifest, spectrograms: dict, class_ids: list,
                     class_embeddings: dict, cfg: TrainConfig,
                     rng: np.random.Generator, hidden: int, dropout_rate: float,
                     val_fraction: float):
    """Train the projection with the backbone frozen.

    `class_embeddings` maps class id -> semantic vector (np.ndarray of dim n).
    Validation classes (`val_fraction` of class_ids) are removed from the
    loss entirely; after each epoch, tagging mAP on the val split over those
    classes drives checkpoint selection. Returns (best Projection,
    selection report dict).
    """
    loss_ids, val_ids = split_validation_classes(class_ids, val_fraction, rng)

    train_records = protocol.training_records(manifest, loss_ids)
    val_records = [r for r in manifest if r.split == "val"]
    if not train_records:
        raise DataError("no training clips tagged with the loss classes")
    if not val_records:
        raise DataError("empty validation split")
    train_emb = dict(zip([r.clip_id for r in train_records], backbone.embed(
        [spectrograms[r.clip_id] for r in train_records])))
    val_emb = backbone.embed([spectrograms[r.clip_id] for r in val_records])

    n = next(iter(class_embeddings.values())).shape[0]
    # a clip listed twice in the manifest counts once in the normalizer
    amat = np.stack(list(train_emb.values()))
    p = Projection(ProjectionConfig(amat.shape[1], n, hidden, dropout_rate), rng)
    p.stats["mean"][:] = amat.mean(axis=0)
    p.stats["std"][:] = np.maximum(amat.std(axis=0), 1e-8)

    e_loss = np.stack([class_embeddings[c] for c in loss_ids])
    e_val = np.stack([class_embeddings[c] for c in val_ids])
    val_labels = protocol.multi_hot([r.tags for r in val_records], val_ids)

    def forward(ids, targets):
        proj, cache = project_batch(np.stack([train_emb[c] for c in ids]), p,
                                    train=True, rng=rng)

        def backward(dlogits):
            _, grads = project_backward(dlogits @ e_loss, p, cache)
            return {k: grads[k] for k in p.params}
        return proj @ e_loss.T, targets, backward

    history = {"per_epoch_loss": [], "val_map": [], "val_classes": val_ids,
               "best_epoch": -1, "best_val_map": -np.inf}
    best = copy.deepcopy(p)
    for epoch, loss in enumerate(train_epochs(train_records, loss_ids, p.params,
                                              cfg, rng, cfg.epochs, forward)):
        proj, _ = project_batch(val_emb, p)
        vmap = mean_ap([average_precision(s, y) for s, y in
                        zip((proj @ e_val.T).T, val_labels.T)])[0]
        history["per_epoch_loss"].append(loss)
        history["val_map"].append(vmap)
        if vmap > history["best_val_map"]:
            best = copy.deepcopy(p)
            history["best_epoch"], history["best_val_map"] = epoch, vmap
    return best, history

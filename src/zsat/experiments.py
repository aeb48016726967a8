"""End-to-end pipeline helpers shared by the command-line interface and the
test suite: corpus loading, backbone pretraining, projection training, and
zero-shot evaluation, each driven by an ExperimentConfig."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import backbones, crossmodal, dsp, evaluation, protocol, semantics
from .config import ExperimentConfig

# Each pipeline phase draws from its own seeded stream, so running phases as
# separate processes gives the same results as running them in one chain.
PHASE_PRETRAIN = 1
PHASE_PROJECTION = 2


class DataError(ValueError):
    pass


def phase_rng(seed: int, phase: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(phase)])


@dataclass
class Corpus:
    root: str
    records: list                 # ClipRecord
    labels: dict                  # class id -> display label
    train_ids: list
    test_ids: list
    class_embeddings: dict        # class id -> semantic vector
    spectrograms: dict            # clip id -> MelSpectrogram


def load_corpus(corpus_dir, mel: dsp.MelConfig) -> Corpus:
    """Load a corpus directory (manifest.jsonl, classes.json, word_vectors.txt,
    audio/) and precompute log-mel spectrograms for every clip."""
    root = Path(corpus_dir)
    manifest_path = root / "manifest.jsonl"
    classes_path = root / "classes.json"
    vec_path = root / "word_vectors.txt"
    for p in (manifest_path, classes_path, vec_path):
        if not p.exists():
            raise DataError(f"corpus is missing {p.name} (looked in {root})")
    records = protocol.load_manifest(manifest_path)
    with open(classes_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    store = semantics.load_word_vectors(vec_path)
    labels = meta["labels"]
    class_embeddings = {}
    for cid, label in labels.items():
        desc = semantics.ClassDescriptor(cid, label)
        class_embeddings[cid] = semantics.embed_label(desc, store).vector
    spectrograms = {}
    for r in records:
        path = Path(r.path)
        if not path.is_absolute():
            path = root / path
        try:
            w = dsp.load_wav(path, expected_rate=mel.sample_rate)
        except (OSError, dsp.AudioFormatError, dsp.SampleRateMismatch) as exc:
            raise DataError(f"clip {r.clip_id}: {exc}") from exc
        spectrograms[r.clip_id] = dsp.compute_logmel(w, mel)
    return Corpus(root=str(root), records=records, labels=labels,
                  train_ids=list(meta["train"]), test_ids=list(meta["test"]),
                  class_embeddings=class_embeddings, spectrograms=spectrograms)


def _backbone_config(cfg: ExperimentConfig):
    """The settings block of the configured backbone kind."""
    return getattr(cfg, backbones.BACKBONE_KINDS[cfg.backbone].config_key)


def build_backbone(cfg: ExperimentConfig, rng: np.random.Generator):
    return backbones.BACKBONE_KINDS[cfg.backbone](_backbone_config(cfg), rng)


def embed_dim(cfg: ExperimentConfig) -> int:
    return _backbone_config(cfg).embed_dim


def run_pretrain(cfg: ExperimentConfig, corpus: Corpus, seed: int,
                 model=None, head=None, epochs: int | None = None):
    """Supervised multi-label pretraining on the corpus training classes.

    Pass an existing (model, head) pair to resume; otherwise both are
    initialized from the seed's pretraining stream. Returns
    (model, head, loss history).
    """
    rng = phase_rng(seed, PHASE_PRETRAIN)
    if model is None:
        model = build_backbone(cfg, rng)
        head = backbones.ClassifierHead.init(len(corpus.train_ids),
                                             embed_dim(cfg), rng)
    return backbones.pretrain_backbone(
        model, head, corpus.records, corpus.train_ids, corpus.spectrograms,
        cfg.pretrain, cfg.augment, rng, epochs=epochs)


def run_projection(cfg: ExperimentConfig, corpus: Corpus, model, seed: int):
    """Train the audio-to-semantic projection with the backbone frozen.
    Returns (ProjectionParams, selection report)."""
    rng = phase_rng(seed, PHASE_PROJECTION)
    return crossmodal.train_projection(
        model, corpus.records, corpus.spectrograms, corpus.train_ids,
        corpus.class_embeddings, cfg.projection, rng,
        hidden=cfg.projection_hidden, dropout_rate=cfg.projection_dropout)


def evaluate_zero_shot(corpus: Corpus, model, proj,
                       candidate_ids: list | None = None) -> dict:
    """Tagging and classification metrics on the test split over unseen
    classes, plus the train-proximity analysis of per-class precision."""
    test_ids = candidate_ids if candidate_ids is not None else corpus.test_ids
    test_recs = [r for r in corpus.records if r.split == "test"]
    if not test_recs:
        raise DataError("corpus has no test-split clips")
    emb = {r.clip_id: model.embed(corpus.spectrograms[r.clip_id]).astype(float)
           for r in test_recs}

    # single-label clips -> forced-choice classification over unseen classes
    cands = [semantics.SemanticEmbedding(corpus.class_embeddings[c], c)
             for c in sorted(test_ids)]
    cls_recs = [r for r in test_recs
                if len(r.tags) == 1 and r.tags[0] in set(test_ids)]
    predictions = [crossmodal.classify(emb[r.clip_id], cands, proj)
                   for r in cls_recs]
    truths = [r.tags[0] for r in cls_recs]
    accuracy = evaluation.top1_accuracy(predictions, truths) if cls_recs else None

    a = np.stack([emb[r.clip_id] for r in test_recs])
    projected, _ = crossmodal.project_batch(a, proj)
    aps, random_aps = {}, {}
    for c in test_ids:
        y = np.array([1 if c in r.tags else 0 for r in test_recs])
        aps[c] = evaluation.average_precision(projected @ corpus.class_embeddings[c], y)
        random_aps[c] = evaluation.random_baseline_ap(int(y.sum()), len(y))
    m_ap, skipped = evaluation.mean_ap(list(aps.values()))
    baseline = float(np.mean(list(random_aps.values())))
    train_emb = {c: corpus.class_embeddings[c] for c in corpus.train_ids}
    held_emb = {c: corpus.class_embeddings[c] for c in test_ids}
    prox = evaluation.proximity_correlation(aps, random_aps, train_emb, held_emb)
    return {
        "n_test_clips": len(test_recs),
        "n_classified": len(cls_recs),
        "accuracy": accuracy,
        "random_accuracy": 1.0 / len(test_ids) if test_ids else None,
        "per_class_ap": {c: aps[c] for c in sorted(aps)},
        "random_ap": {c: random_aps[c] for c in sorted(random_aps)},
        "mean_ap": m_ap,
        "skipped_classes": skipped,
        "random_mean_ap": baseline,
        "proximity": prox.to_json(),
    }


def run_experiment(cfg: ExperimentConfig, corpus: Corpus, seed: int) -> dict:
    """Full per-seed pipeline: pretrain, projection, zero-shot evaluation."""
    model, head, history = run_pretrain(cfg, corpus, seed)
    proj, report = run_projection(cfg, corpus, model, seed)
    result = evaluate_zero_shot(corpus, model, proj)
    result["seed"] = seed
    result["pretrain_loss"] = history
    result["projection_selection"] = report
    return result


def aggregate_results(results: list) -> dict:
    """Mean metrics over seeds; per-class precision averaged before any
    cross-seed analysis so class-level noise is damped."""
    seeds = [r["seed"] for r in results]
    accs = [r["accuracy"] for r in results if r["accuracy"] is not None]
    maps = [r["mean_ap"] for r in results if r["mean_ap"] is not None]
    class_ids = sorted(results[0]["per_class_ap"])
    mean_aps = {}
    for c in class_ids:
        vals = [r["per_class_ap"][c] for r in results
                if r["per_class_ap"][c] is not None]
        mean_aps[c] = float(np.mean(vals)) if vals else None
    agg = {
        "seeds": seeds,
        "mean_accuracy": float(np.mean(accs)) if accs else None,
        "mean_ap": float(np.mean(maps)) if maps else None,
        "random_mean_ap": results[0]["random_mean_ap"],
        "random_accuracy": results[0]["random_accuracy"],
        "per_class_mean_ap": mean_aps,
    }
    # proximity correlation recomputed on seed-averaged per-class precision,
    # which damps per-seed class noise before the correlation
    prox_by_class = {row["class_id"]: row["proximity"]
                     for row in results[0]["proximity"]["per_class"]}
    gains, proxs = [], []
    for c in class_ids:
        if mean_aps[c] is None:
            continue
        gains.append(mean_aps[c] - results[0]["random_ap"][c])
        proxs.append(prox_by_class[c])
    agg["proximity_r"] = evaluation.pearson_r(np.array(gains), np.array(proxs))
    return agg

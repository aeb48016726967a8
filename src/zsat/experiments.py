"""End-to-end pipeline helpers shared by the command-line interface and the
test suite: corpus loading, backbone pretraining, projection training, and
zero-shot evaluation, each driven by an ExperimentConfig."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import backbones, crossmodal, dsp, evaluation, protocol, semantics
from .config import ExperimentConfig
from .errors import DataError

# Each pipeline phase draws from its own seeded stream, so running phases as
# separate processes gives the same results as running them in one chain.
PHASE_PRETRAIN = 1
PHASE_PROJECTION = 2


def phase_rng(seed: int, phase: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(phase)])


@dataclass
class Corpus:
    records: list                 # ClipRecord
    labels: dict                  # class id -> display label
    train_ids: list
    test_ids: list
    class_embeddings: dict        # class id -> semantic vector
    spectrograms: dict            # clip id -> (n_mels, frames) log-mel array
    root: Path                    # directory relative clip paths are read from


def load_corpus(corpus_dir, mel: dsp.MelConfig, splits=protocol.SPLITS) -> Corpus:
    """Load a corpus directory (manifest.jsonl, classes.json, word_vectors.txt,
    audio/) and the log-mels `compute_spectrograms` computes for `splits`;
    `splits=()` reads no WAV. Records, labels and class embeddings cover the
    whole corpus."""
    root = Path(corpus_dir)
    manifest_path = root / "manifest.jsonl"
    classes_path = root / "classes.json"
    vec_path = root / "word_vectors.txt"
    for p in (manifest_path, classes_path, vec_path):
        if not p.exists():
            raise DataError(f"corpus is missing {p.name} (looked in {root})")
    records = protocol.load_manifest(manifest_path)
    meta = protocol.load_json(classes_path, {"labels": dict[str, str],
                                             "train": tuple[str, ...], "test": tuple[str, ...]})
    labels = meta["labels"]
    if not labels:
        raise DataError(f"{classes_path}: the labels map is empty")
    unknown = sorted((set(meta["train"]) | set(meta["test"])) - set(labels))
    if unknown:
        raise DataError(f"{classes_path}: classes {unknown} have no label")
    vectors = semantics.load_word_vectors(vec_path)
    class_embeddings = {cid: semantics.embed_label(label, vectors)
                        for cid, label in labels.items()}
    corpus = Corpus(records=records, labels=labels,
                    train_ids=list(meta["train"]), test_ids=list(meta["test"]),
                    class_embeddings=class_embeddings, spectrograms={}, root=root)
    compute_spectrograms(corpus, mel, splits)
    return corpus


def compute_spectrograms(corpus: Corpus, mel: dsp.MelConfig, splits) -> None:
    """Fill `corpus.spectrograms` with the log-mel of each clip of `splits`
    that some phase reads: a train-split clip only when it carries a class of
    `corpus.train_ids` (`protocol.training_records`). Narrowing `train_ids`
    afterwards is safe, since every clip it keeps was computed; widening it
    is not."""
    train = set(protocol.training_records(corpus.records, corpus.train_ids))
    for r in corpus.records:
        if r.split in splits and (r.split != "train" or r in train):
            try:
                corpus.spectrograms[r.clip_id] = dsp.compute_logmel(dsp.load_wav(
                    corpus.root / r.path, expected_rate=mel.sample_rate), mel)
            except (OSError, DataError) as exc:
                raise DataError(f"clip {r.clip_id}: {exc}") from exc


def build_backbone(cfg: ExperimentConfig, rng: np.random.Generator):
    return backbones.BACKBONE_KINDS[cfg.backbone](cfg.backbone_settings(), rng)


def embed_dim(cfg: ExperimentConfig) -> int:
    return cfg.backbone_settings().embed_dim


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
        head = backbones.ClassifierHead(
            backbones.HeadConfig(len(corpus.train_ids), embed_dim(cfg)), rng)
    return backbones.pretrain_backbone(
        model, head, corpus.records, corpus.train_ids, corpus.spectrograms,
        cfg.pretrain, cfg.augment, rng, epochs=epochs)


def run_projection(cfg: ExperimentConfig, corpus: Corpus, model, seed: int):
    """Train the audio-to-semantic projection with the backbone frozen.
    Returns (Projection, selection report)."""
    rng = phase_rng(seed, PHASE_PROJECTION)
    return crossmodal.train_projection(
        model, corpus.records, corpus.spectrograms, corpus.train_ids,
        corpus.class_embeddings, cfg.projection, rng,
        hidden=cfg.projection_hidden, dropout_rate=cfg.projection_dropout,
        val_fraction=cfg.projection_val_fraction)


def evaluate_zero_shot(corpus: Corpus, model, proj,
                       category_map: dict | None = None) -> dict:
    """Tagging and classification metrics on the test split over unseen
    classes, plus the train-proximity analysis of per-class precision.
    With a `category_map` (class id -> category), also the forced-choice
    accuracy within each category's test classes (None under two)."""
    test_ids = corpus.test_ids
    test_recs = [r for r in corpus.records if r.split == "test"]
    if not test_recs:
        raise DataError("corpus has no test-split clips")
    projected, _ = crossmodal.project_batch(
        model.embed([corpus.spectrograms[r.clip_id] for r in test_recs]), proj)

    # single-label clips -> forced-choice classification over unseen classes
    single = [(i, r.tags[0]) for i, r in enumerate(test_recs) if len(r.tags) == 1]

    def forced_choice(ids):
        rows = [(i, t) for i, t in single if t in ids]
        if not rows:
            return [], []
        preds = crossmodal.classify(projected[[i for i, _ in rows]],
                                    corpus.class_embeddings, ids)
        return preds, [t for _, t in rows]

    predictions, truths = forced_choice(set(test_ids))
    accuracy = evaluation.top1_accuracy(predictions, truths) if truths else None

    aps, random_aps = {}, {}
    labels = protocol.multi_hot([r.tags for r in test_recs], test_ids)
    for c, y in zip(test_ids, labels.T):
        aps[c] = evaluation.average_precision(projected @ corpus.class_embeddings[c], y)
        random_aps[c] = evaluation.random_baseline_ap(int(y.sum()), len(y))
    m_ap, skipped = evaluation.mean_ap(list(aps.values()))
    baseline = float(np.mean(list(random_aps.values())))
    train_emb = {c: corpus.class_embeddings[c] for c in corpus.train_ids}
    proximity = {c: evaluation.nearest_similarity(corpus.class_embeddings[c], train_emb)
                 for c in test_ids if aps[c] is not None}
    result = {
        "n_test_clips": len(test_recs),
        "n_classified": len(truths),
        "accuracy": accuracy,
        "random_accuracy": 1.0 / len(test_ids),
        "per_class_ap": {c: aps[c] for c in sorted(aps)},
        "random_ap": {c: random_aps[c] for c in sorted(random_aps)},
        "mean_ap": m_ap,
        "skipped_classes": skipped,
        "random_mean_ap": baseline,
        "proximity": evaluation.proximity_correlation(aps, random_aps, proximity),
    }
    if category_map:
        per_category = {}
        for cat in sorted(set(category_map.values())):
            ids = [c for c in test_ids if category_map.get(c) == cat]
            preds, cat_truths = forced_choice(ids) if len(ids) >= 2 else ([], [])
            per_category[cat] = (evaluation.top1_accuracy(preds, cat_truths)
                                 if cat_truths else None)
        result["per_category_accuracy"] = per_category
    return result


def aggregate_results(results: list) -> dict:
    """Mean metrics over seeds; per-class precision averaged before the
    proximity analysis, which damps per-seed class noise. The seeds share
    the training classes and the test split, so a class has a positive test
    clip in every seed or in none, and seed 0's proximities hold for all."""
    accs = [r["accuracy"] for r in results if r["accuracy"] is not None]
    mean_aps = {c: None if ap is None else float(np.mean([r["per_class_ap"][c]
                                                          for r in results]))
                for c, ap in sorted(results[0]["per_class_ap"].items())}
    proximity = {row["class_id"]: row["proximity"]
                 for row in results[0]["proximity"]["per_class"]}
    return {
        "seeds": [r["seed"] for r in results],
        "mean_accuracy": float(np.mean(accs)) if accs else None,
        "mean_ap": float(np.mean([r["mean_ap"] for r in results])),
        "random_mean_ap": results[0]["random_mean_ap"],
        "random_accuracy": results[0]["random_accuracy"],
        "per_class_mean_ap": mean_aps,
        "proximity_r": evaluation.proximity_correlation(
            mean_aps, results[0]["random_ap"], proximity)["pearson_r"],
    }

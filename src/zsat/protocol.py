"""Experimental protocol machinery: class-fold balancing, class-overlap
exclusion, balanced multi-label sampling, dataset manifests, and the
synthetic tone corpus used for desk-scale verification."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp, semantics
from .errors import ConfigError, Count, DataError, Positive, check, settings

SPLITS = ("train", "val", "test")


@settings
class ClipRecord:
    clip_id: str
    path: str
    tags: tuple[str, ...]
    split: str  # one of SPLITS


@dataclass
class FoldSplit:
    folds: list          # list of lists of class ids
    totals: list         # per-fold tag totals
    pinned: list         # class ids excluded from all folds


def load_json(path, tp, **defaults):
    """The JSON file at `path`, `check`ed against the annotation `tp`; a dict
    `tp` maps each key the file's object must hold, or take from `defaults`,
    to its annotation. A mismatch is a `DataError` naming the file and key."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if not isinstance(tp, dict):
            return check("the file", data, tp)
        data = {**defaults, **check("the file", data, dict)}
        for key, key_tp in tp.items():
            if key not in data:
                raise DataError(f"{path}: missing key {key!r}")
            check(key, data[key], key_tp)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return data


def load_manifest(path) -> list:
    """JSON-lines manifest: {"id", "path", "tags": [...], "split"} per line."""
    records, seen = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                r = ClipRecord(clip_id=rec["id"], path=rec["path"],
                               tags=rec["tags"], split=rec["split"])
            except (ValueError, KeyError, TypeError, ConfigError) as exc:
                raise DataError(f"{path}:{lineno}: bad manifest record: {exc!r}") from exc
            if r.split not in SPLITS:
                raise DataError(f"{path}:{lineno}: split {r.split!r} is not one of {SPLITS}")
            if seen.setdefault(r.clip_id, r.path) != r.path:
                raise DataError(f"{path}:{lineno}: clip id {r.clip_id} reused "
                                f"with a different path")
            records.append(r)
    return records


def save_manifest(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.clip_id, "path": r.path,
                                 "tags": list(r.tags), "split": r.split}) + "\n")


def load_tag_counts(path) -> dict:
    """CSV "class_id,label,count" -> {class_id: (label, count)}."""
    out = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0] == "class_id":
                continue
            try:
                out[row[0]] = (row[1], int(row[2]))
            except (IndexError, ValueError):
                raise DataError(f"{path}:{lineno}: expected "
                                f"class_id,label,integer count, got {row}") from None
    return out


def balance_folds(counts: dict, k: int, pinned=()) -> FoldSplit:
    """Greedy fold balancing: iterate classes in descending tag count order and
    assign each to the fold with the lowest running total.

    `counts` maps class id -> tag count. Ties on count break alphabetically by
    class id; ties on fold total break toward the lowest fold index. Pinned
    classes are never assigned to any fold.
    """
    if k < 2:
        raise ConfigError("need at least 2 folds")
    pinned = sorted(set(pinned))
    eligible = {c: n for c, n in counts.items() if c not in pinned}
    if not eligible:
        raise DataError("no classes left after removing pinned classes")
    if k > len(eligible):
        raise DataError(f"fold count {k} exceeds class count {len(eligible)}")
    order = sorted(eligible, key=lambda c: (-eligible[c], c))
    folds = [[] for _ in range(k)]
    totals = [0] * k
    for c in order:
        i = min(range(k), key=lambda j: totals[j])
        folds[i].append(c)
        totals[i] += eligible[c]
    return FoldSplit(folds=folds, totals=totals, pinned=pinned)


def exclude_overlap(all_classes: dict, exclusion: list, synonyms: dict | None = None):
    """Remove classes that overlap with an external label list.

    `all_classes` maps class id -> display label. Each exclusion entry must
    resolve via exact label match (case-insensitive) or the explicit synonym
    map {entry: [class ids]}; an entry resolving to nothing is a hard error.
    Returns (remaining class ids, removed class ids with the entry that
    claimed them).
    """
    synonyms = synonyms or {}
    by_label = {}
    for cid, label in all_classes.items():
        by_label.setdefault(label.lower(), []).append(cid)
    removed = []
    removed_ids = set()
    for entry in exclusion:
        hits = list(by_label.get(entry.lower(), []))
        for cid in synonyms.get(entry, []):
            if cid not in all_classes:
                raise DataError(f"synonym map for {entry!r} names unknown class {cid!r}")
            hits.append(cid)
        if not hits:
            raise DataError(f"exclusion entry {entry!r} matches no class "
                            f"and has no synonym entry")
        for cid in hits:
            if cid not in removed_ids:
                removed_ids.add(cid)
                removed.append({"entry": entry, "class_id": cid})
    remaining = [c for c in sorted(all_classes) if c not in removed_ids]
    return remaining, removed


def training_records(manifest, class_ids) -> list:
    """The train-split records that carry at least one of `class_ids`: the
    clips pretraining and the projection's loss read."""
    return [r for r in manifest if r.split == "train"
            and any(t in class_ids for t in r.tags)]


def multi_hot(tag_lists, class_ids) -> np.ndarray:
    """(N, K) float64 targets: row i is 1 in column k when class_ids[k] is
    one of tag_lists[i]; tags outside `class_ids` are ignored."""
    index = {c: k for k, c in enumerate(class_ids)}
    y = np.zeros((len(tag_lists), len(class_ids)))
    for row, tags in enumerate(tag_lists):
        for t in tags:
            if t in index:
                y[row, index[t]] = 1.0
    return y


def balanced_sampler(records, class_ids, seed: int):
    """Infinite deterministic clip-id stream with per-class shuffled queues,
    cycled round-robin; clips with no tag in `class_ids` never appear."""
    class_ids = sorted(class_ids)
    per_class = {c: [r.clip_id for r in records if c in r.tags] for c in class_ids}
    for c, clips in per_class.items():
        if not clips:
            raise DataError(f"class {c!r} has no clips in the given records")

    class_pos = {c: i for i, c in enumerate(class_ids)}

    def gen():
        queues = {}
        epochs = {c: 0 for c in class_ids}
        while True:
            for c in class_ids:
                if not queues.get(c):
                    rng = np.random.default_rng((seed, class_pos[c], epochs[c]))
                    queue = list(per_class[c])
                    rng.shuffle(queue)
                    queues[c] = queue
                    epochs[c] += 1
                yield queues[c].pop()

    return gen()


# ---------------------------------------------------------------------------
# Synthetic corpus generator


@settings
class SyntheticSpec:
    n_classes: Count = 12
    clips_per_class: int = 20
    n_multilabel: int = 24
    clip_seconds: Positive = 1.0
    sample_rate: Count = 32000
    fmin_hz: float = 300.0
    fmax_hz: float = 4000.0
    noise_level: float = 0.01
    mel: dsp.MelConfig = field(default_factory=lambda: dsp.MelConfig(n_mels=64))
    # held-out (zero-shot) classes; the rest are training classes
    test_classes: tuple[int, ...] = (2, 5, 8, 11)

    def __post_init__(self):
        if self.n_multilabel > 0 and self.n_classes < 2:
            raise ConfigError(f"n_multilabel > 0 needs n_classes >= 2, not {self.n_classes}")
        if self.sample_rate > 2**31 - 1:
            # a PCM16 mono header holds the byte rate, 2 * sample_rate, in 32 bits
            raise ConfigError(f"sample_rate must be at most 2**31 - 1, not {self.sample_rate}")
        if self.clip_seconds * self.sample_rate < 1:
            raise ConfigError("clip_seconds * sample_rate must be at least 1 sample")
        if not all(0 <= i < self.n_classes for i in self.test_classes):
            raise ConfigError(f"test_classes {self.test_classes} must lie in [0, n_classes)")

    def class_id(self, i: int) -> str:
        return f"c{i:02d}"


def _class_signature(spec: SyntheticSpec, i: int):
    """Fundamental frequency and harmonic amplitudes for class i.

    Fundamentals are mel-spaced across [fmin_hz, fmax_hz]; harmonic
    amplitudes vary smoothly with the fundamental, so acoustically close
    classes also share timbre. This gives the corpus a graded
    semantic-acoustic alignment.
    """
    mels = np.linspace(dsp.hz_to_mel(spec.fmin_hz), dsp.hz_to_mel(spec.fmax_hz),
                       spec.n_classes)
    f0 = float(dsp.mel_to_hz(mels[i]))
    fn = i / max(spec.n_classes - 1, 1)
    harmonics = (1.0, 0.7 * fn, 0.7 * (1.0 - fn))
    return f0, harmonics


def synthetic_word_vector(spec: SyntheticSpec, i: int) -> np.ndarray:
    """Semantic vector correlated with the class's acoustic signature.

    The first coordinates are constant-norm Fourier features of the
    normalized fundamental (weights chosen so cosine similarity decreases
    monotonically with pitch distance); the rest encode the fundamental and
    the harmonic amplitudes directly, with small weights so they perturb the
    metric only mildly.
    """
    f0, harmonics = _class_signature(spec, i)
    fn = (dsp.hz_to_mel(f0) - dsp.hz_to_mel(spec.fmin_hz)) / (
        dsp.hz_to_mel(spec.fmax_hz) - dsp.hz_to_mel(spec.fmin_hz))
    theta = np.pi * fn
    feats = np.array([
        np.cos(theta), np.sin(theta),
        0.5 * np.cos(2 * theta), 0.5 * np.sin(2 * theta),
        0.3 * fn, 0.3 * (1.0 - fn),
        0.3 * harmonics[1], 0.3 * harmonics[2],
    ])
    return feats / np.linalg.norm(feats)


def _render_clip(spec: SyntheticSpec, class_indices, rng: np.random.Generator):
    n = int(spec.clip_seconds * spec.sample_rate)
    t = np.arange(n) / spec.sample_rate
    sig = np.zeros(n)
    for i in class_indices:
        f0, harmonics = _class_signature(spec, i)
        phase = rng.uniform(0, 2 * np.pi)
        for h, amp in enumerate(harmonics, start=1):
            if amp > 0:
                sig += amp * np.sin(2 * np.pi * f0 * h * t + phase)
    sig += spec.noise_level * rng.standard_normal(n)
    peak = np.max(np.abs(sig))
    return 0.5 * sig / peak


def generate_synthetic_corpus(spec: SyntheticSpec, out_dir, seed: int):
    """Write wav files, a JSON-lines manifest, a word-vector file, and class
    metadata. Same seed -> byte-identical outputs.

    Returns (manifest records, class labels dict, word-vector path).
    """
    centers = dsp.mel_center_frequencies(spec.mel)
    f0s = [_class_signature(spec, i)[0] for i in range(spec.n_classes)]
    bins = [int(np.argmin(np.abs(centers - f))) for f in f0s]
    if len(set(bins)) != len(bins):
        raise ConfigError("class fundamentals closer than one mel bin; "
                          "widen [fmin_hz, fmax_hz] or reduce n_classes")
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    records = []

    def write(clip_id: str, classes, j: int, total: int) -> np.ndarray:
        """Render, save and record one clip, split 70/15/15 by its index j
        among `total`; returns its samples."""
        w = _render_clip(spec, classes, rng)
        rel = f"audio/{clip_id}.wav"
        dsp.save_wav(out_dir / rel, w, spec.sample_rate)
        split = ("train" if j < int(round(total * 0.70)) else
                 "val" if j < int(round(total * 0.85)) else "test")
        records.append(ClipRecord(clip_id=clip_id, path=rel, split=split,
                                  tags=tuple(spec.class_id(i) for i in classes)))
        return w

    # `w` lives until the next clip is rendered. Freed at once, it is often
    # the top of the heap, which malloc trims and faults back in: ~84k minor
    # page faults per toy corpus instead of ~300.
    for i in range(spec.n_classes):
        for j in range(spec.clips_per_class):
            w = write(f"{spec.class_id(i)}_{j:03d}", [i], j, spec.clips_per_class)
    pairs = [rng.choice(spec.n_classes, size=2, replace=False)
             for _ in range(spec.n_multilabel)]
    for j, pair in enumerate(pairs):
        w = write(f"mix_{j:03d}", [int(c) for c in pair], j, spec.n_multilabel)

    save_manifest(out_dir / "manifest.jsonl", records)
    words = [spec.class_id(i) for i in range(spec.n_classes)]
    vecs = np.stack([synthetic_word_vector(spec, i) for i in range(spec.n_classes)])
    vec_path = out_dir / "word_vectors.txt"
    semantics.save_word_vectors(vec_path, words, vecs)
    labels = {spec.class_id(i): spec.class_id(i) for i in range(spec.n_classes)}
    with open(out_dir / "classes.json", "w", encoding="utf-8") as fh:
        json.dump({"labels": labels,
                   "train": [spec.class_id(i) for i in range(spec.n_classes)
                             if i not in spec.test_classes],
                   "test": [spec.class_id(i) for i in spec.test_classes]},
                  fh, indent=2)
    return records, labels, vec_path

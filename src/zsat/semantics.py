"""Label-side embeddings: plain-text word vectors, multi-word label
averaging and cosine similarity."""

from __future__ import annotations

import re

import numpy as np

from .errors import DataError

_TOKEN_SPLIT = re.compile(r"[\s,\-]+")


def tokenize(label: str) -> list:
    """Lower-cased words of a label, split at spaces, commas and hyphens,
    with parentheses stripped."""
    toks = [t for t in _TOKEN_SPLIT.split(label.lower()) if t]
    toks = [t.strip("()") for t in toks]
    toks = [t for t in toks if t]
    if not toks:
        raise DataError(f"label {label!r} produced no tokens")
    return toks


def load_word_vectors(path) -> dict:
    """Parse the plain-text vector format: 'word f1 f2 ... fn' per line,
    with an optional 'count dim' header line, into {word: float64 vector}."""
    vectors = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\r\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            word = parts[0]
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable float") from exc
            if vec.size == 0:
                raise DataError(f"{path}:{lineno}: no vector components")
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite vector component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(f"{path}:{lineno}: dimension {vec.size} != {dim}")
            if word in vectors:
                raise DataError(f"{path}:{lineno}: duplicate word {word!r}")
            vectors[word] = vec
    if not vectors:
        raise DataError(f"{path}: empty vector file")
    return vectors


def save_word_vectors(path, words: list, vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w, v in zip(words, vectors):
            fh.write(w + " " + " ".join(repr(float(x)) for x in v) + "\n")


def embed_label(label: str, vectors: dict) -> np.ndarray:
    """Mean of the label's in-vocabulary token vectors; OOV tokens are skipped."""
    in_vocab = [t for t in tokenize(label) if t in vectors]
    if not in_vocab:
        raise DataError(f"no token of label {label!r} is in the vector vocabulary")
    return np.mean([vectors[t] for t in in_vocab], axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise DataError("zero-norm vector in cosine similarity")
    return float(np.dot(a, b) / (na * nb))

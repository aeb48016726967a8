"""Label-side embeddings: plain-text word-vector store with multi-word
averaging and cosine similarity."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

_TOKEN_SPLIT = re.compile(r"[\s,\-]+")


class VectorFileError(ValueError):
    pass


class UnembeddableLabel(ValueError):
    pass


@dataclass
class VectorStore:
    vocab: dict            # word -> row index
    vectors: np.ndarray    # (v, n)
    dim: int
    source: str = ""

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.vocab[word]]


@dataclass(frozen=True)
class ClassDescriptor:
    class_id: str
    label: str

    @property
    def tokens(self) -> list:
        toks = [t for t in _TOKEN_SPLIT.split(self.label.lower()) if t]
        toks = [t.strip("()") for t in toks]
        toks = [t for t in toks if t]
        if not toks:
            raise ValueError(f"label {self.label!r} produced no tokens")
        return toks


@dataclass
class SemanticEmbedding:
    vector: np.ndarray
    class_id: str
    oov_tokens: list = field(default_factory=list)


def load_word_vectors(path, source: str = "") -> VectorStore:
    """Parse the plain-text vector format: 'word f1 f2 ... fn' per line,
    with an optional 'count dim' header line."""
    vocab, rows = {}, []
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
                raise VectorFileError(f"{path}:{lineno}: unparsable float") from exc
            if vec.size == 0:
                raise VectorFileError(f"{path}:{lineno}: no vector components")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise VectorFileError(
                    f"{path}:{lineno}: dimension {vec.size} != {dim}")
            if word in vocab:
                raise VectorFileError(f"{path}:{lineno}: duplicate word {word!r}")
            vocab[word] = len(rows)
            rows.append(vec)
    if not rows:
        raise VectorFileError(f"{path}: empty vector file")
    return VectorStore(vocab=vocab, vectors=np.vstack(rows), dim=dim, source=source)


def save_word_vectors(path, words: list, vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w, v in zip(words, vectors):
            fh.write(w + " " + " ".join(repr(float(x)) for x in v) + "\n")


def embed_label(c: ClassDescriptor, store: VectorStore) -> SemanticEmbedding:
    """Mean of in-vocabulary token vectors; OOV tokens are skipped and recorded."""
    in_vocab, oov = [], []
    for tok in c.tokens:
        (in_vocab if tok in store else oov).append(tok)
    if not in_vocab:
        raise UnembeddableLabel(
            f"no token of label {c.label!r} is in the vector vocabulary")
    vec = np.mean([store.vector(t) for t in in_vocab], axis=0)
    return SemanticEmbedding(vector=vec, class_id=c.class_id, oov_tokens=oov)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("zero-norm vector in cosine similarity")
    return float(np.dot(a, b) / (na * nb))

"""Binary checkpoint format shared by all trained modules, and `Module`,
the one way they are saved and loaded.

Layout: magic "ZSCK", format version (u32), kind tag (u32 length + UTF-8),
hyperparameter block (u32 length + UTF-8 JSON), tensor count (u32), then per
tensor: name (u32 length + UTF-8), rank (u32), dims (u32 each), row-major
little-endian float32 data.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

MAGIC = b"ZSCK"
VERSION = 1


def write_atomic(path, write) -> None:
    """Call `write` on a binary file handle to a temporary file beside
    `path`, then move the file into place, so an interrupted write leaves
    any previous file at `path` whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, kind: str, hyperparams: dict, tensors: dict) -> None:
    """Write a checkpoint through `write_atomic`."""
    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        kb = kind.encode("utf-8")
        fh.write(struct.pack("<I", len(kb)) + kb)
        hb = json.dumps(hyperparams, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(hb)) + hb)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)) + nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
    write_atomic(path, write)


def _read_exact(fh, n: int, what: str) -> bytes:
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"truncated checkpoint while reading {what}")
    return fh.read(n)


def _read_u32(fh, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, what))[0]


def load_checkpoint(path, expected_kind: str):
    """Returns (kind, hyperparams, tensors as float32 arrays); each tensor is
    checked to be finite, each length against the bytes left before it is read."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic)")
        if (version := _read_u32(fh, "version")) != VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        kind = _read_exact(fh, _read_u32(fh, "kind length"), "kind").decode("utf-8", "replace")
        if kind != expected_kind:
            raise DataError(f"{path}: checkpoint kind {kind!r}, expected {expected_kind!r}")
        hb = _read_exact(fh, _read_u32(fh, "hyperparam length"), "hyperparams")
        try:
            hyperparams = json.loads(hb.decode("utf-8"))
        except ValueError as exc:   # not UTF-8, or not JSON
            raise DataError(f"{path}: hyperparams are not JSON: {exc}") from exc
        tensors = {}
        for _ in range(_read_u32(fh, "tensor count")):
            name = _read_exact(fh, _read_u32(fh, "name length"), "name").decode("utf-8", "replace")
            if (rank := _read_u32(fh, "rank")) > 32:   # numpy 1.x's limit; a product tensor has 4
                raise DataError(f"{path}: tensor {name!r} has rank {rank}, above 32")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            # a 0 empties the tensor, but numpy still bounds its other dims
            if math.prod(d for d in dims if d) > os.fstat(fh.fileno()).st_size:
                raise DataError(f"{path}: tensor {name!r} of shape {dims} exceeds the file")
            data = np.frombuffer(_read_exact(fh, 4 * math.prod(dims), f"tensor {name}"), "<f4")
            if not np.all(np.isfinite(data)):
                raise DataError(f"{path}: non-finite values in tensor {name!r}")
            tensors[name] = data.reshape(dims).copy()
    return kind, hyperparams, tensors


class Module:
    """A trained part of the system: a backbone, the pretraining head or the
    projection.

    A subclass sets `kind` (its checkpoint tag) and `config_type` (the
    dataclass of its hyperparameters, `cfg`), and lists its tensors once, in
    draw order, in `tensors()`: rows of (name, shape, init, trained). `init`
    is "uniform" (U(-b, b), b = 1/sqrt(prod(shape[1:]))), "normal"
    (N(0, 0.02^2)), "zeros" or "ones"; only the first two draw. Trained
    tensors form `params`, the rest `stats`. Checkpoints hold all of them,
    and `load` checks a file against the table, and against the
    hyperparameters the run needs, and draws nothing.

    One dtype rule: every tensor a module holds, params and stats alike, is
    float32 unless the constructor is given another `dtype`, so a module in
    memory is exactly its checkpoint. A module computes in `dtype` whatever
    its input's dtype: it casts its input once.
    """

    kind: str
    config_type: type

    def __init__(self, cfg, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.params, self.stats = {}, {}
        for name, shape, init, trained in self.tensors():
            if init == "uniform":
                bound = 1.0 / np.sqrt(math.prod(shape[1:]))
                value = rng.uniform(-bound, bound, size=shape)
            elif init == "normal":
                value = 0.02 * rng.standard_normal(shape)
            else:
                value = {"zeros": np.zeros, "ones": np.ones}[init](shape)
            (self.params if trained else self.stats)[name] = value.astype(dtype)

    @classmethod
    def blank(cls, cfg):
        """A module of `cfg` holding no tensors, for its `tensors()` table; draws nothing."""
        module = cls.__new__(cls)
        module.cfg = cfg
        return module

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every tensor the module holds, which it computes in."""
        return next(iter(self.params.values())).dtype

    def hyperparams(self) -> dict:
        return dataclasses.asdict(self.cfg)

    def save(self, path) -> None:
        save_checkpoint(path, self.kind, self.hyperparams(),
                        {**self.params, **self.stats})

    @classmethod
    def load(cls, path, **want):
        """The module of the checkpoint's hyperparameters, holding the file's
        float32 tensors, whose names and shapes must be those of its
        `tensors()` table. Each hyperparameter named in `want` must hold the
        value given there: the one the run needs."""
        _, hp, tensors = load_checkpoint(path, cls.kind)
        try:
            module = cls.blank(cls.config_type(**hp))
            table = module.tensors()
        except (TypeError, ConfigError) as e:
            raise DataError(f"{path}: its hyperparameters build no {cls.kind}: "
                            f"{e}") from e
        for field, value in want.items():
            if (have := getattr(module.cfg, field)) != value:
                raise DataError(f"{path}: its {cls.kind} has {field} {have}; "
                                f"this run needs {value}")
        shapes = {name: shape for name, shape, _, _ in table}
        missing = sorted(set(shapes) - set(tensors))
        unexpected = sorted(set(tensors) - set(shapes))
        if missing or unexpected:
            raise DataError(f"{path}: missing tensors {missing}, "
                            f"unexpected tensors {unexpected}")
        wrong = sorted(k for k, shape in shapes.items() if tensors[k].shape != shape)
        if wrong:
            raise DataError(f"{path}: tensors {wrong} have other shapes than "
                            f"its hyperparameters build")
        module.params = {name: tensors[name] for name, _, _, trained in table if trained}
        module.stats = {name: tensors[name] for name, _, _, trained in table if not trained}
        return module

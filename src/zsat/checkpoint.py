"""Binary checkpoint format shared by all parameterized modules.

Layout: magic "ZSCK", format version (u32), kind tag (u32 length + UTF-8),
hyperparameter block (u32 length + UTF-8 JSON), tensor count (u32), then per
tensor: name (u32 length + UTF-8), rank (u32), dims (u32 each), row-major
little-endian float32 data.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"ZSCK"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, kind: str, hyperparams: dict, tensors: dict) -> None:
    with open(path, "wb") as fh:
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


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, expected_kind: str | None = None):
    """Returns (kind, hyperparams, tensors as float32 arrays)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (klen,) = struct.unpack("<I", _read_exact(fh, 4, "kind length"))
        kind = _read_exact(fh, klen, "kind").decode("utf-8")
        if expected_kind is not None and kind != expected_kind:
            raise CheckpointError(
                f"{path}: checkpoint kind {kind!r} where {expected_kind!r} expected")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "hyperparam length"))
        hyperparams = json.loads(_read_exact(fh, hlen, "hyperparams").decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, nlen, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            n_elem = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(_read_exact(fh, 4 * n_elem, f"tensor {name}"),
                                 dtype="<f4")
            tensors[name] = data.reshape(dims).copy()
    return kind, hyperparams, tensors


def save_backbone(path, model) -> None:
    save_checkpoint(path, model.kind, model.hyperparams(),
                    {**model.params, **model.stats})


def load_backbone(path, expected_kind: str | None = None):
    from .backbones import BACKBONE_KINDS
    kind, hp, tensors = load_checkpoint(path, expected_kind)
    if kind not in BACKBONE_KINDS:
        raise CheckpointError(f"{path}: unknown backbone kind {kind!r}")
    return BACKBONE_KINDS[kind].from_hyperparams(hp, tensors)

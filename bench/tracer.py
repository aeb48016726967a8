"""Outside-in tracer for the zsat modules.

`Tracer.installed()` swaps every public function of the zsat modules (and
the backbones' `embed_batch`/`backward` methods) for a timing wrapper, and
puts the originals back on exit. Because call sites look the names up at
call time, this also catches calls made inside a module (`nn.attention` ->
`nn.linear`), re-exported aliases (`crossmodal.save_checkpoint`) and
function-local imports (`from .dsp import mixup`). No file under `src/`
changes. Spans stay in memory; `layer_metrics` reduces them when the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

METHODS = ("embed_batch", "backward")   # wrapped on every backbone class


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    info: dict | None    # counts derived from argument and result shapes

    @property
    def duration(self) -> float:
        return self.end - self.start


def _f64(out) -> dict:
    return {"f64": out.dtype == np.float64}


def _linear_info(args, kwargs, out) -> dict:
    x, w = args[0], args[1]
    m, k = x.size // x.shape[-1], x.shape[-1]
    return {"gflop": 2.0 * m * w.shape[0] * k / 1e9, **_f64(out)}


def _conv_info(args, kwargs, out) -> dict:
    w = args[1]
    n, cout, ho, wo = out[0].shape
    return {"gflop": 2.0 * n * ho * wo * cout * (w.size // cout) / 1e9}


def _path_info(args, kwargs, out) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"path": str(path), "bytes": os.path.getsize(path)}


# counts taken after the span closes, so they never add to its own time
INFO = {
    "nn.linear": _linear_info,
    "nn.conv2d": _conv_info,
    "nn.gelu": lambda a, k, out: _f64(out),
    "nn.attention": lambda a, k, out: _f64(out[0]),
    "nn.layer_norm": lambda a, k, out: _f64(out[0]),
    "backbones.embed_batch": lambda a, k, out: {"clips": a[1].shape[0]},
    "dsp.load_wav": lambda a, k, out: {"path": str(a[0] if a else k["path"])},
    "checkpoint.save_checkpoint": _path_info,
    "checkpoint.load_checkpoint": _path_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields its index."""
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield self._stack[-1]
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out
        return timed

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap the public functions of `modules` for the duration."""
        wrappers, saved = {}, []

        def patch(owner, attr, name, fn):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("zsat."):
                    home = value.__module__.rsplit(".", 1)[-1]
                    patch(mod, attr, f"{home}.{value.__name__}", value)
                elif inspect.isclass(value) and value.__module__ == "zsat.backbones":
                    for meth in METHODS:
                        if inspect.isfunction(value.__dict__.get(meth)):
                            patch(value, meth, f"backbones.{meth}", value.__dict__[meth])
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; (0, 0) when there are too few samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def _under(spans: list[Span], name: str) -> list[int]:
    """For each span, the index of its nearest ancestor-or-self named `name`."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.name == name else (out[s.parent] if s.parent >= 0 else -1))
    return out


def layer_metrics(spans: list[Span], root: int) -> dict:
    """Per-layer metrics over the spans below span index `root`."""
    selfs = self_times(spans)
    top = _under(spans, spans[root].name)
    keep = [i for i in range(len(spans)) if top[i] == root and i != root]
    in_pretrain = _under(spans, "backbones.pretrain_backbone")

    calls, self_s, infos = {}, {}, {}
    for i in keep:
        name = spans[i].name
        if name == "backbones.embed_batch":
            name += ".train" if in_pretrain[i] >= 0 else ".eval"
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if spans[i].info:
            infos.setdefault(name, []).append(spans[i].info)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for fn in ("linear", "attention", "softmax", "layer_norm", "gelu",
               "conv2d", "batch_norm2d", "avg_pool2d", "relu", "max_pool2d"):
        for suffix in ("", "_backward"):
            put(f"nn.{fn}{suffix}.self_s", self_s.get(f"nn.{fn}{suffix}", 0.0), "s")
    for fn in ("linear", "attention", "gelu", "layer_norm"):
        n = calls.get(f"nn.{fn}", 0)
        put(f"nn.{fn}.calls", n, "count")
        f64 = sum(i["f64"] for i in infos.get(f"nn.{fn}", []))
        put(f"nn.{fn}.f64_share", f64 / n if n else 0.0, "ratio")
    put("nn.conv2d.calls", calls.get("nn.conv2d", 0), "count")
    for fn in ("linear", "conv2d"):
        put(f"nn.{fn}.gflop", sum(i["gflop"] for i in infos.get(f"nn.{fn}", [])), "GFLOP")

    for fn in ("load_wav", "compute_logmel", "mel_filterbank"):
        put(f"dsp.{fn}.calls", calls.get(f"dsp.{fn}", 0), "count")
        put(f"dsp.{fn}.self_s", self_s.get(f"dsp.{fn}", 0.0), "s")
    clips = len({i["path"] for i in infos.get("dsp.load_wav", [])})
    put("dsp.distinct_clips", clips, "count")
    put("dsp.logmel_per_clip",
        calls.get("dsp.compute_logmel", 0) / clips if clips else 0.0, "ratio")
    for fn in ("apply_spec_augmentations", "mixup"):
        put(f"dsp.{fn}.self_s", self_s.get(f"dsp.{fn}", 0.0), "s")

    put("backbones.embed_batch.train_self_s", self_s.get("backbones.embed_batch.train", 0.0), "s")
    put("backbones.embed_batch.eval_self_s", self_s.get("backbones.embed_batch.eval", 0.0), "s")
    eval_calls = calls.get("backbones.embed_batch.eval", 0)
    eval_clips = sum(i["clips"] for i in infos.get("backbones.embed_batch.eval", []))
    put("backbones.embed_batch.eval_calls", eval_calls, "count")
    put("backbones.embed_batch.eval_clips_per_call",
        eval_clips / eval_calls if eval_calls else 0.0, "ratio")
    put("backbones.backward.self_s", self_s.get("backbones.backward", 0.0), "s")
    steps = []
    for p in keep:
        if spans[p].name == "backbones.pretrain_backbone":
            ends = [spans[i].end for i in keep
                    if spans[i].name == "crossmodal.adamw_step" and in_pretrain[i] == p]
            steps += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
    tail_ms, tail_pct = tail(steps)
    put("backbones.pretrain_step_ms.p50", statistics.median(steps) if steps else 0.0, "ms")
    put("backbones.pretrain_step_ms.tail", tail_ms, "ms")
    put("backbones.pretrain_step_ms.tail_pct", tail_pct, "percent")
    put("backbones.pretrain_step_ms.n", len(steps), "count")

    for fn in ("adamw_step", "project_batch", "project_backward", "classify",
               "train_projection"):
        put(f"crossmodal.{fn}.calls", calls.get(f"crossmodal.{fn}", 0), "count")
        put(f"crossmodal.{fn}.self_s", self_s.get(f"crossmodal.{fn}", 0.0), "s")
    for fn in ("save_checkpoint", "load_checkpoint"):
        put(f"checkpoint.{fn}.calls", calls.get(f"checkpoint.{fn}", 0), "count")
        put(f"checkpoint.{fn}.self_s", self_s.get(f"checkpoint.{fn}", 0.0), "s")
        put(f"checkpoint.{fn}.bytes",
            sum(i["bytes"] for i in infos.get(f"checkpoint.{fn}", [])), "bytes")

    for name in ("evaluation.average_precision", "protocol.load_manifest",
                 "semantics.load_word_vectors", "experiments.load_corpus",
                 "experiments.run_pretrain", "experiments.run_projection",
                 "experiments.evaluate_zero_shot"):
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    for cmd in ("train-projection", "evaluate"):
        spans_cmd = [spans[i].duration for i in keep if spans[i].name == f"cli.{cmd}"]
        put(f"cli.{cmd}.s", sum(spans_cmd), "s")
    return m

"""Runs one workload's set-up and passes, checks every pass, and reduces the
timings (or, when traced, the spans) to the metrics the benchmark prints."""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from zsat import (backbones, checkpoint, cli, config, crossmodal, dsp, evaluation,
                  experiments, nn, protocol, semantics)

from slices import slice_metrics
from tracer import Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Outcome

MODULES = (backbones, checkpoint, cli, config, crossmodal, dsp, evaluation,
           experiments, nn, protocol, semantics)
# numpy bundles the 64-bit-integer OpenBLAS build, scipy the 32-bit one
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads")


def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS (numpy's, scipy's) may use."""
    counts = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in _BLAS_THREAD_QUERIES:
                query = getattr(lib, sym, None)
                if query is not None:
                    query.argtypes, query.restype = [], ctypes.c_int
                    counts[path.name] = query()
                    break
    return counts


def _git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(root: Path) -> dict:
    threads = _blas_threads()
    blas = {pkg.__name__: pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version") for pkg in (np, scipy)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads_by_library": threads,
        # unknown counts as more than one: the benchmark then refuses to time
        "blas_threads": max(threads.values()) if threads else 2,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "git_commit": _git_commit(root),
    }


def _no_span(name):
    return contextlib.nullcontext()


def _attempt(workload, work: Path, seed: int, span, reference: dict | None):
    """One checked pass; returns (outcome or None, passed)."""
    try:
        out = workload.run(work, seed, span)
    except Exception:  # a failing pass is counted, never dropped
        traceback.print_exc(file=sys.stderr)
        return None, False
    if reference is not None and out.quality != reference:
        out.problems.append(f"quality {out.quality} differs from an earlier "
                            f"pass with the same seed {reference}")
    for problem in out.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    return out, not out.problems


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median(outs: list[Outcome], key) -> float:
    return statistics.median(key(o) for o in outs)


def _quality(out: Outcome) -> dict:
    """Zero-shot quality beside its analytic random baselines; fixed for a
    seed, so it is reported with the per-layer metrics, which have no bound."""
    q = out.quality
    return {"test_map": _metric(q["mean_ap"], "mAP"),
            "test_accuracy": _metric(q["accuracy"], "ratio"),
            "random_mean_ap": _metric(q["random_mean_ap"], "mAP"),
            "random_accuracy": _metric(q["random_accuracy"], "ratio")}


def _untraced(workload, seed: int, seconds: float, work: Path):
    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup(work, seed)
        setup_s.append(time.perf_counter() - t0)
    # a fixed number of passes, scaled with `seconds`, so that every commit
    # does the same work
    passes = max(2, round(workload.passes * seconds / 20))
    good, failed, reference = [], 0, None
    for _ in range(passes):
        out, ok = _attempt(workload, work, seed, _no_span, reference)
        if ok:
            good.append(out)
            reference = out.quality
        else:
            failed += 1
    if not good:
        return None
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "wall_s": _metric(_median(good, lambda o: o.wall_s), "s"),
        "pretrain_clips_per_s": _metric(
            _median(good, lambda o: o.pretrain_clips / o.pretrain_s), "1/s"),
        "projection_eval_s": _metric(_median(good, lambda o: o.projection_eval_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # rule-of-succession estimate: never 0, and 1/(passes+2) when all pass
        "error_rate": _metric((failed + 1) / (passes + 2), "ratio"),
    }
    details = {"setup_s": setup_s, "wall_s": [o.wall_s for o in good],
               **_quality(good[0])}
    return passes, failed, metrics, details


def _traced(workload, seed: int, work: Path):
    tracer = Tracer()
    with tracer.installed(MODULES), tracer.span("setup"):
        workload.setup(work, seed)
    # an untraced warm-up pass takes the cold-start cost (heap growth, first
    # calls) and is the quality reference; the traced pass is then compared
    # with the untraced pass that follows it
    warm, ok_w = _attempt(workload, work, seed, _no_span, None)
    if warm is None:
        return None
    with tracer.installed(MODULES), tracer.span("timed") as root:
        traced, ok_t = _attempt(workload, work, seed, tracer.span, warm.quality)
    untraced, ok_u = _attempt(workload, work, seed, _no_span, warm.quality)
    if traced is None or untraced is None:
        return None
    metrics = layer_metrics(tracer.spans, root)
    selfs = self_times(tracer.spans)
    synth = sum(t for s, t in zip(tracer.spans, selfs)
                if s.name == "protocol.generate_synthetic_corpus")
    metrics["protocol.generate_synthetic_corpus.self_s"] = _metric(synth, "s")
    metrics["trace.overhead_share"] = _metric(traced.wall_s / untraced.wall_s - 1, "ratio")
    metrics["trace.untraced_wall_s"] = _metric(untraced.wall_s, "s")
    for name, value in slice_metrics(seed).items():
        metrics[name] = _metric(value, "s")
    metrics.update(_quality(traced))
    return 3, 3 - ok_w - ok_t - ok_u, metrics, {}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, env: dict) -> int:
    workload = WORKLOADS[name]()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = _traced(workload, seed, work)
        else:
            result = _untraced(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print("bench: no pass completed, so there is nothing to report",
              file=sys.stderr)
        return 1
    attempted, failed, metrics, details = result
    record = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "details": details}
    report = work.with_suffix(".json")
    report.write_text(json.dumps({**record, "metrics": metrics}, indent=2) + "\n")
    print("bench: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

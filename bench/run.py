"""zsat benchmark: one workload, end to end, with its output checks.

    python3 bench/run.py --workload train-transformer --seed 0 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics of
untraced passes; `--trace 1` prints the per-layer metrics of a traced pass.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # BLAS reads these when numpy first loads it, so set them before that
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "zsat").is_dir():
        print(f"bench: no zsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    env = harness.environment(ROOT)
    if env["blas_threads"] > 1:
        print(f"bench: BLAS may use {env['blas_threads']} threads; refusing to time",
              file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       WORK / f"{args.workload}-{args.seed}-{args.trace}", env)


if __name__ == "__main__":
    sys.exit(main())

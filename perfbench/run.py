#!/usr/bin/env python3
"""weakmeas benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload density-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --baseline            # one-shot ROADMAP baseline table
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

weakmeas is imported from ./src.  Outputs go to ./.bench_out.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every route of every pass met its checks.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--baseline", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    # cmd_run starts os.cpu_count() worker threads; OpenBLAS threads on top of
    # them oversubscribe the cores.  Pinned before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = _parser().parse_args(argv)
    if not (SRC / "weakmeas" / "__init__.py").is_file():
        print(f"error: no weakmeas sources in {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        start = time.perf_counter()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, ROOT / ".bench_out" / args.workload / "probe")
        print(time.perf_counter() - start)
        return 0

    import weakmeas

    if Path(weakmeas.__file__).resolve().parent != (SRC / "weakmeas").resolve():
        print(f"error: weakmeas imported from {weakmeas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.record_reference:
        return harness.record_reference(ROOT / ".bench_out")
    if args.baseline:
        import baseline

        return baseline.run(args.seed, ROOT)
    if args.workload not in harness.WORKLOADS:
        print(f"error: --workload must be one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                       Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main())

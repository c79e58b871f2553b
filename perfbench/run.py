#!/usr/bin/env python3
"""Benchmark of the dxrank pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload paper-box --seed 1 --seconds 55 --trace 0

`--workload` names a workload in perfbench/workloads.json, or `all`. Each
workload runs the whole CLI chain in child processes, checks its outputs
and prints its metrics by name with their units; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. `--trace 0` reports the end-to-end metrics of BENCHMARK.json and
`--trace 1` its per-layer metrics. The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the benchmark cannot run here.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dxrank" / "cli.py").is_file():
        print(f"error: no dxrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

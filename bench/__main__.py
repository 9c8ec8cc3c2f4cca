"""Command line of the benchmark.

``python -m bench run``    every workload untraced, one subprocess each
``python -m bench run --workload W --seed N --seconds S --trace 0|1``
                           one run in this process; the last stdout line is
                           the JSON result
``python -m bench run --repeat N``
                           N runs per workload with the median and quartiles
``python -m bench trace``  every workload traced (per-layer metrics, JSONL)
``python -m bench check``  the correctness gates; non-zero exit on failure
"""

from __future__ import annotations

import argparse
import sys

from .common import load_spec


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--workload", choices=names)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--scale", choices=("full", "smoke"), default="full")
        p.add_argument("--repeat", type=int, default=1)
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_parser("check")
    args = parser.parse_args(argv)

    if args.command == "check":
        from .check import run_checks
        return run_checks()
    from .runner import run_many, run_workload
    trace = args.command == "trace" or bool(getattr(args, "trace", 0))
    if args.workload is not None and args.repeat == 1:
        run_workload(args.workload, args.seed, args.seconds, trace, args.scale)
        return 0
    workloads = [args.workload] if args.workload else names
    return run_many(workloads, args.seed, args.seconds, trace, args.scale,
                    args.repeat)


if __name__ == "__main__":
    sys.exit(main())

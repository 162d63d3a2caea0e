"""Compare the count metrics of one traced benchmark pass in two checkouts.

    python3 tests/trace_counts.py PARENT CHANGE
    python3 tests/trace_counts.py PARENT CHANGE --workload flood-traffic,paper-sweep

For each workload (by default every one BENCHMARK.json lists), this runs
`python3 perfbench/run.py --trace 1 --seconds 1` once in each checkout, with
ab_pairs.run_once. A count metric is a per-layer metric whose unit is not
seconds: event and call counts, ratios and fan-outs. The tracer's counts of
a pass are the same on every run of the same code and seed, so a refactor
that keeps behaviour keeps every one of them. For each workload this prints
how many count metrics differ, then each differing one with both values.
The exit status is 1 if any count differs or any run reports `failed > 0`.

Standard library only; it does not import cbrsim, so it compares any two
source trees, each with its own perfbench/.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict

from ab_pairs import ALL_WORKLOADS, SIDES, run_once


def count_metrics(result: dict) -> Dict[str, object]:
    """The metrics of a traced run that are not measured in seconds."""
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def compare(checkouts: Dict[str, Path], args) -> bool:
    """Run one workload traced in each checkout and print its block; True if
    a count differs or a run failed."""
    results = {side: run_once(checkouts[side], args, trace=1) for side in SIDES}
    parent, change = (count_metrics(results[side]) for side in SIDES)
    names = list(dict.fromkeys([*parent, *change]))
    differ = [name for name in names if parent.get(name) != change.get(name)]
    print(f"{args.workload} seed {args.seed}: {len(differ)} of {len(names)} "
          f"count metrics differ")
    for name in differ:
        print(f"  {name}: parent {parent.get(name, '-')}  change {change.get(name, '-')}")
    failed = [side for side in SIDES if results[side]["failed"] > 0]
    for side in failed:
        print(f"FAILED: {side} reported failed {results[side]['failed']} "
              f"of {results[side]['attempted']}")
    return bool(differ or failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default=ALL_WORKLOADS,
                        help=f"a workload, or a comma-separated list (default {ALL_WORKLOADS})")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    bad = False
    for workload in args.workload.split(","):
        bad |= compare(checkouts, argparse.Namespace(workload=workload, seed=args.seed,
                                                     seconds=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

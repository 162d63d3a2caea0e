"""Run the benchmark in two checkouts, in alternating pairs, and compare.

    python3 tests/ab_pairs.py PARENT CHANGE --workload flood-traffic --pairs 5 --seconds 30
    python3 tests/ab_pairs.py PARENT CHANGE --workload flood-traffic,paper-sweep,beacon-dense

--workload takes one workload or a comma-separated list; the workloads run
in turn, each with its own pairs, and each gets its own block of output.
Each pair runs `python3 perfbench/run.py --trace 0` once in each checkout,
PARENT first in even pairs and CHANGE first in odd ones, so a drift of the
host's speed falls on both sides alike. The last line of each run is its JSON
result. For every end-to-end metric this prints each side's median and
quartiles, the ratio of the medians and in how many pairs CHANGE was better,
in the direction BENCHMARK.json gives, then two verdicts:
  - gain claim: met when CHANGE was better in at least nine tenths of the
    pairs (ties count for neither side) and its median beats PARENT's by
    more than the distance between PARENT's quartiles;
  - bound: exceeded when CHANGE's median is worse than PARENT's by more than
    the metric's `bound` in BENCHMARK.json, as a fraction of PARENT's median.
A run that reports `failed > 0` is flagged, and the exit status is then 1,
whichever workload it was in.

Standard library only; it does not import cbrsim, so it compares any two
source trees, each with its own perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Every workload BENCHMARK.json lists, comma-separated: the default
# --workload of the tools that run them all.
ALL_WORKLOADS = ",".join(w["name"] for w in json.loads(SPEC.read_text())["workloads"])
SIDES = ("parent", "change")


def run_once(checkout: Path, args, trace: int = 0) -> dict:
    """One benchmark run in the checkout, traced if trace is 1; its parsed
    last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    """[lower quartile, median, upper quartile]."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdicts(parent: List[float], change: List[float], won: int, direction: str,
             bound: float) -> List[str]:
    """The gain-claim and bound lines of one metric."""
    q1, p, q3 = quartiles(parent)
    c = statistics.median(change)
    gap = p - c if direction == "lower" else c - p     # how far CHANGE's median is better
    iqr, need = q3 - q1, math.ceil(0.9 * len(parent))
    claim = "met" if won >= need and gap > iqr else "not met"
    worse = -gap / p if p else 0.0
    side = f"{abs(worse):.1%} {'worse' if worse >= 0 else 'better'}"
    return [f"  gain claim {claim}: better in {won} of {len(parent)} pairs, need {need}; "
            f"median gap {gap:.4g} {'>' if gap > iqr else '<='} parent IQR {iqr:.4g}",
            f"  bound {'exceeded' if worse > bound else 'kept'}: change median {side} "
            f"than parent, bound {bound:.0%}"]


def summary(results: Dict[str, List[dict]], spec: Dict[str, dict]) -> List[str]:
    """One block of lines per end-to-end metric."""
    lines = []
    for name, metric in spec.items():
        direction = metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        won = sum((c < p) if direction == "lower" else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name} ({direction} is better)")
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            lines.append(f"  {side:6}  median {median:.6g}  quartiles [{q1:.6g}, {q3:.6g}]")
        p, c = (statistics.median(values[side]) for side in SIDES)
        ratio = f"{c / p:.3f}" if p else "-"
        lines.append(f"  change/parent {ratio}; change better in {won} of "
                     f"{len(values['parent'])} pairs")
        lines += verdicts(values["parent"], values["change"], won, direction, metric["bound"])
    return lines


def compare(checkouts: Dict[str, Path], args) -> bool:
    """Run one workload's pairs and print its block; True if any run failed."""
    results: Dict[str, List[dict]] = {side: [] for side in SIDES}
    failures = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args)
            results[side].append(result)
            if result["failed"] > 0:
                failures.append(f"FAILED: {side} pair {pair} reported failed "
                                f"{result['failed']} of {result['attempted']}")
        print(f"{args.workload} pair {pair} ({order[0]} first): " + "  ".join(
            f"{side} wall_ref {results[side][-1]['metrics']['wall_ref']['value']:.4g}"
            for side in SIDES), file=sys.stderr)
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, {args.seconds:g} s each")
    print("\n".join(summary(results, spec) + failures))
    return bool(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list run in turn")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    failed = False
    for workload in args.workload.split(","):
        failed |= compare(checkouts, argparse.Namespace(**{**vars(args), "workload": workload}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

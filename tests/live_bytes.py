"""Measure with tracemalloc what each run of one benchmark pass holds.

    python3 tests/live_bytes.py CHECKOUT [CHECKOUT ...]
    python3 tests/live_bytes.py PARENT CHANGE --workload beacon-dense --size tiny

For each checkout this starts one Python subprocess that imports cbrsim and
perfbench/workloads.py from that checkout and, for each workload (by default
every one BENCHMARK.json lists), runs one pass of `workloads.steps` under
tracemalloc, started after the imports. At each run's end (when the pass
calls `workloads.inspect_run`) it collects the cyclic garbage of the runs
before it and reads the bytes still allocated: that run's live state. It
prints each run's live MB, the pass's peak MB, and the five source lines
that hold the most of the largest run's live bytes, as paths relative to
the checkout. Collecting at each run's end frees the runs before it, so the
peak holds at most the run that just ended, alive through its reference
cycles, and the one running, as a benchmark pass does when the cyclic GC
has not yet run.

Standard library only, with call_counts.py beside it for the checkout's
import and subprocess; it does not import cbrsim itself, so it measures any
source tree with its own perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path
from typing import List

from ab_pairs import ALL_WORKLOADS
from call_counts import import_checkout, run_checkout

MB = 1e6
TOP_SITES = 5


def measure(root: Path, names: List[str], seed: int, tiny: bool) -> dict:
    """Run one pass of each named workload in the checkout at root under
    tracemalloc; runs in the subprocess, with root as its working directory."""
    workloads = import_checkout(root, "live_bytes")
    inspect_run = workloads.inspect_run

    def site(stat) -> str:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        shown = path.relative_to(root) if path.is_relative_to(root) else path
        return f"{shown}:{frame.lineno}"

    def at_run_end(config, sim):
        record = inspect_run(config, sim)
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
        state["peak"] = max(state["peak"], peak)
        state["runs"].append([record.label, live])
        if live > state["largest"]:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(False, tracemalloc.__file__)])
            state["largest"] = live
            state["sites"] = [[site(s), s.size, s.count]
                              for s in snapshot.statistics("lineno")[:TOP_SITES]]
            del snapshot
            tracemalloc.reset_peak()    # the snapshot itself is no run's state
        return record

    results = {}
    workloads.inspect_run = at_run_end
    for name in names:
        state = {"runs": [], "peak": 0, "largest": -1, "sites": []}
        gc.collect()
        tracemalloc.start()
        records = [run for step in workloads.steps(workloads.WORKLOADS[name], seed, tiny)
                   for run in step().runs]
        state["peak"] = max(state["peak"], tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        results[name] = {"runs": state["runs"], "peak": state["peak"],
                         "sites": state["sites"], "attempted": len(records),
                         "failed": sum(bool(run.problems) for run in records)}
    return results


def report(name: str, result: dict) -> List[str]:
    lines = [f"  {name}:"]
    lines += [f"    {label}: {live / MB:.2f} MB live at its end" for label, live in result["runs"]]
    lines.append(f"    pass peak: {result['peak'] / MB:.2f} MB")
    if result["runs"]:
        largest = max(result["runs"], key=lambda run: run[1])[0]
        lines.append(f"    top {TOP_SITES} sites at the end of {largest}:")
        lines += [f"      {where}: {size / MB:.3f} MB in {count} blocks"
                  for where, size, count in result["sites"]]
    if result["failed"]:
        lines.append(f"    FAILED: {result['failed']} of {result['attempted']} runs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    parser.add_argument("--workload", default=ALL_WORKLOADS,
                        help=f"a workload, or a comma-separated list (default {ALL_WORKLOADS})")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    failed = False
    for checkout in args.checkouts:
        results = run_checkout(checkout, names, args.seed, args.size == "tiny", "live_bytes")
        print(f"{checkout} seed {args.seed} size {args.size}:")
        for name in names:
            print("\n".join(report(name, results[name])))
            failed |= results[name]["failed"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

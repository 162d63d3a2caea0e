"""Count the Python and C calls of one benchmark pass in each checkout.

    python3 tests/call_counts.py CHECKOUT [CHECKOUT ...]
    python3 tests/call_counts.py PARENT CHANGE --workload paper-sweep --size tiny

For each checkout this starts one Python subprocess that imports cbrsim and
perfbench/workloads.py from that checkout and, for each workload (by default
every one BENCHMARK.json lists), runs one pass of `workloads.steps` under
sys.setprofile, set after the imports. It counts each "call" event (a
Python function entered, or a generator resumed) by the function's code, and
each "c_call" event (a built-in function called from Python). A pass of the
same code and seed makes the same calls on every run, so these counts show a
change in the work done without the noise of a timing. It prints each pass's
two totals, then, with two checkouts or more, each total's change from the
first checkout to the second and the TOP functions whose call counts differ
most between them, named by path relative to the checkout and qualified
name.

Standard library only; it does not import cbrsim itself, so it counts any
source tree with its own perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

from ab_pairs import ALL_WORKLOADS

TOP = 15


def import_checkout(root: Path, tool: str):
    """Import cbrsim and perfbench/workloads.py from the checkout at root,
    ahead of any other copy on sys.path, and return the workloads module;
    exit with an error that names `tool` if cbrsim came from elsewhere."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cbrsim
    import workloads

    if not Path(cbrsim.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"{tool}: cbrsim was imported from {cbrsim.__file__}, "
                         f"not from {root / 'src'}")
    return workloads


def measure(root: Path, names: List[str], seed: int, tiny: bool) -> dict:
    """Run one pass of each named workload in the checkout at root under
    sys.setprofile; runs in the subprocess, with root as its working
    directory."""
    workloads = import_checkout(root, "call_counts")

    def name_of(code) -> str:
        path = Path(code.co_filename)
        if path.is_relative_to(root):
            return f"{path.relative_to(root)}:{code.co_qualname}"
        if path.is_file():
            return f"{path}:{code.co_qualname}"
        # Code compiled from a string, as a dataclass's __init__ is: name it
        # by the function that holds it.
        holders = [f.__qualname__ for f in gc.get_referrers(code)
                   if getattr(f, "__code__", None) is code]
        return f"{code.co_filename}:{holders[0] if holders else code.co_qualname}"

    results = {}
    for name in names:
        by_code: Counter = Counter()
        c_calls = 0

        def profile(frame, event, arg):
            nonlocal c_calls
            if event == "call":
                by_code[frame.f_code] += 1
            elif event == "c_call":
                c_calls += 1

        records = []   # a plain loop: a comprehension here would count as a call
        sys.setprofile(profile)
        try:
            for step in workloads.steps(workloads.WORKLOADS[name], seed, tiny):
                records += step().runs
        finally:
            sys.setprofile(None)
        functions: Counter = Counter()
        for code, n in by_code.items():
            functions[name_of(code)] += n
        results[name] = {"python": sum(by_code.values()), "c": c_calls,
                         "functions": dict(functions), "attempted": len(records),
                         "failed": sum(bool(run.problems) for run in records)}
    return results


def run_checkout(checkout: Path, names: List[str], seed: int, tiny: bool,
                 tool: str = "call_counts") -> dict:
    """The measure() of the module `tool` in this directory, run in a
    subprocess whose working directory is the checkout; its parsed last
    line of output."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import {tool}; from pathlib import Path; "
            f"print(json.dumps({tool}.measure(Path.cwd(), {names!r}, {seed}, {tiny})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout.resolve(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def change(before: int, after: int) -> str:
    shown = f"{before:,} -> {after:,}"
    return f"{shown} ({(after - before) / before:+.1%})" if before else shown


def differences(first: dict, second: dict) -> List[str]:
    """The TOP functions whose call counts differ most, largest first."""
    a, b = first["functions"], second["functions"]
    delta = {f: b.get(f, 0) - a.get(f, 0) for f in {*a, *b}}
    ranked = sorted((f for f, d in delta.items() if d), key=lambda f: (-abs(delta[f]), f))
    return [f"      {delta[f]:+,}  {f} ({a.get(f, 0):,} -> {b.get(f, 0):,})"
            for f in ranked[:TOP]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    parser.add_argument("--workload", default=ALL_WORKLOADS,
                        help=f"a workload, or a comma-separated list (default {ALL_WORKLOADS})")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    results = []
    failed = False
    for checkout in args.checkouts:
        results.append(run_checkout(checkout, names, args.seed, args.size == "tiny"))
        print(f"{checkout} seed {args.seed} size {args.size}:")
        for name in names:
            r = results[-1][name]
            print(f"  {name}: {r['python']:,} Python calls, {r['c']:,} C calls per pass")
            if r["failed"]:
                print(f"    FAILED: {r['failed']} of {r['attempted']} runs")
                failed = True
    if len(results) >= 2:
        print(f"{args.checkouts[0]} -> {args.checkouts[1]}:")
        for name in names:
            first, second = results[0][name], results[1][name]
            print(f"  {name}: Python calls {change(first['python'], second['python'])}, "
                  f"C calls {change(first['c'], second['c'])}")
            lines = differences(first, second)
            if lines:
                print("    the functions whose call counts differ most:", *lines, sep="\n")
            else:
                print("    no function's call count differs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

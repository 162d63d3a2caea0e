"""Regenerate perfbench/expected_digests.json, the committed behaviour digests.

    python3 perfbench/refresh_digests.py

Run it from the root of a source checkout, and only in a change that means to
alter simulated behaviour: the benchmark counts every run whose digest
differs from this table as failed. It runs one full-size pass of each
workload for each seed in SEEDS (about five minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(32)


def main() -> int:
    if not run._import_program():
        return 2
    from workloads import WORKLOADS, run_pass

    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            result = run_pass(workload, seed)
            bad = [f"{r.label}: {'; '.join(r.problems)}" for r in result.runs if r.problems]
            if bad:
                print(f"{name} seed {seed} failed its checks:", *bad, sep="\n  ",
                      file=sys.stderr)
                return 1
            table[name][str(seed)] = [r.digest for r in result.runs]
            print(f"{name} seed {seed}: {len(result.runs)} runs", flush=True)
    with open(run.EXPECTED_DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

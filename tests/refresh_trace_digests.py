"""Regenerate tests/trace_digests.json, the committed trace-stream digests.

    PYTHONPATH=src python3 tests/refresh_trace_digests.py
    PYTHONPATH=src python3 tests/refresh_trace_digests.py --check

Each digest hashes a run's whole record stream (`sim.trace`: every election,
join, discovery path and data hop, with its time) plus its `RunMetrics`. A
change can keep every node's end state and still reorder elections; these
digests catch that. Run this only in a change that means to alter simulated
behaviour: tests/test_trace_digests.py fails on any run whose digest differs
from the table. The matrix is both modes x four scenarios x seeds 1-3.
Only delayed-n60 has a positive propagation delay, so only it sends
deliveries through the heap at a later time and has copies of one route
request arrive at different times.

--check writes nothing: it recomputes the table, prints each case whose
digest differs from the committed one and exits 1 if any does. It needs only
the standard library, so it runs on any supported Python without pytest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from cbrsim import ScenarioConfig, build_simulation, stress_config

TABLE = Path(__file__).resolve().parent / "trace_digests.json"
MODES = ("cbrp", "ecbrp")
SEEDS = (1, 2, 3)


def _ample_n60(mode: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(node_count=60, duration_s=40.0, seed=seed, protocol_mode=mode,
                          initial_energy=1e9)


SCENARIOS = {
    "default-n30": lambda mode, seed: ScenarioConfig(
        node_count=30, duration_s=60.0, seed=seed, protocol_mode=mode),
    "ample-n60": _ample_n60,
    "stress": stress_config,
    "delayed-n60": lambda mode, seed: dataclasses.replace(
        _ample_n60(mode, seed), propagation_delay_s=0.002),
}


def cases() -> Dict[str, ScenarioConfig]:
    """Case name -> config, in table order."""
    return {f"{mode}/{scenario}/{seed}": make(mode, seed)
            for scenario, make in SCENARIOS.items() for mode in MODES for seed in SEEDS}


def trace_digest(config: ScenarioConfig) -> str:
    """sha256 of one run's record stream and final metrics."""
    sim = build_simulation(config)
    sim.trace = []
    metrics = sim.run_until(config.duration_s)
    h = hashlib.sha256()
    for record in sim.trace:
        h.update(repr(record).encode())
        h.update(b"\n")
    h.update(repr(dataclasses.asdict(metrics)).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed table instead of writing it")
    args = parser.parse_args()
    table = {name: trace_digest(config) for name, config in cases().items()}
    if args.check:
        committed = json.loads(TABLE.read_text())
        differ = [name for name in dict.fromkeys([*table, *committed])
                  if committed.get(name) != table.get(name)]
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of {len(table)} digests differ from {TABLE}")
        return 1 if differ else 0
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} digests written to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

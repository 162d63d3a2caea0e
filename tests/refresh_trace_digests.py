"""Regenerate tests/trace_digests.json, the committed trace-stream digests.

    PYTHONPATH=src python3 tests/refresh_trace_digests.py
    PYTHONPATH=src python3 tests/refresh_trace_digests.py --check
    PYTHONPATH=src python3 tests/refresh_trace_digests.py --explain OTHER_SRC

Each digest hashes a run's whole record stream (`sim.trace`: every election,
join, discovery path and data hop, with its time) plus its `RunMetrics`. A
change can keep every node's end state and still reorder elections; these
digests catch that. Run this only in a change that means to alter simulated
behaviour: tests/test_trace_digests.py fails on any run whose digest differs
from the table. The matrix is both modes x nine scenarios x seeds 1-3.
Five scenarios sit at the exact ties
where two kinds of event are due at the same instant, so a change of order
at a tie moves their digests: delay-is-interval (propagation_delay_s ==
hello_interval_s), timer-is-interval (undecided_timer_intervals == 1),
delay-is-timer (propagation_delay_s == undecided_timer_s()), and two where a
flow's packet period equals a routing delay: rate-is-interval (1 packet/s,
the hello_interval_s a deferred discovery waits) and rate-is-timeout (0.5
packet/s, the rreq_timeout_s). Those with a positive propagation delay,
delayed-n60 and two of the ties, deliver later than the send, and copies of
one route request can arrive at different times.

--check writes nothing: it recomputes the table, prints each case whose
digest differs from the committed one and exits 1 if any does. It needs only
the standard library, so it runs on any supported Python without pytest.

--explain OTHER_SRC writes nothing either: it runs each case here and, in a
subprocess, under another source tree (a checkout, or its src directory),
prints the first record in which the two streams differ and exits 1 if any
case differs. It shows what a behaviour change changed, not only that a
digest moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from cbrsim import ScenarioConfig, build_simulation, stress_config

if TYPE_CHECKING:   # --explain imports this module under another tree's cbrsim
    from cbrsim.engine import Simulator

HERE = Path(__file__).resolve().parent
TABLE = HERE / "trace_digests.json"
MODES = ("cbrp", "ecbrp")
SEEDS = (1, 2, 3)


def _ample_n60(mode: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(node_count=60, duration_s=40.0, seed=seed, protocol_mode=mode,
                          initial_energy=1e9)


def _tie_n40(mode: str, seed: int, **tie) -> ScenarioConfig:
    """n = 40 for 40 s on the default battery, with the default timers
    (hello_interval_s 1, undecided_timer_s() 2) but for the tie given."""
    return ScenarioConfig(node_count=40, duration_s=40.0, seed=seed, protocol_mode=mode, **tie)


SCENARIOS = {
    "default-n30": lambda mode, seed: ScenarioConfig(
        node_count=30, duration_s=60.0, seed=seed, protocol_mode=mode),
    "ample-n60": _ample_n60,
    "stress": stress_config,
    "delay-is-interval": lambda mode, seed: _tie_n40(mode, seed, propagation_delay_s=1.0),
    "timer-is-interval": lambda mode, seed: _tie_n40(mode, seed, undecided_timer_intervals=1.0),
    "delay-is-timer": lambda mode, seed: _tie_n40(mode, seed, propagation_delay_s=2.0),
    "rate-is-interval": lambda mode, seed: _tie_n40(mode, seed, packets_per_second=1.0),
    "rate-is-timeout": lambda mode, seed: _tie_n40(mode, seed, packets_per_second=0.5),
    "delayed-n60": lambda mode, seed: dataclasses.replace(
        _ample_n60(mode, seed), propagation_delay_s=0.002),
}


def cases() -> Dict[str, ScenarioConfig]:
    """Case name -> config, in table order."""
    return {f"{mode}/{scenario}/{seed}": make(mode, seed)
            for scenario, make in SCENARIOS.items() for mode in MODES for seed in SEEDS}


def trace_lines(config: ScenarioConfig) -> List[str]:
    """The repr of each record of one run's stream, then of its final metrics."""
    sim = build_simulation(config)
    sim.trace = []
    return run_lines(sim, config.duration_s)


def run_lines(sim: Simulator, t_end: float) -> List[str]:
    """Run sim on to t_end; the repr of each record of its stream, then of
    its final metrics."""
    metrics = sim.run_until(t_end)
    return [*map(repr, sim.trace), repr(dataclasses.asdict(metrics))]


def lines_digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def trace_digest(config: ScenarioConfig) -> str:
    """sha256 of one run's record stream and final metrics."""
    return lines_digest(trace_lines(config))


def first_divergence(trace_a: Sequence, trace_b: Sequence) -> Optional[Tuple[int, object, object]]:
    """(index, a's record, b's record) at the first index where the two
    traces differ, a record past the end of the shorter one being None;
    None if they are equal."""
    for index, (a, b) in enumerate(zip_longest(trace_a, trace_b)):
        if a != b:
            return index, a, b
    return None


def other_trace_lines(other_src: Path, config: ScenarioConfig) -> List[str]:
    """trace_lines of the config run under another source tree, in a
    subprocess that imports cbrsim from there and this module from here."""
    src = other_src / "src" if (other_src / "src" / "cbrsim").is_dir() else other_src
    code = ("import json, sys; from cbrsim import ScenarioConfig; "
            "from refresh_trace_digests import trace_lines; "
            "print('\\n'.join(trace_lines(ScenarioConfig(**json.loads(sys.argv[1])))))")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(dataclasses.asdict(config))],
        cwd=HERE, env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)])),
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def explain(other_src: Path) -> int:
    """Print the first differing record of each case whose stream here and
    under other_src differ; 1 if any does."""
    table = cases()
    differ = 0
    for name, config in table.items():
        found = first_divergence(trace_lines(config), other_trace_lines(other_src, config))
        if found is not None:
            differ += 1
            index, here, there = found
            print(f"differs: {name} at record {index}\n  here:  {here}\n  other: {there}")
    print(f"{differ} of {len(table)} traces differ from those under {other_src}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed table instead of writing it")
    parser.add_argument("--explain", metavar="OTHER_SRC", type=Path,
                        help="print where each case's stream differs from the one "
                             "under another source tree")
    args = parser.parse_args()
    if args.explain is not None:
        return explain(args.explain)
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

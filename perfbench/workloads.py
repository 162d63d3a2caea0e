"""The benchmark's workloads, one measured pass of each, and the per-run
correctness check and behaviour digest.

A workload turns a seed into a fixed list of simulation runs (a *pass*). The
benchmark repeats the same pass in a closed loop, each run starting when the
previous one ends, so every repeat must reproduce the same digests.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional

from cbrsim import experiment, scenario
from cbrsim.config import ScenarioConfig
from cbrsim.engine import Simulator
from cbrsim.metrics import pdr

MODES = ("cbrp", "ecbrp")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, tiny) -> the configs of one pass, in the order they run.
    configs: Callable[[int, bool], List[ScenarioConfig]]
    # Run the configs through experiment.sweep rather than one by one.
    sweep: bool = False


def _beacon_dense(seed: int, tiny: bool) -> List[ScenarioConfig]:
    return [ScenarioConfig(
        node_count=40 if tiny else 240, duration_s=3.0 if tiny else 8.0,
        seed=seed, protocol_mode=mode,
        area_width_m=400.0, area_height_m=400.0, tx_range_m=80.0,
        node_speed_mps=20.0, pause_time_s=100.0, mobility_tick_s=1.0,
        hello_interval_s=1.0, initial_energy=600.0, transmit_cost=1.0,
        flows=0) for mode in MODES]


def _flood_traffic(seed: int, tiny: bool) -> List[ScenarioConfig]:
    # Randomly drawn flows make one scenario seed's work vary by +-15%, so a
    # pass runs three scenario seeds (3*seed .. 3*seed+2), each in both modes.
    return [ScenarioConfig(
        node_count=12 if tiny else 60, duration_s=4.0 if tiny else 8.0,
        seed=3 * seed + k, protocol_mode=mode,
        area_width_m=400.0, area_height_m=400.0, tx_range_m=80.0,
        node_speed_mps=20.0, pause_time_s=0.0, mobility_tick_s=1.0,
        hello_interval_s=1.0, initial_energy=1e9, transmit_cost=1.0,
        flows=3 if tiny else 20, packets_per_second=10.0, traffic_start_s=2.0,
        max_retries=2, rreq_timeout_s=2.0, route_cache=False)
        for k in range(3) for mode in MODES]


def _paper_sweep(seed: int, tiny: bool) -> List[ScenarioConfig]:
    # The cells of experiment.sweep, in its order. Seeds 2*seed and
    # 2*seed+1, so two workload seeds never share a run.
    replicates = 2
    base = ScenarioConfig(
        node_count=5, duration_s=20.0 if tiny else 300.0,
        seed=seed * replicates, protocol_mode="cbrp",
        area_width_m=400.0, area_height_m=400.0, tx_range_m=80.0,
        node_speed_mps=20.0, pause_time_s=100.0, mobility_tick_s=1.0,
        hello_interval_s=1.0, initial_energy=600.0, transmit_cost=1.0,
        flows=None, packets_per_second=4.0, traffic_start_s=5.0)
    return [replace(base, node_count=n, protocol_mode=mode, seed=base.seed + r)
            for n in ((3, 5) if tiny else (5, 10, 20, 30)) for mode in MODES
            for r in range(replicates)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("beacon-dense",
             "n=240, no traffic: HELLO handling and radio fan-out at ~38 receivers; "
             "routing idle, the no-change control for routing work",
             _beacon_dense),
    Workload("flood-traffic",
             "n=60, 20 flows at 10 pkt/s, continuous motion, ample battery: RREQ flood, "
             "RREP, data plane, route repair and log growth",
             _flood_traffic),
    Workload("paper-sweep",
             "experiment.sweep over n=5..30 x both modes x 2 seeds on the default "
             "battery-limited config: many short runs, deaths and set-up",
             _paper_sweep, sweep=True),
)}


# -- per-run check and digest ------------------------------------------------

@dataclass
class RunRecord:
    label: str
    node_seconds: float
    digest: Optional[str]        # None when the run raised
    problems: List[str]
    stats: Dict[str, object]


def _label(config: ScenarioConfig) -> str:
    return f"{config.protocol_mode} n={config.node_count} seed={config.seed}"


def run_digest(sim: Simulator) -> str:
    """Hash of RunMetrics and each node's public end state. It reads none of
    the Simulator's trace logs, so replacing those keeps the digest."""
    m = sim.metrics
    state = (m.packets_sent, m.packets_delivered, sorted(m.dropped.items()),
             m.cluster_reformations, m.head_changes, m.malformed_entries,
             [(nid, n.role, n.head_id, n.energy.remaining, sorted(n.routing.routes.items()))
              for nid, n in sorted(sim.nodes.items())])
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def inspect_run(config: ScenarioConfig, sim: Simulator) -> RunRecord:
    m = sim.metrics
    problems = []
    if (m.packets_sent != m.packets_delivered + m.total_dropped + sim.outstanding_packets
            or m.in_flight < 0):
        problems.append(f"packet conservation: sent={m.packets_sent} delivered="
                        f"{m.packets_delivered} dropped={m.total_dropped} "
                        f"outstanding={sim.outstanding_packets}")
    for nid, n in sim.nodes.items():
        for dest, path in n.routing.routes.items():
            if len(set(path)) != len(path):
                problems.append(f"route {nid}->{dest} repeats a node: {path}")
    stats = {"pdr": pdr(m), "sent": m.packets_sent, "delivered": m.packets_delivered,
             "dropped": dict(m.dropped), "reformations": m.cluster_reformations,
             "head_changes": m.head_changes}
    return RunRecord(_label(config), config.node_count * config.duration_s,
                     run_digest(sim), problems, stats)


def _failed_run(config: ScenarioConfig, exc: Exception) -> RunRecord:
    return RunRecord(_label(config), config.node_count * config.duration_s, None,
                     [f"raised {type(exc).__name__}: {exc}"], {})


# -- one pass ----------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float     # host seconds in the simulations, set-up and checks excluded
    setup_s: float    # host seconds in build_simulation
    runs: List[RunRecord]

    @property
    def node_seconds(self) -> float:
        return sum(r.node_seconds for r in self.runs)


def steps(workload: Workload, seed: int, tiny: bool = False) -> List[Callable[[], PassResult]]:
    """One pass as a list of steps, each a few seconds or less: a sweep
    workload runs one experiment.sweep call per node count, any other
    workload one simulation run per step. Each step checks its runs as soon
    as they end, so no finished Simulator is kept alive."""
    configs = workload.configs(seed, tiny)
    if workload.sweep:
        counts = dict.fromkeys(c.node_count for c in configs)
        return [partial(_sweep_pass, [c for c in configs if c.node_count == n]) for n in counts]
    return [partial(_single_run, config) for config in configs]


def combine(parts: List[PassResult]) -> PassResult:
    return PassResult(sum(p.wall_s for p in parts), sum(p.setup_s for p in parts),
                      [run for p in parts for run in p.runs])


def run_pass(workload: Workload, seed: int, tiny: bool = False) -> PassResult:
    return combine([step() for step in steps(workload, seed, tiny)])


def _single_run(config: ScenarioConfig) -> PassResult:
    try:
        t0 = perf_counter()
        sim = scenario.build_simulation(config)
        t1 = perf_counter()
        sim.run_until(config.duration_s)
        t2 = perf_counter()
    except Exception as exc:  # a failing run is counted, not fatal
        return PassResult(0.0, 0.0, [_failed_run(config, exc)])
    return PassResult(t2 - t1, t1 - t0, [inspect_run(config, sim)])


def _sweep_pass(planned: List[ScenarioConfig]) -> PassResult:
    runs: List[RunRecord] = []
    finished: list = []          # the run the sweep ran last, not yet checked
    build_s = check_s = 0.0
    build = experiment.build_simulation

    def build_and_check_previous(config, *args, **kwargs):
        nonlocal build_s, check_s
        t0 = perf_counter()
        if finished:
            runs.append(inspect_run(*finished.pop()))
        t1 = perf_counter()
        sim = build(config, *args, **kwargs)
        t2 = perf_counter()
        check_s += t1 - t0
        build_s += t2 - t1
        finished.append((config, sim))
        return sim

    experiment.build_simulation = build_and_check_previous
    t0 = perf_counter()
    try:
        experiment.sweep(list(dict.fromkeys(c.node_count for c in planned)), MODES,
                         len({c.seed for c in planned}), planned[0])
    except Exception as exc:  # a sweep that raises fails every run it planned
        return PassResult(0.0, 0.0, [_failed_run(config, exc) for config in planned])
    finally:
        total = perf_counter() - t0
        experiment.build_simulation = build
    runs.append(inspect_run(*finished.pop()))
    return PassResult(total - build_s - check_s, build_s, runs)


def setup_time(workload: Workload, seed: int, tiny: bool = False, repeats: int = 5) -> float:
    """Host seconds to build every simulation of one pass: the sum over the
    pass's configs of the median of `repeats` builds. Each build starts from
    a collected heap, so garbage left by earlier work is not charged to it."""
    total = 0.0
    for config in workload.configs(seed, tiny):
        samples = []
        for _ in range(repeats):
            gc.collect()
            t0 = perf_counter()
            scenario.build_simulation(config)
            samples.append(perf_counter() - t0)
        total += statistics.median(samples)
    return total

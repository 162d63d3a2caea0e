"""Scripted scenarios: the five-node head-death failover trace and the
head-stress scenario used for paired reformation comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import ScenarioConfig
from .engine import Simulator
from .experiment import run_scenario
from .geometry import Position
from .metrics import RunMetrics
from .scenario import build_simulation

# Static five-node chain: source 4 -- gateway 1 -- head 0 (+ member 2) -- dest 3.
# Weight factors are chosen so node 0 wins its neighborhood election and
# node 2 is announced secondary; in cbrp mode the lowest id (0) wins anyway.
FAILOVER_POSITIONS: Dict[int, Position] = {
    0: Position(130.0, 0.0),   # on-route cluster head, killed mid-flow
    1: Position(70.0, 0.0),    # gateway between the two clusters
    2: Position(140.0, 25.0),  # secondary head of cluster 0
    3: Position(195.0, 20.0),  # flow destination
    4: Position(0.0, 0.0),     # flow source, heads its own one-member cluster
}
FAILOVER_FLOW = (4, 3)
FAILOVER_KILL_TIME = 10.0


def failover_config(mode: str) -> ScenarioConfig:
    return ScenarioConfig(
        node_count=5, duration_s=20.0, seed=7, protocol_mode=mode,
        node_speed_mps=0.0, pause_time_s=0.0,
        w1=10.0, w2=0.01, w3=0.0, w4=0.0, ideal_degree=3,
        initial_energy=1000.0,
        packets_per_second=4.0, traffic_start_s=5.0, flows=1,
    )


@dataclass
class FailoverResult:
    sim: Simulator
    delivered_after_kill: int


def run_failover_trace(mode: str) -> FailoverResult:
    config = failover_config(mode)
    sim = build_simulation(config, positions=dict(FAILOVER_POSITIONS),
                           flow_pairs=[FAILOVER_FLOW])
    sim.trace = []
    sim.force_kill(0, FAILOVER_KILL_TIME)
    sim.run_until(config.duration_s)
    dest = FAILOVER_FLOW[1]
    after_kill = {
        packet_id for t, packet_id, _from, to in sim.records("hop")
        if t >= FAILOVER_KILL_TIME and to == dest
    }
    return FailoverResult(sim, len(after_kill))


def stress_config(mode: str, seed: int) -> ScenarioConfig:
    """Head-death stress: cluster heads pay a heavy transmit premium, so they
    drain and die repeatedly during the run."""
    return ScenarioConfig(
        node_count=30, duration_s=120.0, seed=seed, protocol_mode=mode,
        initial_energy=200.0, head_transmit_cost_factor=8.0,
    )


def run_stress(mode: str, seed: int) -> RunMetrics:
    return run_scenario(stress_config(mode, seed))

"""Deterministic discrete-event simulator for cluster-based MANET routing
(CBRP and its weighted-election, secondary-head variant ECBRP), with a packet
delivery ratio experiment harness."""

from .config import ConfigError, ScenarioConfig, load_config_file
from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator
from .experiment import (CellResult, SweepResult, run_scenario, run_scenario_sim,
                         sweep, sweep_to_csv, write_sweep_csv)
from .geometry import Position, distance
from .metrics import DROP_CAUSES, RunMetrics, pdr
from .mobility import EnergyState, MobilityState, mobility_step, place_nodes
from .node import Node
from .scenario import build_simulation
from .snapshot import render_snapshot, write_snapshot
from .traces import run_failover_trace, run_stress, stress_config

__all__ = [
    "ConfigError", "ScenarioConfig", "load_config_file",
    "Simulator", "ROLE_DEAD", "ROLE_HEAD", "ROLE_MEMBER", "ROLE_UNDECIDED",
    "CellResult", "SweepResult", "run_scenario", "run_scenario_sim",
    "sweep", "sweep_to_csv", "write_sweep_csv",
    "Position", "distance",
    "DROP_CAUSES", "RunMetrics", "pdr",
    "EnergyState", "MobilityState", "mobility_step", "place_nodes",
    "Node", "build_simulation", "render_snapshot", "write_snapshot",
    "run_failover_trace", "run_stress", "stress_config",
]

__version__ = "0.1.0"

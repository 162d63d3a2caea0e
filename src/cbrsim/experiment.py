"""Experiment harness: single runs, paired sweeps, and CSV emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ScenarioConfig
from .engine import Simulator
from .metrics import DROP_CAUSES, RunMetrics, pdr
from .scenario import build_simulation

# The per-run counters of a CSV row: a run row prints each as is, a mean
# row prints its mean over the cell's runs.
_COUNTER_COLUMNS = (
    ("sent", lambda m: m.packets_sent),
    ("delivered", lambda m: m.packets_delivered),
    *((f"drop_{cause.replace('-', '_')}", lambda m, cause=cause: m.dropped[cause])
      for cause in DROP_CAUSES),
    ("reformations", lambda m: m.cluster_reformations),
    ("head_changes", lambda m: m.head_changes),
)

CSV_COLUMNS = ("node_count", "mode", "seed", "pdr",
               *(name for name, _ in _COUNTER_COLUMNS), "row_type")


def run_scenario_sim(config: ScenarioConfig) -> Simulator:
    """Build and run one scenario; returns the whole simulator (for
    snapshots and state inspection)."""
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    return sim


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    return run_scenario_sim(config).metrics


@dataclass
class CellResult:
    node_count: int
    mode: str
    seeds: List[int]
    metrics: List[RunMetrics]

    @property
    def pdrs(self) -> List[Optional[float]]:
        return [pdr(m) for m in self.metrics]

    @property
    def mean_pdr(self) -> Optional[float]:
        values = [p for p in self.pdrs if p is not None]
        if not values:
            return None
        return sum(values) / len(values)


@dataclass
class SweepResult:
    cells: Dict[Tuple[int, str], CellResult] = field(default_factory=dict)

    def mean_pdr(self, node_count: int, mode: str) -> Optional[float]:
        return self.cells[(node_count, mode)].mean_pdr


def sweep(node_counts: Sequence[int], modes: Sequence[str], replicates: int,
          base_config: ScenarioConfig) -> SweepResult:
    """Run every (node_count, mode) cell over `replicates` seeds.

    Both modes of a cell share the same seeds, so placement, waypoints, and
    traffic randomness are identical — a paired comparison.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    # Cells are keyed by (node_count, mode): a repeat would overwrite a cell.
    for name, values in (("node_counts", node_counts), ("modes", modes)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} repeats a value: {list(values)}")
    for n in node_counts:
        for mode in modes:
            replace(base_config, node_count=n, protocol_mode=mode).validate()
    result = SweepResult()
    for n in node_counts:
        for mode in modes:
            seeds, metrics = [], []
            for r in range(replicates):
                seed = base_config.seed + r
                config = replace(base_config, node_count=n, protocol_mode=mode, seed=seed)
                seeds.append(seed)
                metrics.append(run_scenario(config))
            result.cells[(n, mode)] = CellResult(n, mode, seeds, metrics)
    return result


def _fmt_pdr(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def sweep_to_csv(result: SweepResult) -> str:
    """One row per run, plus a flagged mean row per cell. Column order is
    fixed (see CSV_COLUMNS)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for (n, mode), cell in result.cells.items():
        for seed, m in zip(cell.seeds, cell.metrics):
            writer.writerow([n, mode, seed, _fmt_pdr(pdr(m)),
                             *(get(m) for _, get in _COUNTER_COLUMNS), "run"])
        runs = len(cell.metrics)
        writer.writerow([n, mode, "", _fmt_pdr(cell.mean_pdr),
                         *(f"{sum(get(m) for m in cell.metrics) / runs:.3f}"
                           for _, get in _COUNTER_COLUMNS), "mean"])
    return out.getvalue()


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(sweep_to_csv(result))

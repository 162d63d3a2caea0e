"""Per-run counters and the packet delivery ratio."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

DROP_CAUSES = ("no-route", "route-error", "dead-forwarder", "dead-sender")


@dataclass
class RunMetrics:
    packets_sent: int = 0
    packets_delivered: int = 0
    dropped: Dict[str, int] = field(default_factory=lambda: {c: 0 for c in DROP_CAUSES})
    cluster_reformations: int = 0
    head_changes: int = 0
    # Always 0: no code path writes it. Kept only because the benchmark's
    # behaviour digest (perfbench/workloads.py, run_digest) hashes it.
    malformed_entries: int = 0

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def in_flight(self) -> int:
        return self.packets_sent - self.packets_delivered - self.total_dropped


def pdr(metrics: RunMetrics) -> Optional[float]:
    """Delivered over sent; None (never 0) when nothing was sent."""
    if metrics.packets_sent == 0:
        return None
    return metrics.packets_delivered / metrics.packets_sent

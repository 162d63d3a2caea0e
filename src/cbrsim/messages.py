"""Simulation-internal message types exchanged between nodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .geometry import Position


@dataclass
class Hello:
    sender_id: int
    sender_role: str
    sender_pos: Position
    sender_weight: Optional[float]           # ECBRP only
    cluster_id: Optional[int]                # head id of sender's cluster
    secondary_id: Optional[int]              # sender's view of its cluster's secondary
    neighbor_snapshot: FrozenSet[int] = frozenset()  # ids of the sender's fresh neighbours


@dataclass
class SecondaryAnnounce:
    head_id: int
    secondary_id: int


@dataclass
class RouteRequest:
    request_id: Tuple[int, int, int]   # (source, sequence, retry)
    source_id: int
    dest_id: int
    recorded_path: List[int]


@dataclass
class RouteReply:
    request_id: Tuple[int, int, int]
    full_path: List[int]
    cursor: int                        # index of current holder in reversed travel


@dataclass
class RouteError:
    dest_id: int


@dataclass
class DataPacket:
    packet_id: int
    source_id: int
    dest_id: int
    route: List[int]
    cursor: int = 0

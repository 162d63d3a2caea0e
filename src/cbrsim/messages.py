"""Simulation-internal message types exchanged between nodes.

Every type has slots and none is frozen, which makes each one cheaper to
build; equality without frozen makes them unhashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .geometry import Position


@dataclass(slots=True)
class Hello:
    # Never assigned after construction: every receiver keeps this one object
    # as its neighbour-table entry for the sender.
    sender_id: int
    sender_role: str
    sender_pos: Position
    sender_weight: Optional[float]           # ECBRP only
    cluster_id: Optional[int]                # head id of sender's cluster
    secondary_id: Optional[int]              # sender's view of its cluster's secondary
    # Ids of the sender's fresh neighbours, in its table order. A tuple, not a
    # set: every receiver keeps the HELLO for up to the stale timeout, a set's
    # hash table takes several times a tuple's bytes, and the one lookup is a
    # membership test on a route repair.
    neighbor_snapshot: Tuple[int, ...]
    # When every receiver gets it: all of them in the one delivery the
    # broadcast schedules, at the send time plus propagation_delay_s.
    heard_at: float


@dataclass(slots=True)
class SecondaryAnnounce:
    head_id: int
    secondary_id: int


@dataclass(slots=True)
class RouteRequest:
    request_id: Tuple[int, int, int]   # (source, sequence, retry)
    dest_id: int
    recorded_path: List[int]
    # Ids of the nodes that hold this request: its source and every node it
    # has reached. Every copy of one flood shares this one set, so it goes
    # with the flood's last copy.
    seen: Set[int]


@dataclass(slots=True)
class RouteReply:
    request_id: Tuple[int, int, int]
    full_path: List[int]
    cursor: int                        # index of current holder in reversed travel


@dataclass(slots=True)
class DataPacket:
    packet_id: int
    source_id: int
    dest_id: int
    route: List[int]
    cursor: int = 0

"""Deterministic discrete-event core: clock, event queue, seeded randomness,
and idealized unit-disk broadcast/unicast delivery.

A single run is strictly single-threaded. All randomness flows through named
sub-streams of one seed, so identical (config, seed) gives an identical event
trace and identical metrics.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .config import ScenarioConfig
from .geometry import distance
from .messages import DataPacket
from .metrics import RunMetrics

ROLE_UNDECIDED = "undecided"
ROLE_HEAD = "head"
ROLE_MEMBER = "member"
ROLE_DEAD = "dead"


@dataclass(order=True)
class Event:
    fire_time: float
    seq: int
    kind: str = field(compare=False)
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class RngStreams:
    """Named, independently seeded sub-streams of one run seed."""

    NAMES = ("placement", "waypoints", "traffic")

    def __init__(self, seed: int):
        self.seed = seed
        for name in self.NAMES:
            setattr(self, name, random.Random(f"{seed}:{name}"))


@dataclass
class HopRecord:
    """One successful data-packet hop."""
    time: float
    packet_id: int
    from_id: int
    to_id: int


class Simulator:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.now = 0.0
        self._queue: List[Event] = []
        self._seq = 0
        self.rng = RngStreams(config.seed)
        self.nodes: Dict[int, "object"] = {}  # id -> Node, filled by the scenario builder
        self.metrics = RunMetrics()
        self._outstanding: Set[int] = set()
        self._packet_counter = 0
        # Trace logs consumed by invariant checks and tests.
        self.hop_log: List[HopRecord] = []
        self.path_log: List[Tuple[int, ...]] = []
        self.election_log: List[Tuple[float, int, float, Tuple[float, ...]]] = []
        self.join_log: List[Tuple[float, int, int, Optional[float]]] = []
        self.undecided_transitions: List[Tuple[float, int]] = []
        self._nbr_cache: Dict[int, Tuple[int, ...]] = {}

    # -- event queue -------------------------------------------------------

    def schedule(self, fire_time: float, kind: str, fn: Callable[[], None]) -> Event:
        if fire_time < self.now:
            raise ValueError(f"cannot schedule {kind!r} at {fire_time} before now={self.now}")
        event = Event(fire_time, self._seq, kind, fn)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run_until(self, t_end: float) -> RunMetrics:
        while self._queue and self._queue[0].fire_time <= t_end:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.fire_time
            event.fn()
        self.now = max(self.now, t_end)
        return self.metrics

    # -- radio -------------------------------------------------------------

    def invalidate_neighbors(self) -> None:
        self._nbr_cache.clear()

    def alive_in_range(self, node_id: int) -> Tuple[int, ...]:
        """Alive nodes within radio range of node_id (excluding itself)."""
        cached = self._nbr_cache.get(node_id)
        if cached is not None:
            return cached
        me = self.nodes[node_id]
        result = tuple(
            other_id for other_id, other in self.nodes.items()
            if other_id != node_id and other.alive
            and distance(me.pos, other.pos) <= self.config.tx_range_m
        )
        self._nbr_cache[node_id] = result
        return result

    def _charge_transmit(self, node) -> None:
        cost = node.energy.transmit_cost
        if node.role == ROLE_HEAD:
            cost *= self.config.head_transmit_cost_factor
        node.energy.charge(cost)

    def _after_transmit(self, node) -> None:
        if node.energy.depleted and node.alive:
            self.mark_dead(node.node_id)

    def broadcast(self, sender_id: int, message) -> FrozenSet[int]:
        sender = self.nodes[sender_id]
        if not sender.alive:
            return frozenset()
        self._charge_transmit(sender)
        receivers = self.alive_in_range(sender_id)
        delay = self.config.propagation_delay_s
        for rid in receivers:
            self._schedule_delivery(sender_id, rid, message, delay)
        self._after_transmit(sender)
        return frozenset(receivers)

    def unicast(self, sender_id: int, next_hop: int, message) -> bool:
        """True iff the hop is feasible (next hop alive and in range) at send time."""
        sender = self.nodes[sender_id]
        if not sender.alive:
            return False
        self._charge_transmit(sender)
        target = self.nodes.get(next_hop)
        ok = (target is not None and target.alive
              and distance(sender.pos, target.pos) <= self.config.tx_range_m)
        if ok:
            if isinstance(message, DataPacket):
                self.hop_log.append(HopRecord(self.now, message.packet_id, sender_id, next_hop))
            self._schedule_delivery(sender_id, next_hop, message, self.config.propagation_delay_s)
        self._after_transmit(sender)
        return ok

    def _schedule_delivery(self, sender_id: int, receiver_id: int, message, delay: float) -> None:
        def deliver():
            receiver = self.nodes.get(receiver_id)
            if receiver is not None and receiver.alive:
                receiver.handle_message(message, sender_id)
        self.schedule(self.now + delay, "deliver", deliver)

    # -- lifecycle ---------------------------------------------------------

    def mark_dead(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.role == ROLE_DEAD:
            return
        node.on_death()
        self.invalidate_neighbors()

    def force_kill(self, node_id: int, at: float) -> None:
        """Scripted death: energy zeroed and node silenced at the given time."""
        def kill():
            node = self.nodes[node_id]
            node.energy.remaining = 0.0
            self.mark_dead(node_id)
        self.schedule(at, "kill", kill)

    # -- data-packet accounting (conservation enforced structurally) -------

    def new_packet_id(self) -> int:
        pid = self._packet_counter
        self._packet_counter += 1
        return pid

    def register_packet(self, packet_id: int) -> None:
        assert packet_id not in self._outstanding
        self._outstanding.add(packet_id)
        self.metrics.packets_sent += 1

    def account_delivered(self, packet_id: int) -> None:
        self._outstanding.remove(packet_id)
        self.metrics.packets_delivered += 1

    def account_dropped(self, packet_id: int, cause: str) -> None:
        self._outstanding.remove(packet_id)
        self.metrics.drop(cause)

    @property
    def outstanding_packets(self) -> int:
        return len(self._outstanding)

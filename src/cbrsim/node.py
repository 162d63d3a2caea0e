"""Per-node clustering state machine.

Two protocol modes share the machinery:
  - cbrp:  lowest-id election, no secondary head; head loss forces the whole
           cluster back through the undecided formation procedure.
  - ecbrp: lowest-weight election with a pre-announced secondary head that is
           promoted in place when the head fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import routing
from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator
from .geometry import Position, distance
from .messages import DataPacket, Hello, RouteReply, RouteRequest, SecondaryAnnounce
from .mobility import EnergyState, MobilityState
from .weights import WeightComponents, WeightFactors, average_speed, combined_weight, degree_difference


@dataclass
class NeighborEntry:
    node_id: int
    role: str
    cluster_id: Optional[int]
    weight: Optional[float]
    pos: Position
    secondary_id: Optional[int]
    one_hop: FrozenSet[int]      # ids the neighbor itself advertised hearing
    last_heard: float


class Node:
    def __init__(self, sim: Simulator, node_id: int, pos: Position,
                 mobility: MobilityState, energy: EnergyState):
        self.sim = sim
        self.node_id = node_id
        self.pos = pos
        self.mobility = mobility
        self.energy = energy
        cfg = sim.config
        self.mode = cfg.protocol_mode
        self.factors = WeightFactors(cfg.w1, cfg.w2, cfg.w3, cfg.w4)

        self.role = ROLE_UNDECIDED
        self.head_id: Optional[int] = None
        self.member_ids: set = set()
        self.my_secondary: Optional[int] = None          # as head
        self.cluster_secondary: Optional[int] = None     # as member, of own cluster
        self.neighbors: Dict[int, NeighborEntry] = {}
        self.known_secondaries: Dict[int, int] = {}       # head id -> its secondary

        self.ch_accum_s = 0.0
        self._ch_since: Optional[float] = None
        self._hello_timer = None
        self._undecided_timer = None
        self._join_eval_scheduled = False
        self._last_secondary_announce = -1e9
        self._last_undecided_reply = -1e9
        self.last_advertised_weight: Optional[float] = None
        self.routing = routing.RoutingState()

    # -- basic queries -----------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.role != ROLE_DEAD

    @property
    def cluster_id(self) -> Optional[int]:
        if self.role == ROLE_HEAD:
            return self.node_id
        if self.role == ROLE_MEMBER:
            return self.head_id
        return None

    def _stale_timeout(self) -> float:
        return self.sim.config.stale_timeout_s()

    def fresh_neighbors(self) -> List[NeighborEntry]:
        cutoff = self.sim.now - self._stale_timeout()
        return [e for e in self.neighbors.values() if e.last_heard >= cutoff]

    def current_degree_entries(self) -> List[NeighborEntry]:
        rng = self.sim.config.tx_range_m
        return [e for e in self.fresh_neighbors()
                if e.role != ROLE_DEAD and distance(self.pos, e.pos) <= rng]

    # -- weight ------------------------------------------------------------

    def weight_components(self) -> WeightComponents:
        cfg = self.sim.config
        entries = self.current_degree_entries()
        dsum = sum(distance(self.pos, e.pos) for e in entries)
        if cfg.p_v_mode == "energy_consumed":
            head_metric = self.energy.consumed()
        else:
            head_metric = self.ch_accum_s
            if self._ch_since is not None:
                head_metric += self.sim.now - self._ch_since
        return WeightComponents(
            degree_diff=degree_difference(len(entries), cfg.ideal_degree),
            dist_sum=dsum,
            mobility=average_speed(self.mobility.total_distance, self.sim.now),
            head_time=head_metric,
        )

    def weight_now(self) -> float:
        return combined_weight(self.weight_components(), self.factors)

    # -- startup and timers ------------------------------------------------

    def on_startup(self) -> None:
        if not self.alive:
            return
        self.send_hello()
        self._hello_timer = self.sim.schedule(
            self.sim.now + self.sim.config.hello_interval_s, "hello", self.hello_tick)
        self._restart_undecided_timer()

    def _restart_undecided_timer(self) -> None:
        if self._undecided_timer is not None:
            self._undecided_timer.cancel()
        self._undecided_timer = self.sim.schedule(
            self.sim.now + self.sim.config.undecided_timer_s(),
            "undecided-timeout", self.on_undecided_timeout)

    def hello_tick(self) -> None:
        if not self.alive:
            return
        self.send_hello()
        self._hello_timer = self.sim.schedule(
            self.sim.now + self.sim.config.hello_interval_s, "hello", self.hello_tick)

    def build_hello(self) -> Hello:
        # Weight is recomputed immediately before every broadcast.
        weight = self.weight_now() if self.mode == "ecbrp" else None
        self.last_advertised_weight = weight
        one_hop = frozenset(e.node_id for e in self.fresh_neighbors())
        secondary = self.my_secondary if self.role == ROLE_HEAD else self.cluster_secondary
        return Hello(self.node_id, self.role, self.pos, weight,
                     self.cluster_id, secondary, one_hop)

    def send_hello(self) -> None:
        self.sim.broadcast(self.node_id, self.build_hello())

    # -- message dispatch --------------------------------------------------

    def handle_message(self, message, sender_id: int) -> None:
        if isinstance(message, Hello):
            self.on_hello(message, sender_id)
        elif isinstance(message, SecondaryAnnounce):
            self.on_secondary_announce(message)
        elif isinstance(message, RouteRequest):
            routing.handle_rreq(self.sim, self, message)
        elif isinstance(message, RouteReply):
            routing.handle_rrep(self.sim, self, message)
        elif isinstance(message, DataPacket):
            routing.handle_data(self.sim, self, message)

    # -- HELLO processing --------------------------------------------------

    def on_hello(self, hello: Hello, sender_id: int) -> None:
        now = self.sim.now
        self.neighbors[sender_id] = NeighborEntry(
            sender_id, hello.sender_role, hello.cluster_id, hello.sender_weight,
            hello.sender_pos, hello.secondary_id, hello.neighbor_snapshot, now)

        if hello.cluster_id is not None and hello.secondary_id is not None:
            self.known_secondaries[hello.cluster_id] = hello.secondary_id

        if self.role == ROLE_HEAD:
            self._head_on_hello(hello, sender_id)
        elif self.role == ROLE_MEMBER:
            self._member_on_hello(hello, sender_id)
        elif self.role == ROLE_UNDECIDED:
            if hello.sender_role == ROLE_HEAD and not self._join_eval_scheduled:
                self._join_eval_scheduled = True
                self.sim.schedule(now, "join-evaluate", self._join_evaluate)

    def _head_on_hello(self, hello: Hello, sender_id: int) -> None:
        now = self.sim.now
        if hello.sender_role == ROLE_UNDECIDED:
            # Immediate reply so the undecided node can join without waiting a
            # full interval; rate-limited to one reply per interval.
            if now - self._last_undecided_reply >= self.sim.config.hello_interval_s:
                self._last_undecided_reply = now
                self.send_hello()
        elif hello.sender_role == ROLE_HEAD:
            self._head_contention(hello, sender_id)
        elif hello.sender_role == ROLE_MEMBER:
            if hello.cluster_id == self.node_id:
                self.member_ids.add(sender_id)
            else:
                self.member_ids.discard(sender_id)

    def _head_contention(self, hello: Hello, sender_id: int) -> None:
        if self.mode == "ecbrp":
            # Compare advertised weights on both sides so the two heads reach
            # opposite verdicts and exactly one of them demotes.
            mine_w = (self.last_advertised_weight
                      if self.last_advertised_weight is not None else self.weight_now())
            mine = (mine_w, self.node_id)
            theirs = (hello.sender_weight, sender_id)
        else:
            mine = (self.node_id,)
            theirs = (sender_id,)
        if theirs < mine:
            self._demote_to_member_of(sender_id)

    def _demote_to_member_of(self, winner_id: int) -> None:
        self._stop_heading()
        self.role = ROLE_MEMBER
        self.head_id = winner_id
        entry = self.neighbors.get(winner_id)
        self.cluster_secondary = entry.secondary_id if entry else None

    def _stop_heading(self) -> None:
        if self._ch_since is not None:
            self.ch_accum_s += self.sim.now - self._ch_since
            self._ch_since = None
        self.member_ids = set()
        self.my_secondary = None

    def _member_on_hello(self, hello: Hello, sender_id: int) -> None:
        if sender_id == self.head_id:
            if hello.sender_role == ROLE_HEAD:
                self.cluster_secondary = hello.secondary_id
            else:
                # Our head stepped down (lost contention); re-home or reform.
                self._rehome(exclude=sender_id)

    def _rehome(self, exclude: Optional[int] = None) -> None:
        best = self._best_head_entry(exclude=exclude)
        if best is not None:
            self._join(best)
        else:
            self.revert_undecided()

    def _best_head_entry(self, exclude: Optional[int] = None) -> Optional[NeighborEntry]:
        rng = self.sim.config.tx_range_m
        candidates = [e for e in self.fresh_neighbors()
                      if e.role == ROLE_HEAD and e.node_id != exclude
                      and distance(self.pos, e.pos) <= rng]
        if not candidates:
            return None
        if self.mode == "ecbrp":
            return min(candidates, key=lambda e: (e.weight if e.weight is not None else float("inf"),
                                                  e.node_id))
        return min(candidates, key=lambda e: e.node_id)

    def _join_evaluate(self) -> None:
        self._join_eval_scheduled = False
        if self.role != ROLE_UNDECIDED or not self.alive:
            return
        best = self._best_head_entry()
        if best is not None:
            self._join(best)

    def _join(self, entry: NeighborEntry) -> None:
        was_undecided = self.role == ROLE_UNDECIDED
        if self.role == ROLE_HEAD:
            self._stop_heading()
        self.role = ROLE_MEMBER
        self.head_id = entry.node_id
        self.cluster_secondary = entry.secondary_id
        self.sim.join_log.append((self.sim.now, self.node_id, entry.node_id, entry.weight))
        if was_undecided and self._undecided_timer is not None:
            self._undecided_timer.cancel()
            self._undecided_timer = None

    # -- election ----------------------------------------------------------

    def on_undecided_timeout(self) -> None:
        if not self.alive or self.role != ROLE_UNDECIDED:
            return
        head = self._best_head_entry()
        if head is not None:
            self._join(head)
            return
        entries = self.current_degree_entries()
        if not entries:
            # Isolated: stay undecided and repeat the procedure later.
            self._restart_undecided_timer()
            return
        competitors = [e for e in entries if e.role == ROLE_UNDECIDED]
        if self.mode == "ecbrp":
            mine = (self.weight_now(), self.node_id)
            beaten = any((e.weight if e.weight is not None else float("inf"), e.node_id) < mine
                         for e in competitors)
        else:
            beaten = any(e.node_id < self.node_id for e in competitors)
        if beaten:
            self._restart_undecided_timer()
        else:
            beaten_weights = tuple(sorted(e.weight for e in competitors if e.weight is not None))
            self.become_head(beaten_weights)

    def become_head(self, contested_weights: Tuple[float, ...] = ()) -> None:
        if self._undecided_timer is not None:
            self._undecided_timer.cancel()
            self._undecided_timer = None
        self.role = ROLE_HEAD
        self.head_id = self.node_id
        self.cluster_secondary = None
        self.member_ids = set()
        self.my_secondary = None
        self._ch_since = self.sim.now
        self.sim.metrics.head_changes += 1
        self.sim.election_log.append(
            (self.sim.now, self.node_id,
             self.weight_now() if self.mode == "ecbrp" else float(self.node_id),
             contested_weights))
        self.send_hello()

    # -- secondary head (ECBRP) -------------------------------------------

    def on_secondary_announce(self, msg: SecondaryAnnounce) -> None:
        self.known_secondaries[msg.head_id] = msg.secondary_id
        if self.role == ROLE_MEMBER and self.head_id == msg.head_id:
            self.cluster_secondary = msg.secondary_id

    def _reelect_secondary(self) -> None:
        if self.mode != "ecbrp" or self.role != ROLE_HEAD:
            return
        cutoff = self.sim.now - self._stale_timeout()
        candidates = [self.neighbors[m] for m in self.member_ids
                      if m in self.neighbors and self.neighbors[m].last_heard >= cutoff]
        if not candidates:
            if self.my_secondary is not None:
                self.my_secondary = None
            return
        best = min(candidates, key=lambda e: (e.weight if e.weight is not None else float("inf"),
                                              e.node_id))
        if best.node_id != self.my_secondary:
            if self.sim.now - self._last_secondary_announce < self.sim.config.hello_interval_s:
                return
            self.my_secondary = best.node_id
            self._last_secondary_announce = self.sim.now
            self.sim.broadcast(self.node_id, SecondaryAnnounce(self.node_id, best.node_id))

    # -- table maintenance and failover ------------------------------------

    def table_maintenance(self) -> None:
        if not self.alive:
            return
        cutoff = self.sim.now - self._stale_timeout()
        expired = [nid for nid, e in self.neighbors.items() if e.last_heard < cutoff]
        for nid in expired:
            del self.neighbors[nid]
            self.member_ids.discard(nid)
        if (self.role == ROLE_MEMBER and self.head_id is not None
                and self.head_id not in self.neighbors):
            self.on_head_failure(self.head_id)
        elif self.role == ROLE_HEAD:
            self._reelect_secondary()

    def on_head_failure(self, failed_head_id: int) -> None:
        if self.mode == "ecbrp":
            secondary = self.cluster_secondary
            if secondary is None:
                secondary = self.known_secondaries.get(failed_head_id)
            if secondary == self.node_id:
                # Promotion in place: the cluster re-labels to the new head's id.
                self.become_head()
                return
            if secondary is not None and secondary in self.neighbors:
                entry = self.neighbors[secondary]
                if entry.role != ROLE_DEAD:
                    self.head_id = secondary
                    self.cluster_secondary = None
                    return
        self.revert_undecided()

    def revert_undecided(self) -> None:
        was_decided = self.role in (ROLE_HEAD, ROLE_MEMBER)
        if self.role == ROLE_HEAD:
            self._stop_heading()
        self.role = ROLE_UNDECIDED
        self.head_id = None
        self.cluster_secondary = None
        if was_decided:
            self.sim.metrics.cluster_reformations += 1
            self.sim.undecided_transitions.append((self.sim.now, self.node_id))
        self._restart_undecided_timer()

    # -- death -------------------------------------------------------------

    def on_death(self) -> None:
        if self._ch_since is not None:
            self.ch_accum_s += self.sim.now - self._ch_since
            self._ch_since = None
        self.role = ROLE_DEAD
        if self._hello_timer is not None:
            self._hello_timer.cancel()
            self._hello_timer = None
        if self._undecided_timer is not None:
            self._undecided_timer.cancel()
            self._undecided_timer = None

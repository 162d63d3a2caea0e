"""Per-node clustering state machine.

Two protocol modes share the machinery and differ in exactly two decisions:
  - election_weight: an ecbrp node advertises its weight and the lowest one
    wins; a cbrp node advertises none, so every election falls to the lowest id.
  - _reelect_secondary: only an ecbrp head designates a secondary head.
Everything else follows from the data. When its head fails, a member that
knows the cluster's secondary promotes itself (if it is the secondary) or
re-homes to it (if it hears it); otherwise, and so always in cbrp, it goes
back through the undecided formation procedure.

The roles change only along these edges, and the methods rely on it
without testing it:
  - undecided -> member by _join, or -> head by become_head (the election);
  - head -> member only by losing _head_contention;
  - member -> member by _join or a re-home to the secondary; member -> head
    by promotion in place; member -> undecided by revert_undecided, when
    its head is gone and no other head or secondary takes it in;
  - any role -> dead, which is final; ROLE_DEAD is not ROLE_UNDECIDED.
So _join and revert_undecided never run on a head, revert_undecided always
counts a reformation, _reelect_secondary runs on heads only, a member
always has a head_id, and an ecbrp head has advertised its weight, since
become_head sends a HELLO. An undecided node has no head_id: it starts with
none and revert_undecided clears it. A node holds a secondary only while it
has a head_id (revert_undecided clears both), so a HELLO that names a
secondary also names its cluster. become_head is entered with member_ids
empty: only a head adds to it, and _stop_heading clears it whenever a node
stops heading. tests/test_invariants.py checks these on every call over
whole runs.

The only clustering timer a node holds is its undecided timer, first armed
by the scenario's startup event. Each arming numbers the timer one past the
one before, and its event carries that number, not a closure: re-arming
supersedes the armed timer, which stays on the queue and returns when due,
as its number is no longer the node's newest. on_undecided_timeout returns
unless the node is undecided. A node sends a HELLO when
the scenario's HELLO round (once at startup, then one event per
hello_interval_s for all nodes) calls send_hello, and maintains its table
when the scenario's maintenance tick calls table_maintenance; both skip a
dead node.

What a node hears right now comes from the one neighbour view: the fresh
entries (fresh_neighbors, iter_fresh_neighbors), those within range
(current_degree_entries), and those within range that advertise the head
role (current_head_entries), which the joins read. Before each HELLO,
weight_now computes the election weight, its four terms and their sum, in
its own body; it is the one place the weight is computed, and the tests and
the acceptance oracle check it against their own references.
"""

from __future__ import annotations

from functools import partial
from math import hypot
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import routing
from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator
from .geometry import Position
from .messages import DataPacket, Hello, RouteReply, RouteRequest, SecondaryAnnounce
from .mobility import EnergyState, MobilityState

def _rank(weight: Optional[float], node_id: int) -> Tuple[float, int]:
    """Election order: lower weight first, ties to the lower id. A missing
    weight ranks last (0.0 is a legal weight), so with no weights at all the
    order is id order."""
    return (float("inf") if weight is None else weight, node_id)


def _entry_rank(entry: Hello) -> Tuple[float, int]:
    """A neighbour's election order, by the HELLO last heard from it."""
    return _rank(entry.sender_weight, entry.sender_id)


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
        self.w1, self.w2, self.w3, self.w4 = cfg.w1, cfg.w2, cfg.w3, cfg.w4
        self.stale_timeout_s = cfg.stale_timeout_s()
        self.tx_range_m = cfg.tx_range_m
        self.ideal_degree = cfg.ideal_degree
        self.head_metric_is_energy = cfg.p_v_mode == "energy_consumed"

        self.role = ROLE_UNDECIDED
        self.head_id: Optional[int] = None
        self.member_ids: set = set()
        # Own cluster's secondary: as head the one designated, as member the
        # one last heard of; None when undecided.
        self.secondary: Optional[int] = None
        # The neighbour table: id -> the Hello last heard from it.
        self.neighbors: Dict[int, Hello] = {}
        self.known_secondaries: Dict[int, int] = {}       # head id -> its secondary

        self.ch_accum_s = 0.0
        self._ch_since: Optional[float] = None
        self._undecided_timer = 0   # number of the newest timer armed; 0: none
        self._join_eval_scheduled = False
        self._last_secondary_announce = -1e9
        self._last_undecided_reply = -1e9
        self.last_advertised_weight: Optional[float] = None
        self.routing = routing.RoutingState()

    # -- basic queries -----------------------------------------------------

    def secondary_of(self, head_id: int) -> Optional[int]:
        """The secondary of the cluster headed by head_id, if this node knows it."""
        if head_id == self.head_id and self.secondary is not None:
            return self.secondary
        return self.known_secondaries.get(head_id)

    # The one neighbour view: every decision that depends on which neighbours
    # a node hears right now reads one of these (the weight applies the same
    # range test to fresh_neighbors() in its own loop). One reader reads the
    # table whole: _reelect_secondary, which runs only from table_maintenance,
    # right after that deleted every entry heard before this instant's
    # cutoff, so every entry left is fresh.

    def fresh_neighbors(self) -> List[Hello]:
        """The Hellos of neighbours heard within the stale timeout, in table
        order, as a list: the same cutoff as iter_fresh_neighbors()."""
        cutoff = self.sim.now - self.stale_timeout_s
        return [h for h in self.neighbors.values() if h.heard_at >= cutoff]

    def iter_fresh_neighbors(self) -> Iterator[Hello]:
        """The Hellos of neighbours heard within the stale timeout, in table
        order, one at a time, so that a caller may stop at the first it needs."""
        cutoff = self.sim.now - self.stale_timeout_s
        for h in self.neighbors.values():
            if h.heard_at >= cutoff:
                yield h

    def current_degree_entries(self) -> List[Hello]:
        """Fresh Hellos whose advertised position is within radio range."""
        cutoff = self.sim.now - self.stale_timeout_s
        rng = self.tx_range_m
        x, y = self.pos.x, self.pos.y
        return [h for h in self.neighbors.values()
                if h.heard_at >= cutoff and hypot(x - h.sender_pos.x, y - h.sender_pos.y) <= rng]

    def current_head_entries(self) -> List[Hello]:
        """The entries of current_degree_entries() that advertise the head
        role, in the same order: the role is tested first, so a join
        measures only the heads."""
        cutoff = self.sim.now - self.stale_timeout_s
        rng = self.tx_range_m
        x, y = self.pos.x, self.pos.y
        return [h for h in self.neighbors.values()
                if h.sender_role == ROLE_HEAD and h.heard_at >= cutoff
                and hypot(x - h.sender_pos.x, y - h.sender_pos.y) <= rng]

    # -- weight ------------------------------------------------------------

    def weight_now(self, fresh: Optional[List[Hello]] = None) -> float:
        """The WCA election weight; lower is a better head candidate. It is
        w1 * |degree - ideal_degree| + w2 * the distance sum + w3 * the
        average speed since t = 0 (0 before the clock starts) + w4 * the
        head metric (time spent heading, or energy consumed), added left to
        right. `fresh` is this instant's fresh_neighbors(), or
        current_degree_entries(), when the caller already has it. Each
        neighbour is measured once: the degree counts and the distance sum
        adds the distances within range, left to right from int 0, so the
        sum is the same on every Python (the built-in sum() of floats is
        compensated from 3.12 on)."""
        if fresh is None:
            fresh = self.fresh_neighbors()
        now = self.sim.now
        x, y, rng = self.pos.x, self.pos.y, self.tx_range_m
        degree = dist_sum = 0
        for h in fresh:
            d = hypot(x - h.sender_pos.x, y - h.sender_pos.y)
            if d <= rng:
                degree += 1
                dist_sum += d
        if self.head_metric_is_energy:
            head_metric = self.energy.consumed()
        else:
            head_metric = self.ch_accum_s
            if self._ch_since is not None:
                head_metric += now - self._ch_since
        return (self.w1 * abs(degree - self.ideal_degree)
                + self.w2 * dist_sum
                + self.w3 * (self.mobility.total_distance / now if now > 0 else 0.0)
                + self.w4 * head_metric)

    def election_weight(self, fresh: Optional[List[Hello]] = None) -> Optional[float]:
        """The weight this node stands for election with: None in cbrp."""
        return self.weight_now(fresh) if self.mode == "ecbrp" else None

    # -- timers ------------------------------------------------------------

    def _restart_undecided_timer(self) -> None:
        """Arm the undecided timer, numbered one past the timer armed before
        it. It calls on_undecided_timeout only if it is still the newest one
        armed; an older one returns when due."""
        self._undecided_timer += 1
        self.sim.schedule(self.sim.now + self.sim.config.undecided_timer_s(), "undecided-timeout",
                          partial(self._undecided_timer_due, self._undecided_timer))

    def _undecided_timer_due(self, number: int) -> None:
        if number == self._undecided_timer:
            self.on_undecided_timeout()

    def build_hello(self) -> Hello:
        # Weight is recomputed immediately before every broadcast.
        fresh = self.fresh_neighbors()
        weight = self.election_weight(fresh)
        self.last_advertised_weight = weight
        one_hop = tuple([h.sender_id for h in fresh])
        # The same float as the time of the delivery the broadcast schedules.
        return Hello(self.node_id, self.role, self.pos, weight, self.head_id,
                     self.secondary, one_hop,
                     self.sim.now + self.sim.config.propagation_delay_s)

    def send_hello(self) -> None:
        self.sim.broadcast(self.node_id, self.build_hello())

    # -- message dispatch --------------------------------------------------

    def handle_message(self, message, sender_id: int) -> None:
        # routing.handle_* is looked up at each call, so a patched one runs.
        kind = type(message)
        if kind is Hello:   # most receptions
            self.on_hello(message, sender_id)
        elif kind is RouteRequest:
            routing.handle_rreq(self.sim, self, message)
        elif kind is DataPacket:
            routing.handle_data(self.sim, self, message)
        elif kind is RouteReply:
            routing.handle_rrep(self.sim, self, message)
        elif kind is SecondaryAnnounce:
            self.on_secondary_announce(message)
        else:
            raise TypeError(f"node {self.node_id} cannot handle a message of type "
                            f"{kind.__name__}")

    # -- HELLO processing --------------------------------------------------

    def on_hello(self, hello: Hello, sender_id: int) -> None:
        self.neighbors[sender_id] = hello

        if hello.secondary_id is not None:
            self.known_secondaries[hello.cluster_id] = hello.secondary_id

        role = self.role
        if role == ROLE_HEAD:
            self._head_on_hello(hello, sender_id)
        elif role == ROLE_MEMBER:
            if sender_id == self.head_id:
                self._member_on_hello(hello)
        elif role == ROLE_UNDECIDED:
            if hello.sender_role == ROLE_HEAD and not self._join_eval_scheduled:
                self._join_eval_scheduled = True
                self.sim.schedule(self.sim.now, "join-evaluate", self._join_evaluate)

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
        # Compare advertised weights on both sides so the two heads reach
        # opposite verdicts and exactly one of them demotes. become_head sent
        # a HELLO, so an ecbrp head has advertised its weight (a cbrp head
        # advertises none and ranks by id).
        mine = _rank(self.last_advertised_weight, self.node_id)
        if _rank(hello.sender_weight, sender_id) < mine:
            self._stop_heading()
            self.role = ROLE_MEMBER
            self.head_id = sender_id
            self.secondary = hello.secondary_id

    def _stop_heading(self) -> None:
        if self._ch_since is not None:
            self.ch_accum_s += self.sim.now - self._ch_since
            self._ch_since = None
        self.member_ids = set()

    def _member_on_hello(self, hello: Hello) -> None:
        """A HELLO from this member's own head."""
        if hello.sender_role == ROLE_HEAD:
            self.secondary = hello.secondary_id
        elif not self._join_best_head(self.current_head_entries()):
            # Our head stepped down (lost contention) and no other head
            # is in range: reform.
            self.revert_undecided()

    def _join_best_head(self, entries: List[Hello]) -> bool:
        """Join the best head among entries (current_head_entries(), or
        current_degree_entries()). None of them is head_id: an undecided
        node has none, and a member calls this right after storing its
        head's HELLO as a non-head. True if it joined one."""
        heads = [e for e in entries if e.sender_role == ROLE_HEAD]
        if not heads:
            return False
        self._join(min(heads, key=_entry_rank))
        return True

    def _join_evaluate(self) -> None:
        self._join_eval_scheduled = False
        if self.role == ROLE_UNDECIDED:
            self._join_best_head(self.current_head_entries())

    def _join(self, entry: Hello) -> None:
        self.role = ROLE_MEMBER
        self.head_id = entry.sender_id
        self.secondary = entry.secondary_id
        if self.sim.trace is not None:
            self.sim.record("join", self.node_id, entry.sender_id, entry.sender_weight)

    # -- election ----------------------------------------------------------

    def on_undecided_timeout(self) -> None:
        if self.role != ROLE_UNDECIDED:
            return
        entries = self.current_degree_entries()
        if self._join_best_head(entries):
            return
        if not entries:
            # Isolated: stay undecided and repeat the procedure later.
            self._restart_undecided_timer()
            return
        competitors = [e for e in entries if e.sender_role == ROLE_UNDECIDED]
        # entries are fresh_neighbors() within range, the neighbours the
        # weight counts, in the same order: the same float.
        mine = _rank(self.election_weight(entries), self.node_id)
        if any(_entry_rank(e) < mine for e in competitors):
            self._restart_undecided_timer()
        else:
            self.become_head(competitors)

    def become_head(self, competitors: Sequence[Hello] = ()) -> None:
        """Take the head role; competitors are the HELLOs of the undecided
        neighbours this node beat in the election."""
        self.role = ROLE_HEAD
        self.head_id = self.node_id
        self.secondary = None
        self._ch_since = self.sim.now
        self.sim.metrics.head_changes += 1
        if self.sim.trace is not None:  # the weights are computed for the record only
            weight = self.election_weight()
            self.sim.record("election", self.node_id,
                            float(self.node_id) if weight is None else weight,
                            tuple(sorted(e.sender_weight for e in competitors
                                         if e.sender_weight is not None)))
        self.send_hello()

    # -- secondary head (ECBRP) -------------------------------------------

    def on_secondary_announce(self, msg: SecondaryAnnounce) -> None:
        self.known_secondaries[msg.head_id] = msg.secondary_id
        if self.role == ROLE_MEMBER and self.head_id == msg.head_id:
            self.secondary = msg.secondary_id

    def _reelect_secondary(self) -> None:
        if self.mode != "ecbrp":
            return
        # Every entry is fresh: see the neighbour view's comment.
        candidates = [e for e in self.neighbors.values() if e.sender_id in self.member_ids]
        if not candidates:
            self.secondary = None
            return
        best = min(candidates, key=_entry_rank)
        if best.sender_id != self.secondary:
            if self.sim.now - self._last_secondary_announce < self.sim.config.hello_interval_s:
                return
            self.secondary = best.sender_id
            self._last_secondary_announce = self.sim.now
            self.sim.broadcast(self.node_id, SecondaryAnnounce(self.node_id, best.sender_id))

    # -- table maintenance and failover ------------------------------------

    def table_maintenance(self) -> None:
        cutoff = self.sim.now - self.stale_timeout_s
        expired = [nid for nid, h in self.neighbors.items() if h.heard_at < cutoff]
        for nid in expired:
            del self.neighbors[nid]
            self.member_ids.discard(nid)
        if self.role == ROLE_MEMBER and self.head_id not in self.neighbors:
            self.on_head_failure()
        elif self.role == ROLE_HEAD:
            self._reelect_secondary()

    def on_head_failure(self) -> None:
        secondary = self.secondary_of(self.head_id)
        if secondary == self.node_id:
            # Promotion in place: the cluster re-labels to the new head's id.
            self.become_head()
            return
        if secondary in self.neighbors:   # None is never a key
            self.head_id = secondary
            self.secondary = None
            return
        self.revert_undecided()

    def revert_undecided(self) -> None:
        self.role = ROLE_UNDECIDED
        self.head_id = None
        self.secondary = None
        self.sim.metrics.cluster_reformations += 1
        self._restart_undecided_timer()

    # -- death -------------------------------------------------------------

    def on_death(self) -> None:
        self._stop_heading()
        self.role = ROLE_DEAD

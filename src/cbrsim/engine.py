"""Deterministic discrete-event core: clock, event queue, seeded randomness,
idealized unit-disk broadcast/unicast delivery, and an opt-in record stream.

A single run is strictly single-threaded. All randomness flows through named
sub-streams of one seed, so identical (config, seed) gives an identical event
trace and identical metrics.

Events wait on one heap of (fire_time, seq, fn) tuples; seq is unique and
increasing, so ties in time fire in scheduling order and two callbacks are
never compared. Nothing takes an event off the heap: a callback that may
have been superseded checks that itself when it runs, and returns. Each fn
is plain data: a bound method of the run's own objects, or a
functools.partial of one, or of a module-level function, over them; never a
closure or a lambda. So a running Simulator deep-copies and pickles, and the
copy and the original each run on to the trace of an unforked run.

Transmissions due at the same instant share one "deliver" event while
nothing else is scheduled between them: each hands its message to its
receivers in order. A route request first drops, once per transmission, the
receivers that its flood has already reached; a HELLO goes to every
receiver still alive, whose handle_message passes it straight to on_hello.
Had each transmission been its own event, it would have taken the very
next seq, right behind the batch, so the handling order is the same (see
_schedule_delivery).

Between two invalidate_neighbors() calls the topology is fixed, and the
first neighbour query builds every node's receivers at once, from a fresh
uniform grid that tests each pair of alive nodes once. Nothing is kept from
one topology to the next, except across a death: no position changes then,
so mark_dead edits the held table in place instead of discarding it. A dead
node is not binned; its query returns (), as its radio reaches no one.

Every next hop given to unicast is a node of the run: routes, replies and
repairs are built only from the ids of the run's nodes
(tests/test_invariants.py checks it on every call).
"""

from __future__ import annotations

import heapq
import math
import random
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .config import ScenarioConfig
from .geometry import distance
from .messages import RouteRequest
from .metrics import RunMetrics

ROLE_UNDECIDED = "undecided"
ROLE_HEAD = "head"
ROLE_MEMBER = "member"
ROLE_DEAD = "dead"


class RngStreams:
    """Named, independently seeded sub-streams of one run seed."""

    NAMES = ("placement", "waypoints", "traffic")

    def __init__(self, seed: int):
        for name in self.NAMES:
            setattr(self, name, random.Random(f"{seed}:{name}"))


class Simulator:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        # The transmissions of the newest "deliver" event, and when it is due;
        # None once anything else was scheduled after it, or once it fired.
        self._batch: Optional[List[Tuple[int, Sequence[int], object]]] = None
        self._batch_time = 0.0
        self.rng = RngStreams(config.seed)
        self.nodes: Dict[int, "object"] = {}  # id -> Node, filled by the scenario builder
        self.metrics = RunMetrics()
        self._outstanding: Set[int] = set()
        # Opt-in record stream: set to [] before running to collect
        # (time, kind, *fields) tuples; None records nothing.
        self.trace: Optional[List[tuple]] = None
        # node id -> its alive_in_range result; filled for every node at
        # once by the first query after invalidate_neighbors(), and edited
        # by mark_dead.
        self._nbr_cache: Dict[int, Tuple[int, ...]] = {}
        # Cells a hair wider than the radio range, so that any pair the range
        # test accepts is at most one cell apart on each axis. Exactly
        # tx_range_m would not do: at 64 m the rounded difference
        # 128 - 63.99999999999999 is 64.0, yet the two are two cells apart.
        self._cell_m = config.tx_range_m * (1.0 + 1e-9)

    # -- event queue -------------------------------------------------------

    def schedule(self, fire_time: float, kind: str, fn: Callable[[], None]) -> None:
        self._batch = None   # a later transmission must not join an earlier batch
        if not fire_time >= self.now:   # before now, or NaN, which compares false
            raise ValueError(f"cannot schedule {kind!r} at {fire_time}: "
                             f"not at or after now={self.now}")
        heapq.heappush(self._queue, (fire_time, self._seq, fn))
        self._seq += 1

    def run_until(self, t_end: float) -> RunMetrics:
        """Run every event due at or before t_end, in (fire time, scheduling
        order), then set the clock to t_end if it is behind. No event is due
        before now, so nothing runs when now is already past t_end."""
        queue, pop = self._queue, heapq.heappop
        while queue and queue[0][0] <= t_end:
            self.now, _, fn = pop(queue)
            fn()
        self.now = max(self.now, t_end)
        return self.metrics

    # -- trace stream ------------------------------------------------------

    def record(self, kind: str, *fields) -> None:
        if self.trace is not None:
            self.trace.append((self.now, kind, *fields))

    def records(self, kind: str) -> List[tuple]:
        """(time, *fields) of every record of one kind, in order."""
        if self.trace is None:
            raise RuntimeError("trace stream is off: set sim.trace = [] before running")
        return [(t, *fields) for t, k, *fields in self.trace if k == kind]

    # -- radio -------------------------------------------------------------

    def invalidate_neighbors(self) -> None:
        """Forget the neighbour table; call after an alive node moves or a
        node joins. A death needs no call: mark_dead edits the table."""
        self._nbr_cache = {}

    def alive_in_range(self, node_id: int) -> Tuple[int, ...]:
        """Alive nodes within radio range of node_id (excluding itself), in
        self.nodes order; () if node_id is dead."""
        try:
            return self._nbr_cache[node_id]
        except KeyError:
            self._nbr_cache = self._neighbor_table()
            return self._nbr_cache[node_id]

    def _neighbor_table(self) -> Dict[int, Tuple[int, ...]]:
        """Every node's alive_in_range result, from a fresh uniform grid
        (ns-2's GridKeeper idea). The alive nodes are binned by cell, and the
        cells are taken one at a time: a cell's nodes are tested against what
        is already binned in the 3x3 block of cells around it and against
        each other, in one candidate list, and binned after it; so each pair
        is tested once. The range test is geometry.distance's,
        hypot(dx, dy) <= tx_range_m, which gives the same answer from either
        end. Each row is then sorted into self.nodes order."""
        cell_m, tx_range, hypot = self._cell_m, self.config.tx_range_m, math.hypot
        ids = list(self.nodes)
        cells: Dict[Tuple[int, int], List[tuple]] = {}   # cell -> (rank, x, y)
        for rank, node in enumerate(self.nodes.values()):
            if node.role != ROLE_DEAD:
                x, y = node.pos.x, node.pos.y
                cells.setdefault((int(x // cell_m), int(y // cell_m)), []).append((rank, x, y))
        found: List[List[int]] = [[] for _ in ids]   # rank -> ranks in range
        grid: Dict[Tuple[int, int], List[tuple]] = {}
        for (cx, cy), entries in cells.items():
            near = []
            for kx in (cx - 1, cx, cx + 1):
                for ky in (cy - 1, cy, cy + 1):
                    near += grid.get((kx, ky), ())
            for entry in entries:
                a, x, y = entry
                for b, bx, by in near:
                    if hypot(x - bx, y - by) <= tx_range:
                        found[a].append(b)
                        found[b].append(a)
                near.append(entry)
            grid[cx, cy] = entries
        table = {}
        for node_id, ranks in zip(ids, found):
            ranks.sort()
            table[node_id] = tuple([ids[b] for b in ranks])
        return table

    def _transmit(self, sender, receivers: Sequence[int], message) -> None:
        """One transmission: charge the sender (a head pays the head cost
        factor), deliver to the receivers, and retire a sender it drained.
        The sender is alive: broadcast and unicast refuse a dead one."""
        energy = sender.energy
        cost = energy.transmit_cost
        if sender.role == ROLE_HEAD:
            cost *= self.config.head_transmit_cost_factor
        drained = energy.charge(cost)
        if receivers:
            self._schedule_delivery(sender.node_id, receivers, message)
        if drained:
            self.mark_dead(sender.node_id)

    def broadcast(self, sender_id: int, message) -> Tuple[int, ...]:
        """Send to every alive node in range; returns those receivers, in
        self.nodes order, or () if the sender is dead."""
        sender = self.nodes[sender_id]
        if sender.role == ROLE_DEAD:
            return ()
        receivers = self.alive_in_range(sender_id)
        self._transmit(sender, receivers, message)
        return receivers

    def unicast(self, sender_id: int, next_hop: int, message) -> bool:
        """True iff the hop is feasible (next hop alive and in range) at send time."""
        sender = self.nodes[sender_id]
        if sender.role == ROLE_DEAD:
            return False
        target = self.nodes[next_hop]
        ok = (target.role != ROLE_DEAD
              and distance(sender.pos, target.pos) <= self.config.tx_range_m)
        self._transmit(sender, (next_hop,) if ok else (), message)
        return ok

    def _schedule_delivery(self, sender_id: int, receivers: Sequence[int], message) -> None:
        """Hand the message to every receiver still alive, in order, at
        now + propagation_delay_s. While nothing else has been scheduled since
        the open batch and the delivery is due when the batch is, it joins
        that batch; otherwise it opens a new one, scheduled as one "deliver"
        event. Every schedule() call, and the batch's own end, closes it.

        As its own event, the delivery would have taken the next seq, and no
        seq has been handed out since the batch opened: due when the batch
        is, it would have fired right after the batch's last member, so the
        handling order is the same. If the batch is firing, the delivery
        would have been the next event, and the batch's loop runs it (a list
        iterator sees an appended item).
        A route request drops each receiver in its flood's `seen` set once,
        before its receiver loop: the one duplicate test of route discovery,
        so handle_rreq only sees a request new to its node. Filtering up front
        is the same as testing each receiver as its turn comes: handle_rreq
        adds only its own node to the set, and a relay's copy is delivered
        after this transmission, so no later receiver of it joins the set
        while the loop runs."""
        fire_time = self.now + self.config.propagation_delay_s
        batch = self._batch
        if batch is not None and self._batch_time == fire_time:
            batch.append((sender_id, receivers, message))
            return
        batch = [(sender_id, receivers, message)]
        self.schedule(fire_time, "deliver", partial(self._deliver, batch))
        self._batch, self._batch_time = batch, fire_time

    def _deliver(self, batch: List[Tuple[int, Sequence[int], object]]) -> None:
        # Every receiver is a node of this run: alive_in_range found it, or
        # it was a unicast's next hop. It may have died since the send.
        nodes = self.nodes
        for sender_id, receivers, message in batch:   # sees what joins while it runs
            if type(message) is RouteRequest:
                seen = message.seen
                receivers = [r for r in receivers if r not in seen]
            for receiver_id in receivers:
                receiver = nodes[receiver_id]
                if receiver.role != ROLE_DEAD:
                    receiver.handle_message(message, sender_id)
        if self._batch is batch:
            self._batch = None

    # -- lifecycle ---------------------------------------------------------

    def mark_dead(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.role == ROLE_DEAD:
            return
        node.on_death()
        # The held table, if any, stays right once the dead id leaves its
        # neighbours' rows (a tuple without one id keeps self.nodes order)
        # and its own row is (); positions have not changed.
        table = self._nbr_cache
        if table:
            for other in table.get(node_id, ()):
                table[other] = tuple([n for n in table[other] if n != node_id])
            table[node_id] = ()

    def force_kill(self, node_id: int, at: float) -> None:
        """Scripted death: energy zeroed and node silenced at the given time."""
        self.schedule(at, "kill", partial(self._kill, node_id))

    def _kill(self, node_id: int) -> None:
        self.nodes[node_id].energy.remaining = 0.0
        self.mark_dead(node_id)

    # -- data-packet accounting (conservation enforced structurally) -------

    def new_packet(self) -> int:
        """Count a new data packet as sent and outstanding; returns its id,
        the number of packets sent before it."""
        pid = self.metrics.packets_sent
        self.metrics.packets_sent += 1
        self._outstanding.add(pid)
        return pid

    def account_delivered(self, packet_id: int) -> None:
        self._outstanding.remove(packet_id)
        self.metrics.packets_delivered += 1

    def account_dropped(self, packet_id: int, cause: str) -> None:
        self._outstanding.remove(packet_id)
        self.metrics.drop(cause)

    @property
    def outstanding_packets(self) -> int:
        return len(self._outstanding)

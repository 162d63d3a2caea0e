"""Event queue ordering, unit-disk radio, energy charging, and packet
accounting in the simulation core."""

import heapq
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cbrsim import ScenarioConfig, run_scenario
from cbrsim.engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, Simulator
from cbrsim.geometry import Position, distance
from cbrsim.mobility import EnergyState
from cbrsim.scenario import build_simulation
from cbrsim.traces import stress_config

from conftest import add_node, bare_sim, static_config


class _Probe:
    """An opaque message. A node has no handler for it, so a test that
    delivers one replaces the receiver's handle_message."""


def test_events_fire_in_time_order():
    sim = bare_sim()
    fired = []
    sim.schedule(5.1, "b", lambda: fired.append("b"))
    sim.schedule(5.0, "a", lambda: fired.append("a"))
    sim.run_until(10.0)
    assert fired == ["a", "b"]


def test_same_time_events_fire_in_insertion_order():
    sim = bare_sim()
    fired = []
    sim.schedule(5.0, "first", lambda: fired.append(1))
    sim.schedule(5.0, "second", lambda: fired.append(2))
    sim.run_until(10.0)
    assert fired == [1, 2]


def test_scheduling_in_the_past_is_rejected():
    sim = bare_sim()
    sim.schedule(4.0, "advance", lambda: None)
    sim.run_until(4.0)
    with pytest.raises(ValueError):
        sim.schedule(3.0, "late", lambda: None)


def test_nan_fire_time_is_rejected_and_the_queue_keeps_its_order():
    # On the heap a NaN would break the order: 2.0, NaN, 1.0, 0.5 used to
    # fire as [1.0, 0.5], and the other two never ran.
    sim = bare_sim()
    fired = []
    for t in (2.0, math.nan, 1.0, 0.5):
        if math.isnan(t):
            with pytest.raises(ValueError, match="nan"):
                sim.schedule(t, "bad", lambda: fired.append("nan"))
        else:
            sim.schedule(t, "ok", lambda t=t: fired.append(t))
    sim.run_until(10.0)
    assert fired == [0.5, 1.0, 2.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_event_queue_is_stable_sorted(times):
    sim = bare_sim()
    fired = []
    for i, t in enumerate(times):
        sim.schedule(t, "e", (lambda i=i, t=t: fired.append((t, i))))
    sim.run_until(1e7)
    assert fired == sorted(fired)  # time-major, insertion-order within ties


class _HeapModel:
    """The reference queue: one heap of (time, seq) entries, run in order."""

    def __init__(self):
        self.now, self._heap, self._seq = 0.0, [], 0

    def schedule(self, fire_time, fn):
        heapq.heappush(self._heap, (fire_time, self._seq, fn))
        self._seq += 1

    def run_until(self, t_end):
        while self._heap and self._heap[0][0] <= t_end:
            self.now, _, fn = heapq.heappop(self._heap)
            fn()
        self.now = max(self.now, t_end)


class _SimQueue:
    """The simulator's queue behind the model's interface."""

    def __init__(self):
        self.sim = bare_sim()

    @property
    def now(self):
        return self.sim.now

    def schedule(self, fire_time, fn):
        self.sim.schedule(fire_time, "e", fn)

    def run_until(self, t_end):
        self.sim.run_until(t_end)


_MAX_EVENTS = 80
# A child event: when it is due ("now", "later" by k half-seconds, or an
# already "used" time not before now) and a number k that picks which.
_CHILD = st.tuples(st.sampled_from(("now", "later", "used")), st.integers(0, 20))
# Per event, in creation order: the children it schedules when it fires, and
# the creation index (mod the count so far) of an event it then cancels:
# that event returns without a trace when it runs, as a superseded timer does.
_PROGRAM = st.lists(st.tuples(st.lists(_CHILD, max_size=3),
                              st.none() | st.integers(0, _MAX_EVENTS)), max_size=40)
# Per run_until step: root events scheduled before it, and how many
# half-seconds t_end lies past now (negative: before now, so nothing runs).
# All times are multiples of 0.5, so t_end often equals an event time.
_STEPS = st.lists(st.tuples(st.lists(_CHILD, max_size=3), st.integers(-2, 6)),
                  min_size=1, max_size=5)


def _play(queue, program, steps):
    """Run the program on the queue; returns (creation index, time) of each
    event that was not cancelled, in firing order."""
    fired, cancelled, used = [], [], [0.0]   # cancelled: a flag per event

    def spawn(when, k):
        ident = len(cancelled)
        if ident >= _MAX_EVENTS:
            return
        now = queue.now
        if when == "now":
            fire_time = now
        elif when == "later":
            fire_time = now + 0.5 * (1 + k % 3)
        else:
            ahead = [t for t in used if t >= now] or [now]
            fire_time = ahead[k % len(ahead)]
        used.append(fire_time)

        def fire():
            if cancelled[ident]:
                return
            fired.append((ident, queue.now))
            children, cancel = program[ident] if ident < len(program) else ((), None)
            for child in children:
                spawn(*child)
            if cancel is not None:
                cancelled[cancel % len(cancelled)] = True
        cancelled.append(False)
        queue.schedule(fire_time, fire)

    for roots, advance in steps:
        for root in roots:
            spawn(*root)
        queue.run_until(queue.now + 0.5 * advance)
    return fired


@settings(max_examples=300, deadline=None)
@given(_PROGRAM, _STEPS)
def test_event_order_matches_a_time_seq_heap(program, steps):
    assert _play(_SimQueue(), program, steps) == _play(_HeapModel(), program, steps)


def test_broadcast_reaches_only_nodes_within_range():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 50.0, 0.0)
    add_node(sim, 2, 100.0, 0.0)
    assert sim.broadcast(0, _Probe()) == (1,)


def test_range_boundary_is_inclusive():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 80.0, 0.0)
    assert sim.broadcast(0, _Probe()) == (1,)


def test_in_range_boundary_inclusive():
    # The neighbour query and unicast share one range test: a node exactly
    # tx_range_m (80 m) away is reachable, one a millimetre further is not.
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 80.0, 0.0)
    add_node(sim, 2, -80.001, 0.0)
    assert sim.alive_in_range(0) == (1,)
    assert sim.unicast(0, 1, _Probe()) is True
    assert sim.unicast(0, 2, _Probe()) is False


def test_unknown_message_type_fails_loudly():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 40.0, 0.0)
    sim.broadcast(0, _Probe())
    with pytest.raises(TypeError, match="_Probe"):
        sim.run_until(0.0)


def test_lone_broadcast_still_costs_energy():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    before = node.energy.remaining
    assert sim.broadcast(0, _Probe()) == ()
    assert node.energy.remaining == before - sim.config.transmit_cost


def test_head_pays_cost_factor_per_broadcast_member_pays_one():
    sim = bare_sim(head_transmit_cost_factor=8.0)
    head = add_node(sim, 0, 0.0, 0.0)
    member = add_node(sim, 1, 200.0, 0.0)
    head.role = ROLE_HEAD
    member.role = ROLE_MEMBER
    sim.broadcast(0, _Probe())
    sim.broadcast(1, _Probe())
    assert head.energy.consumed() == 8.0
    assert member.energy.consumed() == 1.0


def test_dead_sender_transmits_nothing(monkeypatch):
    sim = bare_sim()
    sender = add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 10.0, 0.0)
    sim.force_kill(0, 0.0)
    sim.run_until(0.0)
    charged = []
    monkeypatch.setattr(EnergyState, "charge", lambda energy, cost: charged.append(cost))
    assert sim.broadcast(0, _Probe()) == ()
    assert sim.unicast(0, 1, _Probe()) is False
    assert charged == [] and sender.energy.remaining == 0.0
    assert sim._queue == []   # no deliver event


def test_final_transmission_delivers_then_kills_sender():
    sim = bare_sim()
    sender = add_node(sim, 0, 0.0, 0.0, energy=1.0)  # exactly one transmit-cost
    receiver = add_node(sim, 1, 10.0, 0.0)
    received = []
    receiver.handle_message = lambda msg, sid: received.append(sid)
    assert sim.broadcast(0, _Probe()) == (1,)
    assert sender.energy.remaining == 0.0
    assert sender.role == ROLE_DEAD
    sim.run_until(0.0)
    assert received == [0]


def test_unicast_in_range_alive_delivers():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    receiver = add_node(sim, 1, 40.0, 0.0)
    received = []
    receiver.handle_message = lambda msg, sid: received.append(sid)
    assert sim.unicast(0, 1, _Probe()) is True
    sim.run_until(0.0)
    assert received == [0]


def test_unicast_beyond_range_is_link_failure():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 81.0, 0.0)  # just past the 80 m boundary
    assert sim.unicast(0, 1, _Probe()) is False


def test_unicast_to_dead_node_is_link_failure():
    sim = bare_sim()
    sender = add_node(sim, 0, 0.0, 0.0)
    target = add_node(sim, 1, 40.0, 0.0)
    target.role = ROLE_DEAD
    before = sender.energy.remaining
    assert sim.unicast(0, 1, _Probe()) is False
    assert sender.energy.remaining == before - sim.config.transmit_cost


# -- delivery order ---------------------------------------------------------

def _log_deliveries(sim, log):
    """Make every node append (receiver, message, sender, time) to log."""
    for nid, node in sim.nodes.items():
        node.handle_message = (lambda msg, sid, nid=nid:
                               log.append((nid, msg, sid, sim.now)))


def test_rebroadcast_at_zero_delay_waits_for_the_whole_first_batch():
    sim = bare_sim(propagation_delay_s=0.0)
    for nid, x in ((0, 0.0), (1, 30.0), (2, 60.0), (3, 90.0)):
        add_node(sim, nid, x, 0.0)
    log = []
    _log_deliveries(sim, log)

    def relay(msg, sid):
        log.append((1, msg, sid, sim.now))
        sim.broadcast(1, "echo")
    sim.nodes[1].handle_message = relay
    sim.broadcast(0, "first")
    sim.run_until(0.0)
    assert [(rid, msg, sid) for rid, msg, sid, _t in log] == [
        (1, "first", 0), (2, "first", 0),                   # the whole first batch
        (0, "echo", 1), (2, "echo", 1), (3, "echo", 1)]     # then the relay's


def test_receiver_killed_earlier_in_the_same_batch_gets_nothing():
    sim = bare_sim()
    for nid, x in ((0, 0.0), (1, 30.0), (2, 60.0)):
        add_node(sim, nid, x, 0.0)
    log = []
    _log_deliveries(sim, log)

    def kill_next(msg, sid):
        log.append((1, msg, sid, sim.now))
        sim.mark_dead(2)
    sim.nodes[1].handle_message = kill_next
    assert sim.broadcast(0, "probe") == (1, 2)
    sim.run_until(0.0)
    assert [rid for rid, *_ in log] == [1]


def test_positive_propagation_delay_delivers_at_now_plus_delay():
    sim = bare_sim(propagation_delay_s=0.25)
    for nid, x in ((0, 0.0), (1, 30.0), (2, 60.0)):
        add_node(sim, nid, x, 0.0)
    log = []
    _log_deliveries(sim, log)
    sim.run_until(1.0)
    sim.broadcast(0, "flood")
    assert sim.unicast(0, 2, "hop") is True
    sim.run_until(1.2)
    assert log == []
    sim.run_until(2.0)
    assert log == [(1, "flood", 0, 1.25), (2, "flood", 0, 1.25), (2, "hop", 0, 1.25)]


# -- neighbour query ---------------------------------------------------------

def _brute_force_in_range(sim, node_id):
    """The reference scan: every other alive node, in self.nodes order, that
    geometry.distance puts within radio range; nothing for a dead node."""
    me = sim.nodes[node_id]
    if not me.alive:
        return ()
    return tuple(other_id for other_id, other in sim.nodes.items()
                 if other_id != node_id and other.alive
                 and distance(me.pos, other.pos) <= sim.config.tx_range_m)


def _assert_query_matches_brute_force(sim, order=None):
    """Query every node, in `order` if given, and compare with the scan."""
    expected = {nid: _brute_force_in_range(sim, nid) for nid in sim.nodes}
    order = sim.nodes if order is None else order
    assert {nid: sim.alive_in_range(nid) for nid in order} == expected


@pytest.mark.parametrize("tx_range, a, b", [
    (80.0, (0.0, 0.0), (80.0, 0.0)),                  # exactly in range, on a cell edge
    (80.0, (79.9, 0.0), (159.9, 0.0)),                # exactly in range, across an edge
    (80.0, (80.0, 80.0), (160.0, 160.0)),             # cell corners, out of range
    (80.0, (80.0, 80.0), (128.0, 144.0)),             # corner to a point exactly 80 away
    (80.0, (0.0, 0.0), (math.nextafter(80.0, 100.0), 0.0)),   # one ulp out
    # The coordinate difference rounds down to exactly the range although
    # the two points are two range-widths of cells apart.
    (64.0, (math.nextafter(64.0, 0.0), 0.0), (128.0, 0.0)),
])
def test_grid_query_matches_brute_force_at_cell_edges(tx_range, a, b):
    sim = bare_sim(tx_range_m=tx_range)
    add_node(sim, 0, *a)
    add_node(sim, 1, *b)
    add_node(sim, 2, 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    _assert_query_matches_brute_force(sim)


# Offsets that put a coordinate on, or within a rounding error of, a
# multiple of the range (cell edges and corners) or of a partner's position.
_NUDGES = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6)


def _coordinate(tx_range):
    on_edge = st.builds(lambda k, nudge: k * tx_range + nudge,
                        st.integers(-1, 5), st.sampled_from(_NUDGES))
    return st.one_of(st.floats(-tx_range, 5 * tx_range), on_edge)


def _draw_point(data, tx_range, placed):
    """A free point, or one about a range away from an already placed one."""
    coord = _coordinate(tx_range)
    if placed and data.draw(st.booleans()):
        px, py = data.draw(st.sampled_from(placed))
        dx, dy = data.draw(st.sampled_from(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                                            (0.6, 0.8), (-0.8, 0.6), (0.6, -0.8))))
        nudge = data.draw(st.sampled_from(_NUDGES))
        return px + dx * tx_range + nudge, py + dy * tx_range
    return data.draw(coord), data.draw(coord)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grid_query_equals_brute_force_scan(data):
    tx_range = data.draw(st.sampled_from((80.0, 64.0, 0.3)))
    sim = bare_sim(tx_range_m=tx_range)
    ids = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=30, unique=True))
    placed = []
    for nid in ids:   # ids in random order: results follow insertion order
        placed.append(_draw_point(data, tx_range, placed))
        add_node(sim, nid, *placed[-1])
    for nid in data.draw(st.lists(st.sampled_from(ids), max_size=len(ids) // 2)):
        sim.mark_dead(nid)
    # Dead nodes are queried too; the order of the queries does not matter.
    _assert_query_matches_brute_force(sim, data.draw(st.permutations(ids)))

    moved = data.draw(st.sampled_from(ids))
    sim.nodes[moved].pos = Position(*_draw_point(data, tx_range, placed))
    add_node(sim, 1000, *_draw_point(data, tx_range, placed))
    sim.invalidate_neighbors()
    _assert_query_matches_brute_force(sim)

    # A death between two queries of one topology: the later queries, the
    # victim's own included, no longer see the victim.
    sim.invalidate_neighbors()
    sim.alive_in_range(data.draw(st.sampled_from(ids)))
    sim.mark_dead(data.draw(st.sampled_from(ids)))
    _assert_query_matches_brute_force(sim, data.draw(st.permutations(list(sim.nodes))))


def _moved_count(data, alive):
    """How many of the alive nodes move in one epoch: none, one, a few,
    most or all of them."""
    n = len(alive)
    return data.draw(st.sampled_from((0, min(1, n), max(1, n // 5), n - n // 5, n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_neighbour_tables_of_successive_epochs_equal_brute_force_scan(data):
    tx_range = data.draw(st.sampled_from((80.0, 64.0, 0.3)))
    sim = bare_sim(tx_range_m=tx_range)
    ids = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=30, unique=True))
    placed = []
    for nid in ids:
        placed.append(_draw_point(data, tx_range, placed))
        add_node(sim, nid, *placed[-1])
    joined = 1000
    for _epoch in range(data.draw(st.integers(1, 6))):
        alive = [nid for nid, node in sim.nodes.items() if node.alive]
        for nid in data.draw(st.permutations(alive))[:_moved_count(data, alive)]:
            node = sim.nodes[nid]
            if data.draw(st.booleans()):
                placed.append(_draw_point(data, tx_range, placed))
                node.pos = Position(*placed[-1])
            else:   # a new Position object at the same coordinates
                node.pos = Position(node.pos.x, node.pos.y)
        sim.invalidate_neighbors()
        some = data.draw(st.lists(st.sampled_from(list(sim.nodes)), max_size=3))
        assert [sim.alive_in_range(nid) for nid in some] == [
            _brute_force_in_range(sim, nid) for nid in some]
        for nid in data.draw(st.lists(st.sampled_from(list(sim.nodes)), max_size=3)):
            sim.mark_dead(nid)
        if data.draw(st.booleans()):
            placed.append(_draw_point(data, tx_range, placed))
            add_node(sim, joined, *placed[-1])
            joined += 1
            sim.invalidate_neighbors()
        _assert_query_matches_brute_force(sim, data.draw(st.permutations(list(sim.nodes))))


def test_every_query_of_whole_runs_equals_brute_force_scan(monkeypatch):
    # Whole runs with static stretches (every alive node paused), partial
    # motion, and deaths: every answer, against the scan at query time.
    query = Simulator.alive_in_range
    wrong = []
    seen = Counter()

    def checked(sim, node_id):
        got = query(sim, node_id)
        if got != _brute_force_in_range(sim, node_id):
            wrong.append((sim.config.protocol_mode, sim.now, node_id))
        alive = [node for node in sim.nodes.values() if node.alive]
        moving = sum(node.mobility.pause_remaining == 0.0 for node in alive)
        seen["static" if moving == 0 else "partial" if moving < len(alive) else "all"] += 1
        seen["after a death"] += len(alive) < len(sim.nodes)
        return got
    monkeypatch.setattr(Simulator, "alive_in_range", checked)
    for config in (ScenarioConfig(node_count=30, duration_s=120.0),
                   stress_config("cbrp", 1), stress_config("ecbrp", 1)):
        build_simulation(config).run_until(config.duration_s)
    assert not wrong, wrong[:5]
    assert min(seen[kind] for kind in ("static", "partial", "all", "after a death")) > 0, seen


def test_one_sweep_serves_every_query_until_the_next_invalidation():
    sim = bare_sim()
    for nid, x in ((0, 0.0), (1, 50.0), (2, 100.0), (3, 30.0)):
        add_node(sim, nid, x, 0.0)
    sweeps = []
    sweep = sim._neighbor_table
    sim._neighbor_table = lambda: sweeps.append(sim.now) or sweep()
    sim.invalidate_neighbors()
    assert [sim.alive_in_range(nid) for nid in sim.nodes] == [
        (1, 3), (0, 2, 3), (1, 3), (0, 1, 2)]
    assert len(sweeps) == 1
    sim.mark_dead(1)   # edits the held table; the dead node's own query returns ()
    assert [sim.alive_in_range(nid) for nid in (2, 1, 0, 3)] == [(3,), (), (3,), (0, 2)]
    assert len(sweeps) == 1   # a death builds no table
    assert sim._nbr_cache == sweep()   # the edited rows are a fresh build's
    sim.invalidate_neighbors()
    assert sim.alive_in_range(3) == (0, 2)
    assert len(sweeps) == 2


def test_a_tick_that_moves_no_alive_node_builds_no_table():
    # A mobility tick each second, then a HELLO round that queries every
    # alive node: a table is built only after a tick that moved an alive node.
    config = static_config(node_count=4, node_speed_mps=5.0, pause_time_s=1000.0)
    sim = build_simulation(config, positions={nid: Position(50.0 * nid, 0.0)
                                              for nid in range(4)}, flow_pairs=[])
    for node in sim.nodes.values():
        node.mobility.pause_remaining = 1000.0
    builds = []
    build = sim._neighbor_table
    sim._neighbor_table = lambda: builds.append(sim.now) or build()
    sim.run_until(4.5)
    assert builds == [0.0]   # every node paused: ticks 1-4 build nothing

    sim.mark_dead(3)   # edits the held table: no build
    assert sim._nbr_cache == build()   # the edited rows are a fresh build's
    walker = sim.nodes[3]
    walker.mobility.pause_remaining, walker.mobility.waypoint = 0.0, Position(400.0, 400.0)
    start = walker.pos
    sim.run_until(8.5)
    assert walker.pos != start
    assert builds == [0.0]   # only the dead node moves at 5-8

    sim.nodes[0].mobility.pause_remaining = 0.0
    sim.nodes[0].mobility.waypoint = Position(0.0, 400.0)
    sim.run_until(9.5)
    assert builds == [0.0, 9.0]


def test_empty_simulation_yields_zero_metrics():
    sim = bare_sim()
    metrics = sim.run_until(10.0)
    assert metrics.packets_sent == 0
    assert metrics.packets_delivered == 0
    assert metrics.total_dropped == 0
    assert sim.now == 10.0


def test_run_until_zero_processes_only_initialization():
    config = static_config(node_count=5, flows=None)
    sim = build_simulation(config)
    sim.run_until(0.0)
    assert sim.now == 0.0
    assert sim.metrics.packets_sent == 0  # traffic starts later


def test_same_seed_gives_identical_metrics():
    config = ScenarioConfig(node_count=10, duration_s=30.0, seed=11)
    assert run_scenario(config) == run_scenario(config)


def test_packet_accounting_balances():
    sim = bare_sim()
    a, b, c = sim.new_packet(), sim.new_packet(), sim.new_packet()
    sim.account_delivered(a)
    sim.account_dropped(b, "no-route")
    m = sim.metrics
    assert (m.packets_sent, m.packets_delivered, m.total_dropped) == (3, 1, 1)
    assert m.in_flight == 1 == sim.outstanding_packets


def test_packet_ids_are_unique():
    sim = bare_sim()
    assert [sim.new_packet() for _ in range(3)] == [0, 1, 2]


def test_unknown_drop_cause_rejected():
    sim = bare_sim()
    pid = sim.new_packet()
    with pytest.raises(KeyError):
        sim.account_dropped(pid, "gremlins")


# -- trace stream -----------------------------------------------------------

def test_trace_stream_is_off_by_default():
    sim = build_simulation(static_config(node_count=3))
    assert sim.trace is None
    sim.run_until(5.0)
    assert sim.trace is None


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_stream_off_makes_no_record_call(mode, monkeypatch):
    # Every record site is guarded by `sim.trace is not None`, so a run with
    # the stream off never calls record, not even to have it return at once.
    calls = {False: 0, True: 0}   # stream on? -> record calls
    record = Simulator.record

    def spy(sim, kind, *fields):
        calls[sim.trace is not None] += 1
        record(sim, kind, *fields)
    monkeypatch.setattr(Simulator, "record", spy)
    config = ScenarioConfig(node_count=30, duration_s=60.0, seed=1, protocol_mode=mode)
    assert run_scenario(config).packets_delivered > 0
    assert calls == {False: 0, True: 0}
    sim = build_simulation(config)
    sim.trace = []
    sim.run_until(config.duration_s)
    assert calls == {False: 0, True: len(sim.trace)}
    assert {kind for _t, kind, *_ in sim.trace} == {"hop", "path", "election", "join"}


def test_records_raises_when_stream_is_off():
    sim = Simulator(static_config())
    with pytest.raises(RuntimeError):
        sim.records("hop")


def test_records_select_one_kind_with_its_time():
    sim = bare_sim()
    sim.record("join", 3, 1, 2.5)
    sim.schedule(1.5, "later", lambda: sim.record("hop", 7, 3, 1))
    sim.run_until(2.0)
    assert sim.trace == [(0.0, "join", 3, 1, 2.5), (1.5, "hop", 7, 3, 1)]
    assert sim.records("hop") == [(1.5, 7, 3, 1)]
    assert sim.records("election") == []

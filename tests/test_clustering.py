"""Cluster formation: elections, joins, head contention, secondary heads,
failover, and neighbor-table maintenance."""

import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from cbrsim import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, ScenarioConfig
from cbrsim.engine import Simulator
from cbrsim.geometry import Position
from cbrsim.messages import Hello, SecondaryAnnounce
from cbrsim.node import Node, _entry_rank, _rank
from cbrsim.scenario import build_simulation
from cbrsim.traces import stress_config

from conftest import add_neighbor, add_node, bare_sim, static_config, static_sim


def head_hello(sender_id, weight, x=10.0, y=0.0, secondary=None, heard_at=0.0):
    return Hello(sender_id, ROLE_HEAD, Position(x, y), weight, sender_id, secondary, (),
                 heard_at=heard_at)


# -- startup ----------------------------------------------------------------

def test_startup_hello_reaches_neighbors_immediately():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    sim.run_until(0.0)
    assert 1 in sim.nodes[0].neighbors
    assert 0 in sim.nodes[1].neighbors


def test_dead_at_start_node_sends_no_hello():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    sim.nodes[1].energy.remaining = 0.0
    sim.nodes[1].role = "dead"
    sim.run_until(5.0)
    assert 1 not in sim.nodes[0].neighbors


def test_hello_refreshes_existing_entry_without_role_change():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    sim.run_until(4.0)   # formation settled
    first = sim.nodes[0].neighbors[1].heard_at
    role = sim.nodes[0].role
    sim.run_until(5.0)
    assert sim.nodes[0].neighbors[1].heard_at > first
    assert sim.nodes[0].role == role


def test_table_entry_is_the_received_hello():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    first = head_hello(2, 1.0)
    node.on_hello(first, 2)
    assert node.neighbors[2] is first
    assert node.neighbors[2].heard_at == 0.0
    sim.run_until(1.5)
    again = head_hello(2, 1.0, heard_at=1.5)
    node.on_hello(again, 2)
    assert node.neighbors[2] is again
    assert node.neighbors[2].heard_at == 1.5


def test_every_receiver_keeps_the_one_broadcast_hello():
    sim = static_sim({0: (0, 0), 1: (40, 0), 2: (0, 40)})
    sim.run_until(0.0)
    assert sim.nodes[1].neighbors[0] is sim.nodes[2].neighbors[0]


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_dispatch_hands_each_hello_to_the_nodes_own_on_hello(mode, monkeypatch):
    # handle_message looks on_hello up on the node, so a method patched on
    # one instance receives every HELLO dispatched to that node, and only those.
    dispatched, handled = [], []
    handle_message = Node.handle_message

    def dispatch_spy(node, message, sender_id):
        if node.node_id == 0 and type(message) is Hello:
            dispatched.append((node.sim.now, message, sender_id))
        handle_message(node, message, sender_id)
    monkeypatch.setattr(Node, "handle_message", dispatch_spy)
    config = ScenarioConfig(node_count=40, duration_s=6.0, seed=1, protocol_mode=mode)
    sim = build_simulation(config)
    watched = sim.nodes[0]
    on_hello = watched.on_hello

    def instance_spy(hello, sender_id):
        handled.append((watched.sim.now, hello, sender_id))
        on_hello(hello, sender_id)
    watched.on_hello = instance_spy
    sim.run_until(config.duration_s)
    assert len(handled) > 0
    assert handled == dispatched
    assert all(h is d for (_, h, _), (_, d, _) in zip(handled, dispatched))


# -- the HELLO round --------------------------------------------------------

@pytest.mark.parametrize("n", [5, 12])
def test_one_startup_event_and_one_hello_event_per_interval(n, monkeypatch):
    scheduled = []
    schedule = Simulator.schedule

    def spy(sim, fire_time, kind, fn):
        scheduled.append((kind, fire_time))
        return schedule(sim, fire_time, kind, fn)
    monkeypatch.setattr(Simulator, "schedule", spy)
    config = ScenarioConfig(node_count=n, duration_s=10.0, seed=1, hello_interval_s=0.5,
                            initial_energy=1e9)
    build_simulation(config).run_until(config.duration_s)
    assert [t for kind, t in scheduled if kind == "startup"] == [0.0]
    # Due at 0.5, 1.0, ..., 10.0 s; nothing is armed past the end of the run.
    assert [t for kind, t in scheduled if kind == "hello"] == [k / 2 for k in range(1, 21)]


def spy_on_hellos(monkeypatch, log):
    """Append (now, "hello", node id) to log for each HELLO an alive node sends."""
    send_hello = Node.send_hello

    def spy(node):
        if node.role != ROLE_DEAD:
            log.append((node.sim.now, "hello", node.node_id))
        send_hello(node)
    monkeypatch.setattr(Node, "send_hello", spy)


def test_a_kill_scheduled_after_build_comes_before_the_first_round(monkeypatch):
    # The caller's kill was scheduled before the startup event armed the round,
    # so it fires first, as it did before each node's own HELLO timer.
    sent = []
    spy_on_hellos(monkeypatch, sent)
    config = ScenarioConfig(node_count=6, duration_s=3.0, seed=1, initial_energy=1e9)
    sim = build_simulation(config)
    sim.force_kill(3, config.hello_interval_s)
    sim.run_until(config.duration_s)
    assert {i for t, _, i in sent if t == config.hello_interval_s} == set(sim.nodes) - {3}
    assert [t for t, _, i in sent if i == 3] == [0.0]


def test_round_sends_every_hello_before_a_tied_undecided_timeout(monkeypatch):
    # With undecided_timer_intervals == 1 the undecided timers armed at startup
    # are due with the first round. Per-node HELLO timers alternated with them
    # (h0, u0, h1, u1, ...); the round sends all its HELLOs first. This is one
    # of the two exact ties in which the round changes the trace.
    log = []
    spy_on_hellos(monkeypatch, log)
    on_undecided_timeout = Node.on_undecided_timeout

    def spy(node):
        log.append((node.sim.now, "timeout", node.node_id))
        on_undecided_timeout(node)
    monkeypatch.setattr(Node, "on_undecided_timeout", spy)
    config = ScenarioConfig(node_count=8, duration_s=2.0, seed=1, initial_energy=1e9,
                            undecided_timer_intervals=1.0)
    sim = build_simulation(config)
    sim.run_until(config.hello_interval_s)
    at_round = [(what, i) for t, what, i in log if t == config.hello_interval_s]
    first_timeout = [what for what, _ in at_round].index("timeout")
    assert at_round[:first_timeout] == [("hello", i) for i in sim.nodes]


def test_every_startup_hello_is_delivered_before_a_tied_undecided_timeout(monkeypatch):
    # With propagation_delay_s == undecided_timer_s() the startup HELLOs are
    # due with the undecided timers armed at startup. Each node once armed
    # its timer right after its first HELLO, so they alternated (d0, u0, d1,
    # u1, ...); the startup event now sends every HELLO first, in one batch.
    log = []
    on_hello, on_undecided_timeout = Node.on_hello, Node.on_undecided_timeout

    def hello_spy(node, hello, sender_id):
        log.append((node.sim.now, "hello", sender_id))
        on_hello(node, hello, sender_id)

    def timeout_spy(node):
        log.append((node.sim.now, "timeout", node.node_id))
        on_undecided_timeout(node)
    monkeypatch.setattr(Node, "on_hello", hello_spy)
    monkeypatch.setattr(Node, "on_undecided_timeout", timeout_spy)
    config = ScenarioConfig(node_count=8, duration_s=3.0, seed=1, initial_energy=1e9,
                            undecided_timer_intervals=2.0, propagation_delay_s=2.0)
    assert config.propagation_delay_s == config.undecided_timer_s()
    sim = build_simulation(config)
    sim.run_until(config.propagation_delay_s)
    at_tie = [(what, i) for t, what, i in log if t == config.propagation_delay_s]
    first_timeout = [what for what, _ in at_tie].index("timeout")
    senders = {i for what, i in at_tie[:first_timeout]}
    assert senders == {i for i in sim.nodes if sim.alive_in_range(i)}
    assert "hello" not in [what for what, _ in at_tie[first_timeout:]]


# -- joining ----------------------------------------------------------------

def test_undecided_joins_lowest_weight_head():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 7, 10, 0, role=ROLE_HEAD, cluster=7, weight=2.0)
    add_neighbor(node, 3, 0, 10, role=ROLE_HEAD, cluster=3, weight=1.0)
    node.on_undecided_timeout()
    assert node.role == ROLE_MEMBER
    assert node.head_id == 3  # the W=1.0 head wins


def test_cbrp_undecided_joins_head_that_replies():
    sim = static_sim({3: (0, 0), 7: (40, 0)}, mode="cbrp")
    sim.run_until(5.0)
    assert sim.nodes[3].role == ROLE_HEAD
    assert sim.nodes[7].role == ROLE_MEMBER
    assert sim.nodes[7].head_id == 3


def test_join_only_considers_in_range_heads():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 5, 300.0, 0.0, role=ROLE_HEAD, cluster=5, weight=1.0)  # stale position
    node.on_undecided_timeout()
    assert node.role != ROLE_MEMBER


# -- election ---------------------------------------------------------------

def test_three_node_weighted_election():
    # Mutually in-range line; the middle node has the smallest distance sum,
    # hence the smallest weight, and must win.
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    assert sim.nodes[7].role == ROLE_HEAD
    assert sim.nodes[5].role == ROLE_MEMBER and sim.nodes[5].head_id == 7
    assert sim.nodes[9].role == ROLE_MEMBER and sim.nodes[9].head_id == 7
    # Next-smallest weight becomes the announced secondary.
    assert sim.nodes[7].secondary == 5
    assert sim.nodes[5].secondary == 5
    assert sim.nodes[9].secondary == 5


def test_equal_weights_break_ties_by_lower_id():
    # Symmetric pair: identical degree and distance sum, so identical weight.
    sim = static_sim({4: (0, 0), 9: (10, 0)})
    sim.run_until(5.0)
    assert sim.nodes[4].role == ROLE_HEAD
    assert sim.nodes[9].role == ROLE_MEMBER and sim.nodes[9].head_id == 4


def test_cbrp_elects_lowest_id():
    sim = static_sim({2: (0, 0), 5: (10, 0), 8: (20, 0)}, mode="cbrp")
    sim.run_until(5.0)
    assert sim.nodes[2].role == ROLE_HEAD
    assert sim.nodes[5].head_id == 2 and sim.nodes[8].head_id == 2


@given(st.lists(st.tuples(st.none() | st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(0, 1000)), unique_by=lambda e: e[1]))
def test_rank_is_weight_then_id_order_and_id_order_without_weights(entries):
    # Weighted entries sort as the plain (weight, id) tuples; with every
    # weight missing (cbrp) the order is id order; a missing weight ranks
    # after every advertised one, 0.0 included.
    weighted = [e for e in entries if e[0] is not None]
    assert sorted(weighted, key=lambda e: _rank(*e)) == sorted(weighted)
    ids = [node_id for _, node_id in entries]
    assert sorted(ids, key=lambda i: _rank(None, i)) == sorted(ids)
    for weight, node_id in weighted:
        assert _rank(weight, node_id) < _rank(None, 0)
    assert _rank(0.0, 9) < _rank(None, 1)


def test_isolated_node_stays_undecided_and_repeats():
    sim = static_sim({0: (0, 0)})
    sim.run_until(10.0)
    node = sim.nodes[0]
    assert node.role == ROLE_UNDECIDED
    # The procedure is re-armed: the node's live timer, the one that carries
    # its newest number, is on the queue, due later.
    due = [t for t, _, fn in sim._queue
           if getattr(fn, "func", None) == node._undecided_timer_due
           and fn.args == (node._undecided_timer,)]
    assert len(due) == 1 and due[0] > sim.now
    assert sim.metrics.cluster_reformations == 0


@pytest.mark.parametrize("supersede", ["re-arm", "join-then-revert"])
def test_a_superseded_undecided_timer_returns_when_due(supersede, monkeypatch):
    # The timer armed at 0 s (due at 2 s) is superseded at 1 s, either
    # directly or by joining a head and going back to undecided. It stays on
    # the queue but returns when due: the timeout runs once, at 3 s.
    calls = []
    on_undecided_timeout = Node.on_undecided_timeout

    def spy(node):
        calls.append(node.sim.now)
        on_undecided_timeout(node)
    monkeypatch.setattr(Node, "on_undecided_timeout", spy)
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    node._restart_undecided_timer()
    sim.schedule(1.0, "advance", lambda: None)
    sim.run_until(1.0)
    if supersede == "re-arm":
        node._restart_undecided_timer()
    else:
        node._join(head_hello(2, 1.0))
        node.revert_undecided()
    assert node.role == ROLE_UNDECIDED
    sim.run_until(3.5)
    assert calls == [1.0 + sim.config.undecided_timer_s()]


def test_election_winner_weight_not_above_contested_weights():
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    assert sim.records("election")
    for _t, _head, weight, contested in sim.records("election"):
        assert all(weight <= w for w in contested)


# -- head contention --------------------------------------------------------

def test_heavier_head_demotes_on_contact():
    sim = bare_sim()
    node = add_node(sim, 4, 0.0, 0.0)
    node.become_head()
    node.last_advertised_weight = 2.5
    node.on_hello(head_hello(9, 1.5), 9)
    assert node.role == ROLE_MEMBER
    assert node.head_id == 9


def test_lighter_head_keeps_headship():
    sim = bare_sim()
    node = add_node(sim, 4, 0.0, 0.0)
    node.become_head()
    node.last_advertised_weight = 1.5
    node.on_hello(head_hello(9, 2.5), 9)
    assert node.role == ROLE_HEAD


def test_contention_tie_resolved_by_lower_id():
    sim = bare_sim()
    low = add_node(sim, 4, 0.0, 0.0)
    low.become_head()
    low.last_advertised_weight = 2.0
    low.on_hello(head_hello(9, 2.0), 9)
    assert low.role == ROLE_HEAD

    high = add_node(sim, 9, 0.0, 0.0)
    high.become_head()
    high.last_advertised_weight = 2.0
    high.on_hello(head_hello(4, 2.0), 4)
    assert high.role == ROLE_MEMBER and high.head_id == 4


def test_orphaned_member_of_demoted_head_reverts_undecided():
    sim = bare_sim()
    node = add_node(sim, 6, 0.0, 0.0)
    node.role = ROLE_MEMBER
    node.head_id = 2
    # The former head reports itself as a member of someone out of our range.
    node.on_hello(Hello(2, ROLE_MEMBER, Position(10, 0), 3.0, 5, None, (), heard_at=0.0), 2)
    assert node.role == ROLE_UNDECIDED
    assert sim.metrics.cluster_reformations == 1


# -- secondary head ---------------------------------------------------------

def test_secondary_is_lowest_weight_member():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head.member_ids = {5, 9}
    add_neighbor(head, 5, 10, 0, cluster=0, weight=2.0)
    add_neighbor(head, 9, 0, 10, cluster=0, weight=3.0)
    head._reelect_secondary()
    assert head.secondary == 5


def test_secondary_tie_resolved_by_lower_id():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head.member_ids = {5, 9}
    add_neighbor(head, 5, 10, 0, cluster=0, weight=2.0)
    add_neighbor(head, 9, 0, 10, cluster=0, weight=2.0)
    head._reelect_secondary()
    assert head.secondary == 5


def test_single_node_cluster_has_no_secondary():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head._reelect_secondary()
    assert head.secondary is None


# -- failover ---------------------------------------------------------------

FAILOVER_SQUARE = {0: (0, 0), 1: (30, 0), 2: (0, 30), 3: (-30, 0)}


def _failover_sim(mode, kill=(0,)):
    sim = static_sim(FAILOVER_SQUARE, mode=mode)
    for node_id in kill:
        sim.force_kill(node_id, 6.0)
    return sim


@pytest.mark.parametrize("config", [
    *(ScenarioConfig(node_count=30, duration_s=60.0, seed=s, mobility_tick_s=0.7)
      for s in (1, 2, 3)),
    *(replace(stress_config("ecbrp", s), mobility_tick_s=0.7) for s in (1, 2, 3))])
def test_secondary_announce_is_rate_limited(config, monkeypatch):
    # Member HELLOs arrive with the HELLO round, so a head's best candidate
    # changes at the first maintenance tick after a round. A 0.7 s tick does
    # not divide the 1 s interval, so two such ticks can fall less than an
    # interval apart, and then the second change waits.
    announced, limited = {}, []
    broadcast, reelect = Simulator.broadcast, Node._reelect_secondary

    def spy_broadcast(sim, sender_id, message):
        if type(message) is SecondaryAnnounce:
            announced.setdefault(sender_id, []).append(sim.now)
        return broadcast(sim, sender_id, message)

    def spy_reelect(head):
        reelect(head)
        candidates = [e for e in head.fresh_neighbors() if e.sender_id in head.member_ids]
        if candidates and min(candidates, key=_entry_rank).sender_id != head.secondary:
            limited.append(head.node_id)
    monkeypatch.setattr(Simulator, "broadcast", spy_broadcast)
    monkeypatch.setattr(Node, "_reelect_secondary", spy_reelect)
    build_simulation(config).run_until(config.duration_s)
    assert limited
    for times in announced.values():
        assert all(b - a >= config.hello_interval_s for a, b in zip(times, times[1:]))


def test_head_death_with_live_secondary_avoids_undecided():
    sim = _failover_sim("ecbrp")
    sim.run_until(5.5)
    assert sim.nodes[0].role == ROLE_HEAD  # sanity: 0 had won the election
    secondary = sim.nodes[0].secondary
    assert secondary == 2                  # smallest distance sum among members
    sim.run_until(15.0)
    assert sim.metrics.cluster_reformations == 0
    assert sim.nodes[2].role == ROLE_HEAD
    for member in (1, 3):
        assert sim.nodes[member].role == ROLE_MEMBER
        assert sim.nodes[member].head_id == 2


def test_head_and_secondary_both_dead_forces_reformation():
    sim = _failover_sim("ecbrp", kill=(0, 2))
    sim.run_until(20.0)
    assert sim.metrics.cluster_reformations >= 2
    # The survivors re-form a cluster among themselves afterwards.
    roles = {sim.nodes[1].role, sim.nodes[3].role}
    assert roles == {ROLE_HEAD, ROLE_MEMBER}


def test_cbrp_head_death_always_reforms():
    sim = _failover_sim("cbrp")
    sim.run_until(20.0)
    assert sim.metrics.cluster_reformations >= 1


# -- table maintenance ------------------------------------------------------

def test_silent_neighbor_expires_after_three_intervals():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    sim.force_kill(1, 5.0)
    sim.run_until(5.0)
    assert 1 in sim.nodes[0].neighbors
    sim.run_until(12.0)   # stale timeout is 3 HELLO intervals
    assert 1 not in sim.nodes[0].neighbors


def test_fresh_tables_pass_maintenance_unchanged():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 1, 10, 0, cluster=5)
    node.table_maintenance()
    assert 1 in node.neighbors


def test_timer_expirations_are_seed_deterministic():
    config = static_config(node_count=12, duration_s=25.0, flows=None,
                          node_speed_mps=20.0)
    a = build_simulation(config)
    a.trace = []
    a.run_until(config.duration_s)
    b = build_simulation(config)
    b.trace = []
    b.run_until(config.duration_s)
    assert a.records("election") and a.records("join")
    assert a.trace == b.trace


def test_no_hello_carries_the_dead_role(monkeypatch):
    # Heads die over and over in the stress regime, yet no neighbour-table
    # entry can hold the dead role: a HELLO copies its sender's live role, and
    # a dead sender broadcasts nothing. A dead neighbour leaves by going stale.
    received = []
    original = Node.on_hello

    def checked(self, hello, sender_id):
        assert hello.sender_role != ROLE_DEAD
        received.append(sender_id)
        original(self, hello, sender_id)

    monkeypatch.setattr(Node, "on_hello", checked)
    config = stress_config("ecbrp", 1)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert received
    assert sum(n.role == ROLE_DEAD for n in sim.nodes.values()) > 0


@pytest.mark.parametrize("config", [
    *(stress_config("cbrp", seed) for seed in (1, 2, 3)),
    ScenarioConfig(protocol_mode="cbrp"),   # default n = 30, with traffic
], ids=["stress-1", "stress-2", "stress-3", "default-30"])
def test_cbrp_advertises_no_weight_and_no_secondary(monkeypatch, config):
    # CBRP elects by id alone and has no secondary head: no HELLO carries a
    # weight or a secondary, no SecondaryAnnounce goes out, so no node ever
    # learns of a secondary, through head deaths and route repairs alike.
    hellos = []
    original = Simulator.broadcast

    def checked(self, sender_id, message):
        assert not isinstance(message, SecondaryAnnounce)
        if isinstance(message, Hello):
            assert message.sender_weight is None
            assert message.secondary_id is None
            hellos.append(sender_id)
        return original(self, sender_id, message)

    monkeypatch.setattr(Simulator, "broadcast", checked)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert hellos
    assert sim.metrics.cluster_reformations > 0 and sim.metrics.packets_sent > 0
    for n in sim.nodes.values():
        assert not n.known_secondaries
        assert n.secondary is None


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hello_advertises_the_senders_cluster_and_secondary(monkeypatch, mode, seed):
    # What a HELLO says of its sender's cluster, through elections, joins,
    # contention and head deaths: a head names itself, a member its head, an
    # undecided node no cluster and no secondary; a head's secondary is one
    # of its members.
    sent = []
    original = Node.build_hello

    def checked(self):
        hello = original(self)
        sent.append((self.role, hello.secondary_id))
        if self.role == ROLE_HEAD:
            assert hello.cluster_id == self.node_id
            assert hello.secondary_id is None or hello.secondary_id in self.member_ids
        elif self.role == ROLE_MEMBER:
            assert self.head_id is not None and hello.cluster_id == self.head_id
        else:
            assert self.role == ROLE_UNDECIDED
            assert hello.cluster_id is None and hello.secondary_id is None
        return hello

    monkeypatch.setattr(Node, "build_hello", checked)
    config = stress_config(mode, seed)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert {ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED} <= {role for role, _ in sent}
    assert sim.metrics.cluster_reformations > 0
    # Only ecbrp designates secondaries, and its heads and members advertise them.
    advertised = {role for role, secondary in sent if secondary is not None}
    assert advertised == ({ROLE_HEAD, ROLE_MEMBER} if mode == "ecbrp" else set())


def _beacon_dense_config(mode):
    """A small beacon-dense run: n = 80 in 400 m, no traffic, 3 s."""
    return ScenarioConfig(
        node_count=80, duration_s=3.0, seed=1, protocol_mode=mode,
        area_width_m=400.0, area_height_m=400.0, tx_range_m=80.0,
        node_speed_mps=20.0, pause_time_s=100.0, mobility_tick_s=1.0,
        hello_interval_s=1.0, initial_energy=600.0, transmit_cost=1.0, flows=0)


def _flood_traffic_config(mode):
    """n = 60 in continuous motion with 20 flows, run long enough that some
    HELLOs are built while the table still holds a stale entry."""
    return ScenarioConfig(
        node_count=60, duration_s=12.0, seed=3, protocol_mode=mode,
        area_width_m=400.0, area_height_m=400.0, tx_range_m=80.0,
        node_speed_mps=20.0, pause_time_s=0.0, mobility_tick_s=1.0,
        hello_interval_s=1.0, initial_energy=1e9, transmit_cost=1.0,
        flows=20, packets_per_second=10.0, traffic_start_s=2.0,
        max_retries=2, rreq_timeout_s=2.0, route_cache=False)


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
@pytest.mark.parametrize("make_config", [_beacon_dense_config, _flood_traffic_config],
                         ids=["beacon-dense", "flood-traffic"])
def test_hello_advertises_exactly_its_fresh_neighbour_ids(monkeypatch, make_config, mode):
    # The ids a HELLO carries are those of the sender's fresh neighbours at
    # the instant it is built, each once, in table order; a stale entry is
    # left out.
    stats = {"calls": 0, "ids": 0, "with_stale": 0}
    original = Node.build_hello

    def checked(self):
        hello = original(self)
        ids = tuple(h.sender_id for h in self.fresh_neighbors())
        assert hello.neighbor_snapshot == ids
        stats["calls"] += 1
        stats["ids"] += len(ids)
        stats["with_stale"] += len(self.neighbors) > len(ids)
        return hello

    monkeypatch.setattr(Node, "build_hello", checked)
    config = make_config(mode)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert stats["calls"] > config.node_count and stats["ids"] > 5 * stats["calls"]
    if make_config is _flood_traffic_config:
        assert stats["with_stale"] > 0 and sim.metrics.packets_sent > 0


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_kept_hellos_hold_their_neighbour_ids_in_a_tuple(mode):
    # The HELLOs receivers keep are most of a dense run's memory. A tuple
    # costs its header and one pointer per id; a hashed set costs several
    # times that, so this fails if one comes back.
    config = _beacon_dense_config(mode)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    kept = [h.neighbor_snapshot for n in sim.nodes.values() for h in n.neighbors.values()]
    assert len(kept) > 5 * config.node_count and sum(map(len, kept)) > 5 * len(kept)
    for snapshot in kept:
        assert type(snapshot) is tuple
        assert sys.getsizeof(snapshot) <= sys.getsizeof(()) + 8 * len(snapshot)

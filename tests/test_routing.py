"""Route discovery, replies, retries, data forwarding, and the two
error-recovery policies."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cbrsim import ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Node, ScenarioConfig, build_simulation
from cbrsim import routing
from cbrsim.messages import RouteReply, RouteRequest

from conftest import (add_neighbor, add_node, assert_conserved, assert_loop_free, bare_sim,
                      hops, recorded_paths, static_sim)


# -- discovery --------------------------------------------------------------

def test_same_cluster_delivery_through_head():
    # 1 and 2 share head 0 but cannot hear each other directly.
    sim = static_sim({0: (0, 0), 1: (-50, 0), 2: (50, 0)}, mode="cbrp",
                     flow_pairs=[(1, 2)], flows=None, duration_s=20.0)
    sim.run_until(20.0)
    assert sim.metrics.packets_delivered == sim.metrics.packets_sent > 0
    route = sim.nodes[1].routing.routes[2]
    assert route == [1, 0, 2]
    assert len(route) <= 3
    assert_conserved(sim)
    assert_loop_free(sim)


def test_partitioned_destination_gives_up_with_no_route():
    sim = static_sim({0: (0, 0), 1: (40, 0), 2: (300, 300)}, mode="cbrp",
                     flow_pairs=[(0, 2)], flows=None, duration_s=30.0)
    sim.run_until(30.0)
    assert sim.metrics.packets_delivered == 0
    assert sim.metrics.dropped["no-route"] > 0
    # The full retry ladder ran: original attempt plus max_retries re-floods.
    source = sim.nodes[0]
    assert {(0, 0, r) for r in range(3)} <= source.routing.seen_rreq
    assert 2 not in source.routing.routes
    assert_conserved(sim)


def test_duplicate_request_suppressed():
    # Two copies of one request reach node 1 in one delivery; the delivery
    # skips the second, as handling the first put node 1 in their shared set.
    sim = bare_sim()
    add_node(sim, 9, 0.0, 0.0)
    add_node(sim, 1, 50.0, 0.0)
    seen = {9}
    for _ in range(2):
        sim.broadcast(9, RouteRequest((9, 0, 0), 5, [9], seen))
    sim.run_until(0.0)
    assert recorded_paths(sim) == [(9, 1)]


@pytest.mark.parametrize("delay", [0.0, 0.002])
@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_duplicate_requests_never_reach_dispatch(mode, delay, monkeypatch):
    # A delivery skips a receiver that its flood has already reached, so
    # handle_message gets each request once per node that did not send it.
    # Asserted at dispatch time, so that a broken duplicate rule fails at its
    # first duplicate instead of letting the flood run without end.
    dispatched, first_receipts = [], set()
    handle_message = Node.handle_message

    def spy(node, message, sender_id):
        if type(message) is RouteRequest:
            pair = (node.node_id, message.request_id)
            assert node.node_id not in message.seen, pair
            assert pair not in first_receipts, pair
            dispatched.append(pair)
            first_receipts.add(pair)
        handle_message(node, message, sender_id)
    monkeypatch.setattr(Node, "handle_message", spy)
    config = ScenarioConfig(node_count=60, duration_s=20.0, seed=1, protocol_mode=mode,
                            initial_energy=1e9, propagation_delay_s=delay)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert len(dispatched) == len(first_receipts) > 100
    assert all(node_id != request_id[0] for node_id, request_id in first_receipts)


@pytest.mark.parametrize("delay", [0.0, 0.002])
@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_one_seen_set_per_flood_holds_its_source_and_the_nodes_it_reached(mode, delay,
                                                                          monkeypatch):
    # Checked as each copy is handled too, so that a broken set fails at once
    # instead of letting the flood run without end.
    floods = {}   # request id -> (the flood's seen set, the nodes that handled it)
    handle_rreq = routing.handle_rreq

    def spy(sim, node, rreq):
        seen, handlers = floods.setdefault(rreq.request_id, (rreq.seen, set()))
        assert rreq.seen is seen   # every copy of the flood shares one set
        handlers.add(node.node_id)
        handle_rreq(sim, node, rreq)
        assert node.node_id in seen
    monkeypatch.setattr(routing, "handle_rreq", spy)
    config = ScenarioConfig(node_count=60, duration_s=20.0, seed=1, protocol_mode=mode,
                            initial_energy=1e9, propagation_delay_s=delay)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    # A node logs its own request ids only.
    for node in sim.nodes.values():
        assert all(source == node.node_id for source, _seq, _retry in node.routing.seen_rreq)
    assert len(floods) > 20
    for request_id, (seen, handlers) in floods.items():
        source = request_id[0]
        assert request_id in sim.nodes[source].routing.seen_rreq
        assert seen == {source} | handlers


def test_head_fanout_reaches_each_adjacent_cluster_via_its_gateway():
    # Line: head 2 -- gateway 4 -- head 0 -- gateway 3 -- head 1.
    sim = static_sim({0: (0, 0), 3: (75, 0), 1: (150, 0), 4: (-75, 0), 2: (-150, 0)},
                     mode="cbrp", flow_pairs=[(0, 1)], flows=None, duration_s=20.0)
    sim.run_until(20.0)
    assert (0, 3, 1) in recorded_paths(sim)     # copy into cluster 1 through gateway 3
    assert (0, 4, 2) in recorded_paths(sim)     # copy into cluster 2 through gateway 4
    assert sim.metrics.packets_delivered > 0
    assert_conserved(sim)
    assert_loop_free(sim)


def test_first_reply_wins():
    sim = bare_sim()
    source = add_node(sim, 0, 0.0, 0.0)
    source.role = ROLE_HEAD
    routing.initiate_discovery(sim, source, 9)
    routing.handle_rrep(sim, source, RouteReply((0, 0, 0), [0, 4, 7, 9], 0))
    assert source.routing.routes[9] == [0, 4, 7, 9]
    # A later, even shorter reply for the same request changes nothing.
    routing.handle_rrep(sim, source, RouteReply((0, 0, 0), [0, 4, 9], 0))
    assert source.routing.routes[9] == [0, 4, 7, 9]


def _answered_discovery():
    """A head source at t = 0 whose discovery of 9 got its reply at once."""
    sim = bare_sim()
    source = add_node(sim, 0, 0.0, 0.0)
    source.role = ROLE_HEAD
    routing.initiate_discovery(sim, source, 9)
    routing.handle_rrep(sim, source, RouteReply((0, 0, 0), [0, 4, 7, 9], 0))
    return sim, source.routing


def test_a_timeout_after_the_reply_does_nothing():
    sim, state = _answered_discovery()
    sim.run_until(sim.config.rreq_timeout_s + 0.5)
    assert state.pending == {}
    assert state.seen_rreq == {(0, 0, 0)}   # no retry was sent
    assert sim.metrics.total_dropped == 0


def test_a_timeout_after_the_reply_leaves_a_newer_discovery_alone():
    sim, state = _answered_discovery()
    sim.run_until(1.0)
    source = sim.nodes[0]
    routing.handle_rerr(sim, source, 9)
    routing.initiate_discovery(sim, source, 9)
    newer = state.pending[9]
    sim.run_until(sim.config.rreq_timeout_s + 0.5)   # past the first timeout only
    assert state.pending == {9: newer}
    assert newer.retry == 0
    assert state.seen_rreq == {(0, 0, 0), (0, 1, 0)}
    assert sim.metrics.total_dropped == 0


def test_a_dead_source_keeps_its_routes_on_a_route_error():
    sim, state = _answered_discovery()
    sim.nodes[0].role = "dead"
    routing.handle_rerr(sim, sim.nodes[0], 9)
    assert state.routes == {9: [0, 4, 7, 9]}


def test_reply_after_give_up_is_ignored():
    sim = static_sim({0: (0, 0), 1: (40, 0), 2: (300, 300)}, mode="cbrp",
                     flow_pairs=[(0, 2)], flows=None, duration_s=30.0)
    sim.run_until(30.0)
    source = sim.nodes[0]
    # The request with seq 0 gave up long ago; its late reply must not stick.
    routing.handle_rrep(sim, source, RouteReply((0, 0, 0), [0, 1, 2], 0))
    assert 2 not in source.routing.routes


def test_undecided_source_defers_discovery_until_clustered():
    sim = static_sim({0: (0, 0), 1: (40, 0)}, mode="cbrp",
                     flow_pairs=[(0, 1)], flows=None, duration_s=20.0,
                     traffic_start_s=0.0)
    # Traffic begins at t=0, before any cluster exists; packets must wait,
    # not vanish.
    sim.run_until(20.0)
    assert sim.metrics.packets_delivered > 0
    assert_conserved(sim)


# -- data plane -------------------------------------------------------------

def test_five_hop_chain_traverses_cursor_in_order():
    positions = {i: (i * 70.0, 0.0) for i in range(6)}
    sim = static_sim(positions, mode="cbrp", flow_pairs=[(0, 5)], flows=None,
                     duration_s=30.0)
    sim.run_until(30.0)
    assert sim.nodes[0].routing.routes[5] == [0, 1, 2, 3, 4, 5]
    assert sim.metrics.packets_delivered > 0
    delivered_hops = {}
    for _t, packet_id, from_id, to_id in sim.records("hop"):
        delivered_hops.setdefault(packet_id, []).append((from_id, to_id))
    full_runs = [h for h in delivered_hops.values()
                 if h == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]]
    assert full_runs
    assert_conserved(sim)
    assert_loop_free(sim)


def test_destination_as_next_hop_delivers():
    sim = bare_sim()
    source = add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 40.0, 0.0)
    source.routing.routes[1] = [0, 1]
    routing.generate_packet(sim, 0, 1)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    assert_conserved(sim)


def test_dead_source_counts_dead_sender():
    sim = bare_sim()
    source = add_node(sim, 0, 0.0, 0.0)
    source.role = "dead"
    routing.generate_packet(sim, 0, 1)
    assert sim.metrics.dropped["dead-sender"] == 1


def test_broken_hop_without_recovery_raises_route_error_and_notifies_source():
    sim = bare_sim(mode="cbrp")
    source = add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 40.0, 0.0)
    add_node(sim, 2, 400.0, 400.0)   # far out of node 1's range
    source.routing.routes[2] = [0, 1, 2]
    routing.generate_packet(sim, 0, 2)
    sim.run_until(0.0)
    assert sim.metrics.dropped["route-error"] == 1
    assert 2 not in source.routing.routes   # error notice invalidated the route
    assert_conserved(sim)


def test_secondary_substitution_repairs_dead_head_hop():
    # Route [0, 1, 2, 3]; head 2 is dead; its secondary 4 can bridge 1 -> 3.
    sim = bare_sim(mode="ecbrp")
    source = add_node(sim, 0, 0.0, 0.0)
    gateway = add_node(sim, 1, 70.0, 0.0)
    dead_head = add_node(sim, 2, 140.0, 0.0)
    add_node(sim, 3, 160.0, 20.0)
    add_node(sim, 4, 140.0, 25.0)
    dead_head.role = "dead"
    add_neighbor(gateway, 2, 140.0, 0.0, role=ROLE_HEAD, cluster=2)
    add_neighbor(gateway, 4, 140.0, 25.0, role=ROLE_MEMBER, cluster=2)
    gateway.known_secondaries[2] = 4
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    assert (1, 4) in hops(sim) and (4, 3) in hops(sim)
    assert_conserved(sim)


def test_salvage_used_when_secondary_unknown():
    # Same break, but the detector knows no secondary; neighbor 5 advertised
    # hearing the hop after the break and patches the route.
    sim = bare_sim(mode="ecbrp")
    source = add_node(sim, 0, 0.0, 0.0)
    gateway = add_node(sim, 1, 70.0, 0.0)
    dead_head = add_node(sim, 2, 140.0, 0.0)
    add_node(sim, 3, 160.0, 20.0)
    add_node(sim, 5, 100.0, 30.0)
    dead_head.role = "dead"
    add_neighbor(gateway, 5, 100.0, 30.0, role=ROLE_MEMBER, one_hop=(3,))
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    assert (1, 5) in hops(sim) and (5, 3) in hops(sim)
    assert_conserved(sim)


def test_salvage_uses_neighbour_ids_advertised_in_hello():
    # As above, but node 5 learns of 3 and the gateway learns 5's neighbour
    # ids from real HELLOs rather than from scripted table entries.
    sim = bare_sim(mode="ecbrp")
    source = add_node(sim, 0, 0.0, 0.0)
    gateway = add_node(sim, 1, 70.0, 0.0)
    dead_head = add_node(sim, 2, 140.0, 0.0)
    dest = add_node(sim, 3, 160.0, 20.0)
    relay = add_node(sim, 5, 100.0, 30.0)
    relay.on_hello(dest.build_hello(), 3)
    hello = relay.build_hello()
    assert hello.neighbor_snapshot == (3,)
    gateway.on_hello(hello, 5)
    assert gateway.neighbors[5].neighbor_snapshot == (3,)
    dead_head.role = "dead"
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    assert (1, 5) in hops(sim) and (5, 3) in hops(sim)
    assert_conserved(sim)


@pytest.mark.parametrize("mode", ["cbrp", "ecbrp"])
def test_route_replies_start_only_at_the_destination(mode, monkeypatch):
    # Head 0 learns a route to each end from the other's reply, and still
    # only relays: a reply is started by the node its path ends at.
    replies = []
    start = routing._start_rrep
    monkeypatch.setattr(routing, "_start_rrep", lambda sim, node, request_id, full_path: (
        replies.append((node.node_id, tuple(full_path))),
        start(sim, node, request_id, full_path)))
    sim = static_sim({0: (0, 0), 1: (-50, 0), 2: (50, 0)}, mode=mode,
                     flow_pairs=[(1, 2), (2, 1)], flows=None, duration_s=20.0)
    sim.run_until(20.0)
    assert {path for _, path in replies} == {(1, 0, 2), (2, 0, 1)}
    assert all(node_id == path[-1] for node_id, path in replies)
    assert sim.metrics.packets_delivered == sim.metrics.packets_sent > 0
    assert_conserved(sim)
    assert_loop_free(sim)


# -- the neighbour view -------------------------------------------------------
# Relaying, salvage and secondary substitution count only fresh table entries,
# even before a maintenance pass has pruned the stale ones; salvage also
# needs the patch's advertised position in range.

STALE = 10.0   # seconds since last heard; the stale timeout is 3 HELLO intervals


@pytest.mark.parametrize("age, relays", [(0.0, True), (STALE, False)])
def test_member_relays_only_for_a_fresh_neighbour(age, relays):
    sim = bare_sim()
    sim.run_until(STALE)
    gateway = add_node(sim, 1, 0.0, 0.0)
    add_node(sim, 2, 40.0, 0.0)
    gateway.role = ROLE_MEMBER
    gateway.head_id = 9          # already on the recorded path
    add_neighbor(gateway, 7, 0.0, 40.0, role=ROLE_HEAD, cluster=7, age=age)
    routing.handle_rreq(sim, gateway, RouteRequest((9, 0, 0), 5, [9], {9}))
    sim.run_until(sim.now)
    assert ((9, 1, 2) in recorded_paths(sim)) == relays


def _broken_route_sim():
    """Route [0, 1, 2, 3] with node 2 dead: node 1 must repair the hop to 3."""
    sim = bare_sim(mode="ecbrp")
    sim.run_until(STALE)
    source = add_node(sim, 0, 0.0, 0.0)
    gateway = add_node(sim, 1, 70.0, 0.0)
    add_node(sim, 2, 140.0, 0.0).role = "dead"
    add_node(sim, 3, 160.0, 20.0)
    add_node(sim, 4, 140.0, 25.0)
    add_node(sim, 5, 100.0, 30.0)
    source.routing.routes[3] = [0, 1, 2, 3]
    return sim, gateway


def _send_one_packet(sim):
    routing.generate_packet(sim, 0, 3)
    sim.run_until(sim.now)
    assert_conserved(sim)


def test_secondary_substitution_ignores_a_stale_secondary():
    sim, gateway = _broken_route_sim()
    add_neighbor(gateway, 4, 140.0, 25.0, role=ROLE_MEMBER, cluster=2, age=STALE)
    gateway.known_secondaries[2] = 4
    _send_one_packet(sim)
    assert sim.metrics.dropped["route-error"] == 1
    assert (1, 4) not in hops(sim)


def test_salvage_ignores_a_stale_neighbour():
    sim, gateway = _broken_route_sim()
    add_neighbor(gateway, 5, 100.0, 30.0, role=ROLE_MEMBER, one_hop=(3,), age=STALE)
    _send_one_packet(sim)
    assert sim.metrics.dropped["route-error"] == 1
    assert (1, 5) not in hops(sim)


def test_salvage_ignores_a_neighbour_advertised_out_of_range():
    # Node 5 is really in range, but its last HELLO placed it far away.
    sim, gateway = _broken_route_sim()
    add_neighbor(gateway, 5, 300.0, 300.0, role=ROLE_MEMBER, one_hop=(3,))
    _send_one_packet(sim)
    assert sim.metrics.dropped["route-error"] == 1
    assert (1, 5) not in hops(sim)


# -- the relay decision -------------------------------------------------------

def _relay_by_list(node, recorded_path, dest_id):
    """The relay rule read off the whole fresh-neighbour list."""
    if node.role == ROLE_HEAD:
        return True
    if node.role != ROLE_MEMBER:
        return False
    return (any(e.sender_id == dest_id
                or (e.cluster_id is not None and e.cluster_id not in recorded_path)
                for e in node.fresh_neighbors())
            or node.head_id not in recorded_path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relay_decision_agrees_with_the_fresh_neighbour_list(data):
    ids = st.integers(min_value=0, max_value=12)
    sim = bare_sim()
    sim.run_until(20.0)
    node = add_node(sim, 100, 0.0, 0.0)
    node.role = data.draw(st.sampled_from([ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED]))
    # A member always has a head (tests/test_invariants.py); an undecided
    # node never has one.
    node.head_id = None if node.role == ROLE_UNDECIDED else data.draw(ids)
    for sender in data.draw(st.lists(ids, unique=True, max_size=8)):
        # 3.0 is the stale timeout exactly, which still counts as fresh.
        add_neighbor(node, sender, 10.0, 0.0, cluster=data.draw(st.none() | ids),
                     age=data.draw(st.sampled_from([0.0, 1.0, 2.9, 3.0, 3.1, STALE])))
    path = data.draw(st.lists(ids, unique=True, min_size=1, max_size=6))
    dest = data.draw(ids)
    assert routing._should_relay(node, path, dest) == _relay_by_list(node, path, dest)


def test_a_flood_builds_no_fresh_neighbour_list_to_decide_a_relay(monkeypatch):
    callers = Counter()
    relays = Counter()
    fresh_neighbors, should_relay = Node.fresh_neighbors, routing._should_relay

    def spy(node):
        callers[sys._getframe(1).f_code.co_name] += 1
        return fresh_neighbors(node)

    def counting_should_relay(node, recorded_path, dest_id):
        verdict = should_relay(node, recorded_path, dest_id)
        relays[verdict] += 1
        return verdict

    monkeypatch.setattr(Node, "fresh_neighbors", spy)
    monkeypatch.setattr(routing, "_should_relay", counting_should_relay)
    config = ScenarioConfig(node_count=30, duration_s=12.0, seed=3, protocol_mode="cbrp",
                            area_width_m=250.0, area_height_m=250.0, initial_energy=1e9,
                            traffic_start_s=4.0, flows=5)
    sim = build_simulation(config)
    sim.run_until(config.duration_s)
    assert relays[True] > 0 and relays[False] > 0   # members were asked, both ways
    assert callers["build_hello"] > 0               # the spy sees the other callers
    assert callers["_should_relay"] == 0
    assert callers["recover_route"] == 0

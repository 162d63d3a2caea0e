"""Route discovery, replies, retries, data forwarding, and the two
error-recovery policies."""

from cbrsim import ROLE_HEAD, ROLE_MEMBER
from cbrsim import routing
from cbrsim.geometry import Position
from cbrsim.messages import RouteReply, RouteRequest
from cbrsim.node import NeighborEntry

from conftest import add_node, assert_conserved, assert_loop_free, bare_sim, static_sim


def entry(sim, node_id, role, cluster, x, y, one_hop=()):
    return NeighborEntry(node_id, role, cluster, None, Position(x, y),
                         None, frozenset(one_hop), sim.now)


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
    sim = bare_sim()
    node = add_node(sim, 1, 0.0, 0.0)
    rreq = RouteRequest((9, 0, 0), 9, 5, [9])
    routing.handle_rreq(sim, node, rreq)
    logged = len(sim.path_log)
    routing.handle_rreq(sim, node, RouteRequest((9, 0, 0), 9, 5, [9]))
    assert len(sim.path_log) == logged == 1


def test_request_with_own_id_on_path_is_dropped():
    sim = bare_sim()
    node = add_node(sim, 1, 0.0, 0.0)
    routing.handle_rreq(sim, node, RouteRequest((9, 3, 0), 9, 5, [9, 1, 4]))
    assert sim.path_log == []   # a copy already passed through node 1


def test_head_fanout_reaches_each_adjacent_cluster_via_its_gateway():
    # Line: head 2 -- gateway 4 -- head 0 -- gateway 3 -- head 1.
    sim = static_sim({0: (0, 0), 3: (75, 0), 1: (150, 0), 4: (-75, 0), 2: (-150, 0)},
                     mode="cbrp", flow_pairs=[(0, 1)], flows=None, duration_s=20.0)
    sim.run_until(20.0)
    assert (0, 3, 1) in sim.path_log     # copy into cluster 1 through gateway 3
    assert (0, 4, 2) in sim.path_log     # copy into cluster 2 through gateway 4
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
    for rec in sim.hop_log:
        delivered_hops.setdefault(rec.packet_id, []).append((rec.from_id, rec.to_id))
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
    gateway.neighbors[2] = entry(sim, 2, ROLE_HEAD, 2, 140.0, 0.0)
    gateway.neighbors[4] = entry(sim, 4, ROLE_MEMBER, 2, 140.0, 25.0)
    gateway.known_secondaries[2] = 4
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    hops = [(r.from_id, r.to_id) for r in sim.hop_log]
    assert (1, 4) in hops and (4, 3) in hops
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
    gateway.neighbors[5] = entry(sim, 5, ROLE_MEMBER, None, 100.0, 30.0, one_hop=(3,))
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    hops = [(r.from_id, r.to_id) for r in sim.hop_log]
    assert (1, 5) in hops and (5, 3) in hops
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
    assert hello.neighbor_snapshot == frozenset({3})
    gateway.on_hello(hello, 5)
    assert gateway.neighbors[5].one_hop == frozenset({3})
    dead_head.role = "dead"
    source.routing.routes[3] = [0, 1, 2, 3]
    routing.generate_packet(sim, 0, 3)
    sim.run_until(0.0)
    assert sim.metrics.packets_delivered == 1
    hops = [(r.from_id, r.to_id) for r in sim.hop_log]
    assert (1, 5) in hops and (5, 3) in hops
    assert_conserved(sim)


def test_route_cache_answers_from_intermediate():
    sim = static_sim({0: (0, 0), 1: (-50, 0), 2: (50, 0)}, mode="cbrp",
                     flow_pairs=[(1, 2)], flows=None, duration_s=20.0,
                     route_cache=True)
    sim.run_until(20.0)
    assert sim.metrics.packets_delivered > 0
    assert sim.nodes[0].routing.cached_suffix.get(2) == [0, 2]
    assert_conserved(sim)
    assert_loop_free(sim)

"""Cluster formation: elections, joins, head contention, secondary heads,
failover, and neighbor-table maintenance."""

from cbrsim import ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED
from cbrsim.geometry import Position
from cbrsim.messages import Hello
from cbrsim.node import NeighborEntry
from cbrsim.scenario import build_simulation

from conftest import add_node, bare_sim, static_config, static_sim


def head_entry(sim, node_id, weight, x=10.0, y=0.0):
    return NeighborEntry(node_id, ROLE_HEAD, node_id, weight, Position(x, y),
                         None, (), sim.now)


def head_hello(sender_id, weight, x=10.0, y=0.0, secondary=None):
    return Hello(sender_id, ROLE_HEAD, Position(x, y), weight, sender_id, secondary)


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
    first = sim.nodes[0].neighbors[1].last_heard
    role = sim.nodes[0].role
    sim.run_until(5.0)
    assert sim.nodes[0].neighbors[1].last_heard > first
    assert sim.nodes[0].role == role


# -- joining ----------------------------------------------------------------

def test_undecided_joins_lowest_weight_head():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    node.neighbors = {7: head_entry(sim, 7, 2.0, 10, 0),
                      3: head_entry(sim, 3, 1.0, 0, 10)}
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
    node.neighbors = {5: head_entry(sim, 5, 1.0, x=300.0)}  # stale position
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
    assert sim.nodes[7].my_secondary == 5
    assert sim.nodes[5].cluster_secondary == 5
    assert sim.nodes[9].cluster_secondary == 5


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


def test_isolated_node_stays_undecided_and_repeats():
    sim = static_sim({0: (0, 0)})
    sim.run_until(10.0)
    node = sim.nodes[0]
    assert node.role == ROLE_UNDECIDED
    assert node._undecided_timer is not None      # procedure re-armed
    assert sim.metrics.cluster_reformations == 0


def test_election_winner_weight_not_above_contested_weights():
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    assert sim.election_log
    for _t, _head, weight, contested in sim.election_log:
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
    node.on_hello(Hello(2, ROLE_MEMBER, Position(10, 0), 3.0, 5, None), 2)
    assert node.role == ROLE_UNDECIDED
    assert sim.metrics.cluster_reformations == 1
    assert sim.undecided_transitions == [(sim.now, 6)]


# -- secondary head ---------------------------------------------------------

def test_secondary_is_lowest_weight_member():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head.member_ids = {5, 9}
    head.neighbors = {5: NeighborEntry(5, ROLE_MEMBER, 0, 2.0, Position(10, 0), None, (), 0.0),
                      9: NeighborEntry(9, ROLE_MEMBER, 0, 3.0, Position(0, 10), None, (), 0.0)}
    head._reelect_secondary()
    assert head.my_secondary == 5


def test_secondary_tie_resolved_by_lower_id():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head.member_ids = {5, 9}
    head.neighbors = {5: NeighborEntry(5, ROLE_MEMBER, 0, 2.0, Position(10, 0), None, (), 0.0),
                      9: NeighborEntry(9, ROLE_MEMBER, 0, 2.0, Position(0, 10), None, (), 0.0)}
    head._reelect_secondary()
    assert head.my_secondary == 5


def test_single_node_cluster_has_no_secondary():
    sim = bare_sim()
    head = add_node(sim, 0, 0.0, 0.0)
    head.become_head()
    head._reelect_secondary()
    assert head.my_secondary is None


# -- failover ---------------------------------------------------------------

FAILOVER_SQUARE = {0: (0, 0), 1: (30, 0), 2: (0, 30), 3: (-30, 0)}


def _failover_sim(mode, kill=(0,)):
    sim = static_sim(FAILOVER_SQUARE, mode=mode)
    for node_id in kill:
        sim.force_kill(node_id, 6.0)
    return sim


def test_head_death_with_live_secondary_avoids_undecided():
    sim = _failover_sim("ecbrp")
    sim.run_until(5.5)
    assert sim.nodes[0].role == ROLE_HEAD  # sanity: 0 had won the election
    secondary = sim.nodes[0].my_secondary
    assert secondary == 2                  # smallest distance sum among members
    sim.run_until(15.0)
    assert sim.undecided_transitions == []
    assert sim.metrics.cluster_reformations == 0
    assert sim.nodes[2].role == ROLE_HEAD
    for member in (1, 3):
        assert sim.nodes[member].role == ROLE_MEMBER
        assert sim.nodes[member].head_id == 2


def test_head_and_secondary_both_dead_forces_reformation():
    sim = _failover_sim("ecbrp", kill=(0, 2))
    sim.run_until(20.0)
    assert sim.metrics.cluster_reformations >= 2
    assert len(sim.undecided_transitions) >= 2
    # The survivors re-form a cluster among themselves afterwards.
    roles = {sim.nodes[1].role, sim.nodes[3].role}
    assert roles == {ROLE_HEAD, ROLE_MEMBER}


def test_cbrp_head_death_always_reforms():
    sim = _failover_sim("cbrp")
    sim.run_until(20.0)
    assert sim.metrics.cluster_reformations >= 1
    assert len(sim.undecided_transitions) >= 1


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
    node.neighbors = {1: NeighborEntry(1, ROLE_MEMBER, 5, None, Position(10, 0),
                                       None, (), 0.0)}
    node.table_maintenance()
    assert 1 in node.neighbors


def test_timer_expirations_are_seed_deterministic():
    config = static_config(node_count=12, duration_s=25.0, flows=None,
                          node_speed_mps=20.0)
    a = build_simulation(config)
    a.run_until(config.duration_s)
    b = build_simulation(config)
    b.run_until(config.duration_s)
    assert a.election_log == b.election_log
    assert a.join_log == b.join_log

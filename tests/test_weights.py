"""Election weight: component extraction and the combined metric, checked
against an independent exact-rational oracle."""

import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from cbrsim.engine import ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED
from cbrsim.geometry import Position, distance
from cbrsim.weights import (WeightComponents, WeightFactors, average_speed,
                            combined_weight, degree_difference)

from conftest import add_neighbor, add_node, bare_sim

PAPER_FACTORS = WeightFactors(0.7, 0.2, 0.05, 0.05)


def oracle_weight(components, factors):
    """Independent evaluation in exact rational arithmetic, rounded once."""
    total = (Fraction(factors.w1) * Fraction(components.degree_diff)
             + Fraction(factors.w2) * Fraction(components.dist_sum)
             + Fraction(factors.w3) * Fraction(components.mobility)
             + Fraction(factors.w4) * Fraction(components.head_time))
    return float(total)


# -- degree -----------------------------------------------------------------

def test_isolated_node_has_degree_zero():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    assert len(node.current_degree_entries()) == 0


def test_degree_counts_only_in_range_neighbors():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 1, 30.0, 0.0)
    add_neighbor(node, 2, 79.0, 0.0)
    add_neighbor(node, 3, 81.0, 0.0)   # out of range
    assert len(node.current_degree_entries()) == 2


def test_clique_degree():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    for i in range(1, 5):
        add_neighbor(node, i, 5.0 * i, 0.0)
    assert len(node.current_degree_entries()) == 4


def test_degree_difference_is_absolute():
    assert degree_difference(5, 2) == 3
    assert degree_difference(0, 2) == 2
    assert degree_difference(2, 2) == 0


# -- components -------------------------------------------------------------

def test_isolated_stationary_node_has_all_zero_components():
    sim = bare_sim(ideal_degree=0)
    node = add_node(sim, 0, 0.0, 0.0)
    sim.schedule(5.0, "advance", lambda: None)
    sim.run_until(5.0)
    c = node.weight_components()
    assert (c.degree_diff, c.dist_sum, c.mobility, c.head_time) == (0, 0, 0, 0)


def test_two_neighbor_component_vector():
    sim = bare_sim()  # ideal_degree defaults to 2
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 1, 30.0, 0.0)
    add_neighbor(node, 2, 0.0, 40.0)
    c = node.weight_components()
    assert (c.degree_diff, c.dist_sum, c.mobility, c.head_time) == (0, 70.0, 0, 0)


# The reference weight terms: filter the fresh entries by range, then measure
# each kept entry a second time for the sum.

def reference_degree_and_dist_sum(node):
    cutoff = node.sim.now - node.sim.config.stale_timeout_s()
    rng = node.sim.config.tx_range_m
    entries = [h for h in node.neighbors.values()
               if h.heard_at >= cutoff and distance(node.pos, h.sender_pos) <= rng]
    dist_sum = 0   # added left to right: sum() of floats is compensated from Python 3.12
    for h in entries:
        dist_sum += distance(node.pos, h.sender_pos)
    return entries, len(entries), dist_sum


NOW = 10.0   # the stale timeout is 3 s, so an entry aged 3.0 is fresh and 3.0001 is not
ON_RANGE = [(80.0, 0.0), (0.0, -80.0), (48.0, 64.0), (-64.0, -48.0), (80.001, 0.0), (0.0, 79.999)]
offsets = st.one_of(st.sampled_from(ON_RANGE),
                    st.tuples(st.floats(-120.0, 120.0), st.floats(-120.0, 120.0)))
ages = st.one_of(st.sampled_from([0.0, 3.0, 3.0001, 9.0]), st.floats(0.0, 6.0))
origins = st.one_of(st.sampled_from([(0.0, 0.0), (200.0, 200.0)]),
                    st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)))


@given(origin=origins, table=st.lists(st.tuples(offsets, ages), max_size=30),
       moved=st.one_of(st.none(), st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))))
def test_one_pass_weight_terms_equal_the_two_pass_reference(origin, table, moved):
    sim = bare_sim(ideal_degree=3)
    sim.run_until(NOW)
    ox, oy = origin
    node = add_node(sim, 0, ox, oy)
    for i, ((dx, dy), age) in enumerate(table, start=1):
        add_neighbor(node, i, ox + dx, oy + dy, age=age)
    if moved is not None:   # the node moved since it heard its neighbours
        node.pos = Position(ox + moved[0], oy + moved[1])
    entries, degree, dist_sum = reference_degree_and_dist_sum(node)
    assert node.current_degree_entries() == entries
    for c in (node.weight_components(), node.weight_components(node.fresh_neighbors())):
        assert c.degree_diff == degree_difference(degree, 3)
        assert repr(c.dist_sum) == repr(dist_sum)   # bit for bit, and int 0 when empty


# The hot path: weight_now computes the terms and their sum in one body; it
# must give combined_weight(weight_components()) bit for bit.

factor = st.floats(0.0, 1.0)
roles = st.sampled_from((ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED))


@given(origin=origins, table=st.lists(st.tuples(offsets, ages), max_size=30),
       moved=st.one_of(st.none(), st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))),
       now=st.sampled_from((0.0, NOW)), p_v_mode=st.sampled_from(("ch_time", "energy_consumed")),
       factors=st.tuples(factor, factor, factor, factor), ideal=st.integers(0, 6),
       travelled=st.floats(0.0, 5000.0), spent=st.floats(0.0, 1000.0),
       headed=st.floats(0.0, 300.0), since=st.one_of(st.none(), st.floats(0.0, NOW)))
# Cases where the order of the additions shows: (0.1 + 0.2) + 0.3 is not
# (0.3 + 0.2) + 0.1, 0.3 + (10 - 3.3) is not (0.3 + 10) - 3.3, and
# (0.1 + 0.1) + 1.1 is not (0.1 + 1.1) + 0.1.
@example(origin=(0.0, 0.0), table=[((0.1, 0.0), 0.0), ((0.2, 0.0), 0.0), ((0.3, 0.0), 0.0)],
         moved=None, now=NOW, p_v_mode="ch_time", factors=(0.0, 1.0, 0.0, 0.0), ideal=3,
         travelled=0.0, spent=0.0, headed=0.0, since=None)
@example(origin=(0.0, 0.0), table=[], moved=None, now=NOW, p_v_mode="ch_time",
         factors=(0.0, 0.0, 0.0, 1.0), ideal=0, travelled=0.0, spent=0.0, headed=0.3, since=3.3)
@example(origin=(0.0, 0.0), table=[], moved=None, now=NOW, p_v_mode="ch_time",
         factors=(0.1, 0.0, 1.0, 1.0), ideal=1, travelled=1.0, spent=0.0, headed=1.1, since=None)
def test_flat_weight_equals_combined_weight_of_the_components(
        origin, table, moved, now, p_v_mode, factors, ideal, travelled, spent, headed, since):
    w1, w2, w3, w4 = factors
    sim = bare_sim(p_v_mode=p_v_mode, ideal_degree=ideal, w1=w1, w2=w2, w3=w3, w4=w4)
    sim.run_until(now)
    ox, oy = origin
    node = add_node(sim, 0, ox, oy)
    for i, ((dx, dy), age) in enumerate(table, start=1):
        add_neighbor(node, i, ox + dx, oy + dy, age=age)
    if moved is not None:   # the node moved since it heard its neighbours
        node.pos = Position(ox + moved[0], oy + moved[1])
    node.mobility.total_distance = travelled
    node.energy.remaining -= spent
    node.ch_accum_s = headed   # the time it headed before
    if since is not None:   # and it heads again since then
        node._ch_since = min(since, now)
    want = repr(combined_weight(node.weight_components(), node.factors))
    assert repr(node.weight_now()) == want
    for fresh in (node.fresh_neighbors(), node.current_degree_entries()):
        assert repr(node.weight_now(fresh)) == want
        assert repr(combined_weight(node.weight_components(fresh), node.factors)) == want


@given(origin=origins, table=st.lists(st.tuples(offsets, ages, roles), max_size=30),
       moved=st.one_of(st.none(), st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))),
       head=st.integers(0, 30))
@example(origin=(0.0, 0.0), table=[((80.0, 0.0), 3.0, ROLE_HEAD)], moved=None, head=1)
def test_head_entries_are_the_in_range_entries_that_advertise_a_head(origin, table, moved, head):
    sim = bare_sim()
    sim.run_until(NOW)
    ox, oy = origin
    node = add_node(sim, 0, ox, oy)
    node.head_id = head or None   # the view does not exclude the node's own head
    for i, ((dx, dy), age, role) in enumerate(table, start=1):
        add_neighbor(node, i, ox + dx, oy + dy, role=role, age=age)
    if moved is not None:
        node.pos = Position(ox + moved[0], oy + moved[1])
    heads = [e.sender_id for e in node.current_head_entries()]
    assert heads == [e.sender_id for e in node.current_degree_entries()
                     if e.sender_role == ROLE_HEAD]


def test_average_speed_is_distance_over_time():
    assert average_speed(200.0, 10.0) == 20.0
    assert average_speed(0.0, 10.0) == 0.0
    assert average_speed(50.0, 0.0) == 0.0  # before the clock starts


def test_head_time_accumulates_while_heading():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    node.become_head()
    sim.schedule(7.0, "advance", lambda: None)
    sim.run_until(7.0)
    assert node.weight_components().head_time == 7.0


def test_energy_consumed_mode_tracks_battery():
    sim = bare_sim(p_v_mode="energy_consumed")
    node = add_node(sim, 0, 0.0, 0.0)
    sim.broadcast(0, object())
    sim.broadcast(0, object())
    assert node.weight_components().head_time == 2.0


# -- combined metric --------------------------------------------------------

def test_hand_value_distance_only():
    assert combined_weight(WeightComponents(0, 70, 0, 0), PAPER_FACTORS) == 14.0


def test_hand_value_degree_only():
    assert combined_weight(WeightComponents(1, 0, 0, 0), PAPER_FACTORS) == 0.7


def test_all_zero_components_give_zero():
    assert combined_weight(WeightComponents(0, 0, 0, 0), PAPER_FACTORS) == 0.0


def test_thousand_tuples_match_exact_oracle():
    rng = random.Random(20260823)
    for _ in range(1000):
        c = WeightComponents(rng.uniform(0, 10), rng.uniform(0, 500),
                             rng.uniform(0, 30), rng.uniform(0, 300))
        f = WeightFactors(rng.uniform(0, 1), rng.uniform(0, 1),
                          rng.uniform(0, 1), rng.uniform(0, 1))
        got = combined_weight(c, f)
        want = oracle_weight(c, f)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


finite = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(c=st.tuples(finite, finite, finite, finite),
       f=st.tuples(finite, finite, finite, finite),
       bump=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_weight_is_monotone_in_each_component(c, f, bump):
    factors = WeightFactors(*f)
    base = combined_weight(WeightComponents(*c), factors)
    assert base >= 0.0
    for i in range(4):
        raised = list(c)
        raised[i] += bump
        assert combined_weight(WeightComponents(*raised), factors) >= base


@given(c=st.tuples(finite, finite, finite, finite),
       scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scaling_all_factors_preserves_ranking(c, scale):
    a = WeightComponents(*c)
    b = WeightComponents(c[0] + 1.0, c[1], c[2], c[3])
    f = PAPER_FACTORS
    g = WeightFactors(f.w1 * scale, f.w2 * scale, f.w3 * scale, f.w4 * scale)
    assert combined_weight(a, f) < combined_weight(b, f)
    assert combined_weight(a, g) < combined_weight(b, g)

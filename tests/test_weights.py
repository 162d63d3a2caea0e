"""Election weight: Node.weight_now, the one place a run computes it, checked
against an independent exact-rational oracle, a two-pass reference for its
neighbour terms, and a float reference it must match bit for bit."""

import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from cbrsim.engine import ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED
from cbrsim.geometry import Position, distance

from conftest import add_neighbor, add_node, bare_sim

PAPER_FACTORS = (0.7, 0.2, 0.05, 0.05)


def weighed_node(*, now=0.0, factors=PAPER_FACTORS, ideal=2, p_v_mode="ch_time",
                 origin=(0.0, 0.0), table=(), moved=None, travelled=0.0, spent=0.0,
                 headed=0.0, since=None, **overrides):
    """Node 0 at `origin` at time `now`, weighing with `factors` (w1..w4):
    for each (offset, age) of `table` it heard a neighbour at origin + offset
    `age` seconds ago, and then it moved by `moved`. It has travelled
    `travelled` metres, spent `spent` energy, and headed `headed` seconds
    before heading again since `since`."""
    w1, w2, w3, w4 = factors
    sim = bare_sim(p_v_mode=p_v_mode, ideal_degree=ideal, w1=w1, w2=w2, w3=w3, w4=w4,
                   **overrides)
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
    return node


def node_with_terms(degree_diff, dist_sum, mobility, head_time, factors):
    """A node whose four weight terms are exactly these, at t = 1 s: one
    neighbour dist_sum metres away and within range, an ideal degree of
    1 + degree_diff, and no heading since."""
    return weighed_node(now=1.0, factors=factors, ideal=1 + degree_diff,
                        table=[((dist_sum, 0.0), 0.0)], travelled=mobility,
                        headed=head_time, tx_range_m=max(1.0, dist_sum))


def random_node(rng):
    """A node in a random state drawn from rng: up to 12 neighbours, some
    out of range or stale, and either head metric."""
    now = rng.uniform(1.0, 600.0)
    table = [((rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)), rng.uniform(0.0, 6.0))
             for _ in range(rng.randint(0, 12))]
    return weighed_node(
        now=now, factors=tuple(rng.uniform(0, 1) for _ in range(4)), ideal=rng.randint(0, 10),
        p_v_mode=rng.choice(("ch_time", "energy_consumed")),
        origin=(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)), table=table,
        travelled=rng.uniform(0.0, 30.0) * now, spent=rng.uniform(0.0, 300.0),
        headed=rng.uniform(0.0, 300.0),
        since=rng.uniform(0.0, now) if rng.random() < 0.5 else None)


def terms(node, fresh=None):
    """weight_now's four terms, each read by weighing with its factor 1 and
    the others 0: the sum 1.0 * t + 0.0 + 0.0 + 0.0 is t exactly."""
    kept = node.w1, node.w2, node.w3, node.w4
    found = []
    for unit in ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)):
        node.w1, node.w2, node.w3, node.w4 = unit
        found.append(node.weight_now(fresh))
    node.w1, node.w2, node.w3, node.w4 = kept
    return tuple(found)


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
    for degree, ideal, diff in ((5, 2, 3), (0, 2, 2), (2, 2, 0)):
        node = weighed_node(ideal=ideal, table=[((float(i), 0.0), 0.0) for i in range(degree)])
        assert terms(node)[0] == diff


# -- components -------------------------------------------------------------

def test_isolated_stationary_node_has_all_zero_components():
    sim = bare_sim(ideal_degree=0)
    node = add_node(sim, 0, 0.0, 0.0)
    sim.schedule(5.0, "advance", lambda: None)
    sim.run_until(5.0)
    assert terms(node) == (0, 0, 0, 0)


def test_two_neighbor_component_vector():
    sim = bare_sim()  # ideal_degree defaults to 2
    node = add_node(sim, 0, 0.0, 0.0)
    add_neighbor(node, 1, 30.0, 0.0)
    add_neighbor(node, 2, 0.0, 40.0)
    assert terms(node) == (0, 70.0, 0, 0)


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
    for fresh in (None, node.fresh_neighbors(), entries):
        degree_term, dist_term = terms(node, fresh)[:2]
        assert degree_term == abs(degree - 3)
        assert repr(dist_term) == repr(float(dist_sum))   # bit for bit


def float_reference(node):
    """The weight in floats from the two-pass terms, added left to right."""
    cfg, now = node.sim.config, node.sim.now
    _, degree, dist_sum = reference_degree_and_dist_sum(node)
    if cfg.p_v_mode == "energy_consumed":
        head = node.energy.initial - node.energy.remaining
    elif node._ch_since is None:
        head = node.ch_accum_s
    else:
        head = node.ch_accum_s + (now - node._ch_since)
    mobility = node.mobility.total_distance / now if now > 0 else 0.0
    return (cfg.w1 * abs(degree - cfg.ideal_degree) + cfg.w2 * dist_sum
            + cfg.w3 * mobility + cfg.w4 * head)


def oracle_weight(node):
    """Independent evaluation of the node's weight from its state, in exact
    rational arithmetic rounded once: only each distance is a float."""
    cfg, now = node.sim.config, Fraction(node.sim.now)
    entries, degree, _ = reference_degree_and_dist_sum(node)
    dist_sum = sum(Fraction(distance(node.pos, h.sender_pos)) for h in entries)
    mobility = Fraction(node.mobility.total_distance) / now if now > 0 else 0
    if cfg.p_v_mode == "energy_consumed":
        head = Fraction(node.energy.initial) - Fraction(node.energy.remaining)
    else:
        head = Fraction(node.ch_accum_s)
        if node._ch_since is not None:
            head += now - Fraction(node._ch_since)
    return float(Fraction(cfg.w1) * abs(degree - cfg.ideal_degree)
                 + Fraction(cfg.w2) * dist_sum
                 + Fraction(cfg.w3) * mobility
                 + Fraction(cfg.w4) * head)


# weight_now computes the terms and their sum in one body; it must give the
# float reference bit for bit, whichever view of the table it is handed.

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
def test_weight_now_equals_the_float_reference(
        origin, table, moved, now, p_v_mode, factors, ideal, travelled, spent, headed, since):
    node = weighed_node(now=now, factors=factors, ideal=ideal, p_v_mode=p_v_mode,
                        origin=origin, table=table, moved=moved, travelled=travelled,
                        spent=spent, headed=headed, since=since)
    want = repr(float_reference(node))
    for fresh in (None, node.fresh_neighbors(), node.current_degree_entries()):
        assert repr(node.weight_now(fresh)) == want


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
    assert terms(weighed_node(now=10.0, travelled=200.0))[2] == 20.0
    assert terms(weighed_node(now=10.0, travelled=0.0))[2] == 0.0
    assert terms(weighed_node(now=0.0, travelled=50.0))[2] == 0.0  # before the clock starts


def test_head_time_accumulates_while_heading():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    node.become_head()
    sim.schedule(7.0, "advance", lambda: None)
    sim.run_until(7.0)
    assert terms(node)[3] == 7.0


def test_energy_consumed_mode_tracks_battery():
    sim = bare_sim(p_v_mode="energy_consumed")
    node = add_node(sim, 0, 0.0, 0.0)
    sim.broadcast(0, object())
    sim.broadcast(0, object())
    assert terms(node)[3] == 2.0


# -- combined metric --------------------------------------------------------

def test_hand_value_distance_only():
    assert node_with_terms(0, 70.0, 0.0, 0.0, PAPER_FACTORS).weight_now() == 14.0


def test_hand_value_degree_only():
    assert node_with_terms(1, 0.0, 0.0, 0.0, PAPER_FACTORS).weight_now() == 0.7


def test_all_zero_components_give_zero():
    assert node_with_terms(0, 0.0, 0.0, 0.0, PAPER_FACTORS).weight_now() == 0.0


def test_thousand_random_nodes_match_exact_oracle():
    rng = random.Random(20260823)
    for _ in range(1000):
        node = random_node(rng)
        want = oracle_weight(node)
        assert abs(node.weight_now() - want) <= 1e-12 * max(1.0, abs(want))


finite = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
degree_diffs = st.integers(0, 10**6)


@given(c=st.tuples(degree_diffs, finite, finite, finite),
       f=st.tuples(finite, finite, finite, finite),
       bump=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_weight_is_monotone_in_each_component(c, f, bump):
    base = node_with_terms(*c, f).weight_now()
    assert base >= 0.0
    for i in range(4):
        raised = list(c)
        raised[i] += round(bump) if i == 0 else bump
        assert node_with_terms(*raised, f).weight_now() >= base


@given(c=st.tuples(degree_diffs, finite, finite, finite),
       scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scaling_all_factors_preserves_ranking(c, scale):
    f = PAPER_FACTORS
    g = tuple(w * scale for w in f)
    for factors in (f, g):
        a = node_with_terms(*c, factors)
        b = node_with_terms(c[0] + 1, *c[1:], factors)
        assert a.weight_now() < b.weight_now()

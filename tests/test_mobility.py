"""Placement, random-waypoint stepping, geometry, and the energy model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cbrsim.geometry import Position, distance
from cbrsim.mobility import (EnergyState, MobilityState, mobility_step, place_nodes,
                             random_waypoint)


def in_bounds(p, width=400.0, height=400.0):
    return 0.0 <= p.x <= width and 0.0 <= p.y <= height


# -- geometry ---------------------------------------------------------------

def test_distance_345_triangle():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_distance_identity():
    assert distance(Position(12.5, -3.0), Position(12.5, -3.0)) == 0.0


# -- placement --------------------------------------------------------------

def test_single_node_placed_inside_arena():
    (p,) = place_nodes(1, 400.0, 400.0, random.Random(42))
    assert in_bounds(p)


def test_thirty_nodes_all_inside_arena():
    positions = place_nodes(30, 400.0, 400.0, random.Random(42))
    assert len(positions) == 30
    assert all(in_bounds(p) for p in positions)


def test_placement_is_seed_deterministic():
    a = place_nodes(10, 400.0, 400.0, random.Random(7))
    b = place_nodes(10, 400.0, 400.0, random.Random(7))
    assert a == b


def test_placement_requires_at_least_one_node():
    with pytest.raises(ValueError):
        place_nodes(0, 400.0, 400.0, random.Random(1))


# -- random waypoint --------------------------------------------------------

def test_step_moves_toward_waypoint():
    state = MobilityState(waypoint=Position(100, 0), speed=20.0)
    pos, state = mobility_step(Position(0, 0), state, 1.0, 100.0, 400, 400,
                               random.Random(1))
    assert (pos.x, pos.y) == (20.0, 0.0)
    assert state.total_distance == 20.0


def test_arrival_snaps_to_waypoint_and_starts_pause():
    state = MobilityState(waypoint=Position(100, 0), speed=20.0)
    pos, state = mobility_step(Position(95, 0), state, 1.0, 100.0, 400, 400,
                               random.Random(1))
    assert (pos.x, pos.y) == (100.0, 0.0)       # no overshoot carry-over
    assert state.pause_remaining == 100.0
    assert state.total_distance == 5.0


def test_pausing_lowers_average_speed():
    state = MobilityState(waypoint=Position(0, 0), speed=20.0,
                          pause_remaining=50.0, total_distance=200.0)
    before = state.total_distance / 10.0   # the running average speed at t = 10 s
    pos, state = mobility_step(Position(0, 0), state, 1.0, 100.0, 400, 400,
                               random.Random(1))
    assert state.total_distance == 200.0        # stationary: zero distance added
    assert state.total_distance / 11.0 < before


def test_pause_expiry_draws_fresh_waypoint():
    rng = random.Random(3)
    state = MobilityState(waypoint=Position(0, 0), speed=20.0, pause_remaining=1.0)
    pos, state = mobility_step(Position(0, 0), state, 1.0, 100.0, 400, 400, rng)
    assert state.pause_remaining == 0.0
    assert (state.waypoint.x, state.waypoint.y) != (0.0, 0.0)


def test_zero_dt_rejected():
    state = MobilityState(waypoint=Position(0, 0), speed=20.0)
    with pytest.raises(ValueError):
        mobility_step(Position(0, 0), state, 0.0, 100.0, 400, 400, random.Random(1))


@settings(max_examples=200)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 60),
       speed=st.floats(0.0, 50.0), pause=st.floats(0.0, 20.0))
def test_walk_never_leaves_arena_and_odometer_is_monotone(seed, steps, speed, pause):
    rng = random.Random(seed)
    pos = random_waypoint(400, 400, rng)
    state = MobilityState(waypoint=random_waypoint(400, 400, rng), speed=speed)
    last_odometer = 0.0
    for _ in range(steps):
        pos, state = mobility_step(pos, state, 1.0, pause, 400, 400, rng)
        assert in_bounds(pos)
        assert in_bounds(state.waypoint)
        assert state.total_distance >= last_odometer
        assert state.total_distance - last_odometer <= speed * 1.0 + 1e-9
        assert state.pause_remaining >= 0.0
        last_odometer = state.total_distance


# -- energy -----------------------------------------------------------------

def test_three_transmissions_cost_three_units():
    e = EnergyState(remaining=100.0, initial=100.0, transmit_cost=1.0)
    for _ in range(3):
        assert e.charge(e.transmit_cost) is False
    assert e.remaining == 97.0
    assert e.consumed() == 3.0


def test_exact_depletion():
    e = EnergyState(remaining=1.0, initial=100.0, transmit_cost=1.0)
    assert e.charge(e.transmit_cost)
    assert e.remaining == 0.0


def test_underflow_clamps_to_zero():
    e = EnergyState(remaining=0.5, initial=100.0, transmit_cost=1.0)
    assert e.charge(e.transmit_cost)
    assert e.remaining == 0.0


@pytest.mark.parametrize("remaining, cost, empty", [
    (1.0, 1.0, True),      # exact empty
    (0.5, 1.0, True),      # underflow
    (0.0, 1.0, True),      # already empty
    (0.0, 0.0, True),      # already empty, free transmission
    (2.0, 1.0, False),
    (100.0, 1e-9, False),
])
def test_charge_returns_whether_the_battery_is_now_empty(remaining, cost, empty):
    e = EnergyState(remaining=remaining, initial=100.0, transmit_cost=cost)
    assert e.charge(cost) is empty
    assert (e.remaining == 0.0) is empty
    assert e.remaining == (0.0 if empty else remaining - cost)

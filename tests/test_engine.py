"""Event queue ordering, unit-disk radio, energy charging, and packet
accounting in the simulation core."""

import pytest
from hypothesis import given, strategies as st

from cbrsim import ScenarioConfig, run_scenario
from cbrsim.engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, Simulator
from cbrsim.scenario import build_simulation

from conftest import add_node, bare_sim, static_config


class _Probe:
    """An opaque message; nodes ignore unknown types."""


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


def test_cancelled_event_does_not_fire():
    sim = bare_sim()
    fired = []
    event = sim.schedule(1.0, "x", lambda: fired.append(1))
    event.cancel()
    sim.run_until(2.0)
    assert fired == []


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


def test_broadcast_reaches_only_nodes_within_range():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 50.0, 0.0)
    add_node(sim, 2, 100.0, 0.0)
    assert sim.broadcast(0, _Probe()) == frozenset({1})


def test_range_boundary_is_inclusive():
    sim = bare_sim()
    add_node(sim, 0, 0.0, 0.0)
    add_node(sim, 1, 80.0, 0.0)
    assert sim.broadcast(0, _Probe()) == frozenset({1})


def test_lone_broadcast_still_costs_energy():
    sim = bare_sim()
    node = add_node(sim, 0, 0.0, 0.0)
    before = node.energy.remaining
    assert sim.broadcast(0, _Probe()) == frozenset()
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


def test_final_transmission_delivers_then_kills_sender():
    sim = bare_sim()
    sender = add_node(sim, 0, 0.0, 0.0, energy=1.0)  # exactly one transmit-cost
    receiver = add_node(sim, 1, 10.0, 0.0)
    received = []
    receiver.handle_message = lambda msg, sid: received.append(sid)
    assert sim.broadcast(0, _Probe()) == frozenset({1})
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
    a, b, c = sim.new_packet_id(), sim.new_packet_id(), sim.new_packet_id()
    for pid in (a, b, c):
        sim.register_packet(pid)
    sim.account_delivered(a)
    sim.account_dropped(b, "no-route")
    m = sim.metrics
    assert (m.packets_sent, m.packets_delivered, m.total_dropped) == (3, 1, 1)
    assert m.in_flight == 1 == sim.outstanding_packets


def test_packet_ids_are_unique_and_reregistration_rejected():
    sim = bare_sim()
    pid = sim.new_packet_id()
    assert pid != sim.new_packet_id()
    sim.register_packet(pid)
    with pytest.raises(AssertionError):
        sim.register_packet(pid)


def test_unknown_drop_cause_rejected():
    sim = bare_sim()
    pid = sim.new_packet_id()
    sim.register_packet(pid)
    with pytest.raises(KeyError):
        sim.account_dropped(pid, "gremlins")


# -- trace stream -----------------------------------------------------------

def test_trace_stream_is_off_by_default():
    sim = build_simulation(static_config(node_count=3))
    assert sim.trace is None
    sim.run_until(5.0)
    assert sim.trace is None


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

"""Delivery batches: transmissions due at one instant share one "deliver"
event, and the run is the same as with one event per transmission."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cbrsim import ScenarioConfig, build_simulation
from cbrsim.engine import ROLE_DEAD, Simulator
from cbrsim.messages import Hello, RouteRequest

from conftest import add_node, assert_conserved, bare_sim, static_sim


def _per_transmission_delivery(self, sender_id, receivers, message):
    """The reference engine's delivery: one "deliver" event per transmission,
    handing the message to every receiver still alive, in order, and
    skipping a route request's receivers that its flood has already
    reached."""
    nodes = self.nodes
    if type(message) is RouteRequest:
        seen = message.seen

        def deliver():
            for receiver_id in receivers:
                receiver = nodes.get(receiver_id)
                if (receiver is not None and receiver.role != ROLE_DEAD
                        and receiver_id not in seen):
                    receiver.handle_message(message, sender_id)
    else:
        def deliver():
            for receiver_id in receivers:
                receiver = nodes.get(receiver_id)
                if receiver is not None and receiver.role != ROLE_DEAD:
                    receiver.handle_message(message, sender_id)
    self.schedule(self.now + self.config.propagation_delay_s, "deliver", deliver)


def _run(config, victim, kill_at):
    sim = build_simulation(config)
    sim.trace = []
    sim.force_kill(victim, kill_at)
    metrics = sim.run_until(config.duration_s)
    return sim.trace, dataclasses.asdict(metrics)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(["cbrp", "ecbrp"]),
       n=st.integers(min_value=5, max_value=40),
       delay=st.sampled_from([0.0, 0.002, 0.5, 1.0]),   # 1.0 is hello_interval_s
       side=st.sampled_from([200.0, 400.0]),
       energy=st.sampled_from([60.0, 600.0]),
       seed=st.integers(min_value=0, max_value=2**16),
       victim=st.integers(min_value=0, max_value=39),
       kill_at=st.sampled_from([3.0, 4.5, 5.002, 6.37]))
def test_batches_replay_the_per_transmission_engine(mode, n, delay, side, energy, seed,
                                                     victim, kill_at):
    config = ScenarioConfig(node_count=n, duration_s=12.0, seed=seed, protocol_mode=mode,
                            propagation_delay_s=delay,
                            hello_interval_s=1.0, area_width_m=side, area_height_m=side,
                            initial_energy=energy, traffic_start_s=2.0,
                            packets_per_second=5.0, flows=max(1, n // 5))
    batched = _run(config, victim % n, kill_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_schedule_delivery", _per_transmission_delivery)
        reference = _run(config, victim % n, kill_at)
    assert batched[1] == reference[1]
    assert batched[0] == reference[0]


def _count_deliveries(monkeypatch):
    """Wrap Simulator.schedule and Simulator.broadcast. Returns per instant
    the "deliver" events scheduled, the HELLOs sent from within the round's
    "hello" event, the deliver events those scheduled, and the route requests
    sent."""
    counts = {"deliver": Counter(), "round_hellos": Counter(),
              "round_deliver": Counter(), "rreq": Counter()}
    in_round = []
    schedule, broadcast = Simulator.schedule, Simulator.broadcast

    def counting_schedule(sim, fire_time, kind, fn):
        if kind == "deliver":
            counts["deliver"][sim.now] += 1
            if in_round:
                counts["round_deliver"][sim.now] += 1
        elif kind == "hello":
            inner = fn

            def fn():
                in_round.append(True)
                try:
                    inner()
                finally:
                    in_round.pop()
        return schedule(sim, fire_time, kind, fn)

    def counting_broadcast(sim, sender_id, message):
        if type(message) is RouteRequest:
            counts["rreq"][sim.now] += 1
        elif type(message) is Hello and in_round:
            counts["round_hellos"][sim.now] += 1
        return broadcast(sim, sender_id, message)

    monkeypatch.setattr(Simulator, "schedule", counting_schedule)
    monkeypatch.setattr(Simulator, "broadcast", counting_broadcast)
    return counts


# Eight nodes, every one within 80 m of at least one other, none of them
# hearing all the others: several clusters, and gateways between them.
_FIELD = {0: (0, 0), 1: (60, 0), 2: (120, 0), 3: (180, 0), 4: (240, 0),
          5: (60, 60), 6: (180, 60), 7: (300, 0)}


def test_a_zero_delay_hello_round_is_one_deliver_event(monkeypatch):
    counts = _count_deliveries(monkeypatch)
    sim = static_sim(_FIELD, mode="ecbrp", propagation_delay_s=0.0, duration_s=6.0)
    sim.run_until(6.0)
    assert all(node.head_id is not None for node in sim.nodes.values())
    assert sorted(counts["round_hellos"]) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    # From t = 3 the clusters are settled and nothing else happens at a
    # round instant. (At t = 2 the elections' HELLOs go first, and the
    # round's join the batch of the last of them.)
    for t in (3.0, 4.0, 5.0, 6.0):
        assert counts["round_hellos"][t] == len(_FIELD)
        assert counts["round_deliver"][t] == counts["deliver"][t] == 1


@pytest.mark.parametrize("n", [8, 30])
def test_a_zero_delay_start_is_one_deliver_event(n, monkeypatch):
    # The startup event sends every node's first HELLO before it arms any
    # undecided timer, so nothing is scheduled between the HELLOs.
    counts = _count_deliveries(monkeypatch)
    config = ScenarioConfig(node_count=n, duration_s=1.0, seed=1, initial_energy=1e9)
    sim = build_simulation(config)
    sim.run_until(0.0)
    assert counts["deliver"] == {0.0: 1}
    for i, node in sim.nodes.items():
        assert sorted(node.neighbors) == sorted(sim.alive_in_range(i))


def test_the_relays_of_one_flood_wave_share_one_deliver_event(monkeypatch):
    counts = _count_deliveries(monkeypatch)
    # One packet from 0 to 7 at t = 9.25, once every node is clustered and
    # clear of the HELLO rounds (whole seconds, delivered 2 ms later) and the
    # maintenance ticks (half seconds). Two waves have two relays each.
    sim = static_sim(_FIELD, mode="cbrp", flow_pairs=[(0, 7)], flows=None,
                     propagation_delay_s=0.002, traffic_start_s=9.25,
                     packets_per_second=0.1, duration_s=9.4)
    sim.run_until(9.4)
    waves = {t: k for t, k in counts["rreq"].items() if t > 9.25}   # relays, not the source
    assert sorted(waves.values()) == [1, 1, 2, 2]
    for t in waves:
        assert counts["deliver"][t] == 1
    assert sim.metrics.packets_delivered == 1
    assert_conserved(sim)


def test_a_transmission_after_its_instants_batch_has_fired_is_delivered():
    # The first batch is due now and fires; the clock stays put, so the
    # second transmission is due at the same instant and must open its own.
    sim = bare_sim(propagation_delay_s=0.0)
    for nid, x in ((0, 0.0), (1, 30.0)):
        add_node(sim, nid, x, 0.0)
    log = []
    sim.nodes[1].handle_message = lambda msg, sid: log.append((msg, sim.now))
    sim.broadcast(0, "first")
    sim.run_until(0.0)
    sim.broadcast(0, "second")
    sim.run_until(0.0)
    assert log == [("first", 0.0), ("second", 0.0)]

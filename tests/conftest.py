"""Shared helpers for building small scripted scenarios."""

import pytest

from cbrsim import ScenarioConfig
from cbrsim.engine import ROLE_MEMBER, Simulator
from cbrsim.geometry import Position
from cbrsim.messages import Hello
from cbrsim.mobility import EnergyState, MobilityState
from cbrsim.node import Node
from cbrsim.scenario import build_simulation


def static_config(mode="ecbrp", **overrides) -> ScenarioConfig:
    """A frozen-topology config: no motion, generous batteries, no default
    traffic unless a flow is scripted."""
    base = dict(node_count=2, duration_s=20.0, seed=1, protocol_mode=mode,
                node_speed_mps=0.0, pause_time_s=0.0,
                initial_energy=10_000.0, flows=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def static_sim(positions, mode="ecbrp", flow_pairs=None, **overrides) -> Simulator:
    """Build a ready-to-run simulation from scripted {id: (x, y)} positions,
    with the trace stream on."""
    pos = {i: Position(x, y) for i, (x, y) in positions.items()}
    config = static_config(mode, node_count=len(pos), **overrides)
    sim = build_simulation(config, positions=pos, flow_pairs=flow_pairs or [])
    sim.trace = []
    return sim


def bare_sim(mode="ecbrp", **overrides) -> Simulator:
    """A simulator with no nodes and no scheduled events, with the trace
    stream on."""
    sim = Simulator(static_config(mode, **overrides))
    sim.trace = []
    return sim


def add_node(sim, node_id, x, y, energy=None) -> Node:
    """Attach a stationary node without scheduling its startup events."""
    pos = Position(x, y)
    e = energy if energy is not None else sim.config.initial_energy
    node = Node(sim, node_id, pos, MobilityState(waypoint=pos, speed=0.0),
                EnergyState(e, e, sim.config.transmit_cost))
    sim.nodes[node_id] = node
    return node


def add_neighbor(node, sender_id, x, y, *, role=ROLE_MEMBER, cluster=None, weight=None,
                 secondary=None, one_hop=(), age=0.0) -> Hello:
    """Enter sender_id in node's neighbour table as if its HELLO, advertising
    position (x, y), had arrived `age` seconds ago; returns that Hello."""
    hello = Hello(sender_id, role, Position(x, y), weight, cluster, secondary,
                  tuple(one_hop), heard_at=node.sim.now - age)
    node.neighbors[sender_id] = hello
    return hello


def assert_conserved(sim):
    m = sim.metrics
    assert m.packets_sent == (m.packets_delivered + m.total_dropped
                              + sim.outstanding_packets)
    assert m.in_flight == sim.outstanding_packets
    assert m.in_flight >= 0


def recorded_paths(sim):
    return [path for _t, path in sim.records("path")]


def hops(sim):
    """(from_id, to_id) of every recorded data hop, in order."""
    return [(from_id, to_id) for _t, _pid, from_id, to_id in sim.records("hop")]


def assert_loop_free(sim):
    for path in recorded_paths(sim):
        assert len(set(path)) == len(path), f"duplicate id in recorded path {path}"
    for dup in (r for n in sim.nodes.values()
                for r in n.routing.routes.values() if len(set(r)) != len(r)):
        pytest.fail(f"duplicate id in established route {dup}")

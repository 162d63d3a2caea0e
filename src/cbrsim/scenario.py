"""Wire a configured scenario into a ready-to-run simulation."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import routing
from .config import ScenarioConfig
from .engine import ROLE_DEAD, Simulator
from .geometry import Position
from .mobility import EnergyState, MobilityState, mobility_step, place_nodes, random_waypoint
from .node import Node


def build_simulation(config: ScenarioConfig,
                     positions: Optional[Dict[int, Position]] = None,
                     flow_pairs: Optional[Sequence[Tuple[int, int]]] = None) -> Simulator:
    """Create nodes, timers, mobility, and traffic for one run.

    positions: optional scripted placement {node_id: Position}; otherwise
    node_count uniform placements with ids 0..n-1.
    flow_pairs: optional scripted (source, dest) flows; otherwise drawn from
    the traffic stream, one flow per 10 nodes (min 1).
    """
    sim = Simulator(config)
    if positions is None:
        placed = place_nodes(config.node_count, config.area_width_m,
                             config.area_height_m, sim.rng.placement)
        positions = {i: p for i, p in enumerate(placed)}

    for node_id in sorted(positions):
        pos = positions[node_id]
        if config.node_speed_mps > 0:
            waypoint = random_waypoint(config.area_width_m, config.area_height_m,
                                       sim.rng.waypoints)
        else:
            waypoint = pos
        node = Node(sim, node_id, pos,
                    MobilityState(waypoint=waypoint, speed=config.node_speed_mps),
                    EnergyState(config.initial_energy, config.initial_energy,
                                config.transmit_cost))
        sim.nodes[node_id] = node

    nodes = list(sim.nodes.values())
    sim.schedule(0.0, "startup", partial(_start, sim, nodes))

    dt = config.mobility_tick_s
    if config.node_speed_mps > 0:
        _every(sim, dt, dt, "mobility-tick", partial(_move, sim))
    # Offset half a tick so each maintenance pass sees that second's HELLOs.
    _every(sim, dt / 2.0, dt, "maintenance-tick", partial(_maintain, sim))

    if flow_pairs is None:
        flow_pairs = _draw_flows(sim)
    _schedule_traffic(sim, flow_pairs)
    return sim


def _move(sim: Simulator) -> None:
    """One mobility tick. Dead nodes keep moving: they stay in the world,
    and advancing them keeps waypoint-stream consumption identical across
    protocol modes. The neighbour table holds alive nodes only, so it is
    kept unless an alive node changed position. A Position is never
    mutated: a node that moved holds a new one."""
    cfg = sim.config
    dt, pause, width, height = (cfg.mobility_tick_s, cfg.pause_time_s,
                                cfg.area_width_m, cfg.area_height_m)
    waypoints = sim.rng.waypoints
    moved = False
    for node in sim.nodes.values():
        pos = node.pos
        node.pos, node.mobility = mobility_step(
            pos, node.mobility, dt, pause, width, height, waypoints)
        if node.pos is not pos and node.role != ROLE_DEAD:
            moved = True
    if moved:
        sim.invalidate_neighbors()


def _maintain(sim: Simulator) -> None:
    for node in sim.nodes.values():
        if node.role != ROLE_DEAD:
            node.table_maintenance()


def _every(sim: Simulator, first: float, period: float, kind: str,
           body: Callable[[], None]) -> None:
    """The one periodic timer: run body at `first`, then every `period`,
    each run re-arming the event at now + period once body has returned.
    Nothing is armed past duration_s, the time every entry point runs a
    simulation to: a `first` past it arms nothing, and the last run arms no
    successor. Each event is a partial of _fire, plain data like every
    event of a run (see engine), so body must be plain data too."""
    if first <= sim.config.duration_s:
        sim.schedule(first, kind, partial(_fire, sim, period, kind, body))


def _fire(sim: Simulator, period: float, kind: str, body: Callable[[], None]) -> None:
    body()
    if sim.now + period <= sim.config.duration_s:
        sim.schedule(sim.now + period, kind, partial(_fire, sim, period, kind, body))


def _start(sim: Simulator, nodes: List[Node]) -> None:
    """The one "startup" event, at t = 0: arm the HELLO round, send its
    first HELLOs now, then arm the undecided timer of each node still alive,
    in sim.nodes order. Every hello_interval_s from then on, the round sends
    a HELLO from each of these nodes that is still alive, in the same order.
    With nothing scheduled between them, the startup HELLOs share one
    delivery batch.

    Events fire in (time, seq) order, seq being the order of scheduling.
    The round is armed here and not in build_simulation, so that what
    build_simulation and its caller schedule for a round instant fires
    before the round: the mobility tick (due with every round at the
    defaults) and a force_kill at t = hello_interval_s, say. At three exact
    ties the order is:
      - propagation_delay_s == hello_interval_s: the first round fires
        before the startup HELLOs are delivered, and every later round
        after the HELLOs of the round before it.
      - undecided_timer_intervals == 1: the round at t = hello_interval_s
        sends every HELLO before the first undecided timeout.
      - propagation_delay_s == undecided_timer_s(): every startup HELLO is
        delivered before the first undecided timeout.
    """
    interval = sim.config.hello_interval_s
    _every(sim, sim.now + interval, interval, "hello", partial(_hello_round, nodes))
    _hello_round(nodes)
    for node in nodes:
        if node.role != ROLE_DEAD:
            node._restart_undecided_timer()


def _hello_round(nodes: List[Node]) -> None:
    for node in nodes:
        if node.role != ROLE_DEAD:
            node.send_hello()


def _draw_flows(sim: Simulator) -> List[Tuple[int, int]]:
    ids = sorted(sim.nodes)
    rng = sim.rng.traffic
    pairs = []
    for _ in range(sim.config.effective_flows()):
        if len(ids) < 2:
            break
        src = ids[rng.randrange(len(ids))]
        dst = src
        while dst == src:
            dst = ids[rng.randrange(len(ids))]
        pairs.append((src, dst))
    return pairs


def _schedule_traffic(sim: Simulator, flow_pairs: Sequence[Tuple[int, int]]) -> None:
    """One periodic "traffic" timer per flow, from traffic_start_s on."""
    cfg = sim.config
    if cfg.packets_per_second <= 0:
        return
    period = 1.0 / cfg.packets_per_second
    for src, dst in flow_pairs:
        _every(sim, cfg.traffic_start_s, period, "traffic", partial(_generate, sim, src, dst))


def _generate(sim: Simulator, src: int, dst: int) -> None:
    # Looked up on the module at each packet, so a patched
    # routing.generate_packet is the one that runs.
    routing.generate_packet(sim, src, dst)

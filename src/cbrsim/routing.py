"""Cluster-based source routing: discovery over cluster heads, loop
suppression, reply/retry, hop-by-hop data forwarding, and the two
error-recovery policies (salvage vs. secondary-head substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator
from .geometry import distance
from .messages import DataPacket, RouteError, RouteReply, RouteRequest


@dataclass
class _Pending:
    dest_id: int
    seq: Optional[int]      # None while deferred (source still undecided)
    retry: int = 0
    timer: object = None


@dataclass
class RoutingState:
    request_seq: int = 0
    pending: Dict[int, _Pending] = field(default_factory=dict)     # dest -> pending discovery
    routes: Dict[int, List[int]] = field(default_factory=dict)     # dest -> established path
    queued: Dict[int, List[int]] = field(default_factory=dict)     # dest -> waiting packet ids
    seen_rreq: Set[Tuple[int, int, int]] = field(default_factory=set)
    cached_suffix: Dict[int, List[int]] = field(default_factory=dict)  # route_cache=on only


# -- traffic entry point ----------------------------------------------------

def generate_packet(sim: Simulator, source_id: int, dest_id: int) -> None:
    pid = sim.new_packet_id()
    sim.register_packet(pid)
    source = sim.nodes[source_id]
    if not source.alive:
        sim.account_dropped(pid, "dead-sender")
        return
    state = source.routing
    route = state.routes.get(dest_id)
    if route is not None:
        forward_data(sim, source, DataPacket(pid, source_id, dest_id, list(route)))
    else:
        state.queued.setdefault(dest_id, []).append(pid)
        initiate_discovery(sim, source, dest_id)


# -- route discovery --------------------------------------------------------

def initiate_discovery(sim: Simulator, node, dest_id: int) -> None:
    state = node.routing
    if dest_id in state.pending:
        return
    if node.role == ROLE_UNDECIDED:
        # Not clustered yet: defer one HELLO interval and try again.
        pending = _Pending(dest_id, seq=None)
        state.pending[dest_id] = pending

        def retry_deferred():
            if state.pending.get(dest_id) is pending:
                del state.pending[dest_id]
                if node.alive:
                    initiate_discovery(sim, node, dest_id)
        pending.timer = sim.schedule(sim.now + sim.config.hello_interval_s,
                                     "discovery-deferred", retry_deferred)
        return
    seq = state.request_seq
    state.request_seq += 1
    pending = _Pending(dest_id, seq=seq)
    state.pending[dest_id] = pending
    _send_rreq(sim, node, pending)


def _send_rreq(sim: Simulator, node, pending: _Pending) -> None:
    state = node.routing
    rid = (node.node_id, pending.seq, pending.retry)
    state.seen_rreq.add(rid)
    rreq = RouteRequest(rid, node.node_id, pending.dest_id, [node.node_id])
    sim.broadcast(node.node_id, rreq)

    def on_timeout():
        if state.pending.get(pending.dest_id) is not pending:
            return
        pending.retry += 1
        if pending.retry > sim.config.max_retries:
            del state.pending[pending.dest_id]
            for pid in state.queued.get(pending.dest_id, []):
                sim.account_dropped(pid, "no-route")
            state.queued[pending.dest_id] = []
        elif node.alive:
            _send_rreq(sim, node, pending)
        else:
            del state.pending[pending.dest_id]
    pending.timer = sim.schedule(sim.now + sim.config.rreq_timeout_s, "rreq-timeout", on_timeout)


def _should_relay(node, recorded_path: List[int], dest_id: int) -> bool:
    """Which nodes re-broadcast a request: cluster heads always, gateways
    (members who currently hear a cluster the request has not visited yet),
    and anyone who hears the destination directly. Unclustered nodes stay
    silent - the flood travels over the cluster structure only."""
    if node.role == ROLE_HEAD:
        return True
    if node.role != ROLE_MEMBER:
        return False
    cutoff = node.sim.now - node.sim.config.stale_timeout_s()
    for entry in node.neighbors.values():
        if entry.last_heard < cutoff or entry.role == ROLE_DEAD:
            continue
        if entry.node_id == dest_id:
            return True
        if entry.cluster_id is not None and entry.cluster_id not in recorded_path:
            return True
    return node.head_id is not None and node.head_id not in recorded_path


def handle_rreq(sim: Simulator, node, rreq: RouteRequest) -> None:
    state = node.routing
    if rreq.request_id in state.seen_rreq:
        return
    state.seen_rreq.add(rreq.request_id)
    if node.node_id == rreq.dest_id:
        full = rreq.recorded_path + [node.node_id]
        sim.path_log.append(tuple(full))
        _start_rrep(sim, node, rreq.request_id, full)
        return
    if node.node_id in rreq.recorded_path:
        return  # loop: a copy already passed through here
    path = rreq.recorded_path + [node.node_id]
    sim.path_log.append(tuple(path))
    if sim.config.route_cache:
        suffix = state.cached_suffix.get(rreq.dest_id)
        if suffix is not None and not set(suffix[1:]) & set(path):
            _start_rrep(sim, node, rreq.request_id, path + suffix[1:])
            return
    if not _should_relay(node, rreq.recorded_path, rreq.dest_id):
        return
    sim.broadcast(node.node_id,
                  RouteRequest(rreq.request_id, rreq.source_id, rreq.dest_id, path))


def _start_rrep(sim: Simulator, node, request_id, full_path: List[int]) -> None:
    if len(full_path) < 2:
        return
    cursor = len(full_path) - 2
    sim.unicast(node.node_id, full_path[cursor], RouteReply(request_id, list(full_path), cursor))


def handle_rrep(sim: Simulator, node, rrep: RouteReply) -> None:
    i = rrep.cursor
    if i < 0 or i >= len(rrep.full_path) or rrep.full_path[i] != node.node_id:
        return
    if i == 0:
        _establish_route(sim, node, rrep)
        return
    if sim.config.route_cache:
        node.routing.cached_suffix[rrep.full_path[-1]] = list(rrep.full_path[i:])
    sim.unicast(node.node_id, rrep.full_path[i - 1],
                RouteReply(rrep.request_id, list(rrep.full_path), i - 1))


def _establish_route(sim: Simulator, node, rrep: RouteReply) -> None:
    state = node.routing
    source, seq, _retry = rrep.request_id
    dest = rrep.full_path[-1]
    pending = state.pending.get(dest)
    if source != node.node_id or pending is None or pending.seq != seq:
        return  # unknown or already-satisfied request: first reply wins
    if pending.timer is not None:
        pending.timer.cancel()
    del state.pending[dest]
    state.routes[dest] = list(rrep.full_path)
    for pid in state.queued.get(dest, []):
        forward_data(sim, node, DataPacket(pid, node.node_id, dest, list(rrep.full_path)))
    state.queued[dest] = []


# -- data transmission ------------------------------------------------------

def handle_data(sim: Simulator, node, packet: DataPacket) -> None:
    if node.node_id == packet.dest_id:
        sim.account_delivered(packet.packet_id)
        return
    forward_data(sim, node, packet)


def forward_data(sim: Simulator, node, packet: DataPacket) -> None:
    if not node.alive:
        sim.account_dropped(packet.packet_id, "dead-forwarder")
        return
    i = packet.cursor
    route = packet.route
    if i >= len(route) or route[i] != node.node_id or i + 1 >= len(route):
        sim.account_dropped(packet.packet_id, "route-error")
        return
    next_hop = route[i + 1]
    packet.cursor = i + 1
    if not sim.unicast(node.node_id, next_hop, packet):
        packet.cursor = i
        recover_route(sim, node, packet, next_hop)


def _retry_hop(sim: Simulator, node, packet: DataPacket, tried: Set[int]) -> None:
    i = packet.cursor
    next_hop = packet.route[i + 1]
    packet.cursor = i + 1
    if not sim.unicast(node.node_id, next_hop, packet):
        packet.cursor = i
        recover_route(sim, node, packet, next_hop, tried)


def recover_route(sim: Simulator, node, packet: DataPacket, failed_next: int,
                  tried: Optional[Set[int]] = None) -> None:
    if not node.alive:
        # The failed transmission drained the reporter itself.
        sim.account_dropped(packet.packet_id, "dead-forwarder")
        return
    tried = set(tried) if tried else set()
    tried.add(failed_next)
    i = packet.cursor
    route = packet.route
    after = route[i + 2] if i + 2 < len(route) else None

    if sim.config.protocol_mode == "ecbrp" and failed_next != packet.dest_id:
        substitute = _secondary_for(node, failed_next)
        if (substitute is not None and substitute not in route
                and substitute not in tried and _usable_neighbor(node, substitute)):
            route[i + 1] = substitute
            _retry_hop(sim, node, packet, tried)
            return

    if after is not None:
        patch = _salvage_candidate(node, route, after, tried)
        if patch is not None:
            route[i + 1] = patch
            _retry_hop(sim, node, packet, tried)
            return

    sim.account_dropped(packet.packet_id, "route-error")
    _report_route_error(sim, packet)


def _secondary_for(node, failed_id: int) -> Optional[int]:
    """The secondary of the cluster headed by failed_id, if this node knows it."""
    if node.head_id == failed_id and node.cluster_secondary is not None:
        return node.cluster_secondary
    return node.known_secondaries.get(failed_id)


def _usable_neighbor(node, candidate: int) -> bool:
    cutoff = node.sim.now - node.sim.config.stale_timeout_s()
    entry = node.neighbors.get(candidate)
    return entry is not None and entry.last_heard >= cutoff and entry.role != ROLE_DEAD


def _salvage_candidate(node, route: List[int], after: int, tried: Set[int]) -> Optional[int]:
    """Two-hop patch: a current neighbor that itself reported hearing the hop
    after the broken one."""
    cutoff = node.sim.now - node.sim.config.stale_timeout_s()
    rng = node.sim.config.tx_range_m
    candidates = [e.node_id for e in node.neighbors.values()
                  if e.last_heard >= cutoff and e.role != ROLE_DEAD
                  and e.node_id not in route and e.node_id not in tried
                  and after in e.one_hop
                  and distance(node.pos, e.pos) <= rng]
    return min(candidates) if candidates else None


def _report_route_error(sim: Simulator, packet: DataPacket) -> None:
    # Control-plane shortcut: the notice reaches the source directly. The
    # data packet itself was already dropped at the detector.
    notice = RouteError(packet.dest_id)
    source_id = packet.source_id

    def deliver():
        source = sim.nodes.get(source_id)
        if source is not None and source.alive:
            handle_rerr(sim, source, notice)
    sim.schedule(sim.now, "route-error", deliver)


def handle_rerr(sim: Simulator, node, notice: RouteError) -> None:
    node.routing.routes.pop(notice.dest_id, None)

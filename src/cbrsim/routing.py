"""Cluster-based source routing: discovery over cluster heads, duplicate
suppression, reply/retry, hop-by-hop data forwarding, and the two
error-recovery policies (salvage vs. secondary-head substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from .engine import ROLE_DEAD, ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, Simulator
from .messages import DataPacket, RouteReply, RouteRequest


@dataclass
class _Pending:
    dest_id: int
    seq: Optional[int]      # None while deferred (source still undecided)
    retry: int = 0


@dataclass
class RoutingState:
    request_seq: int = 0
    pending: Dict[int, _Pending] = field(default_factory=dict)     # dest -> pending discovery
    routes: Dict[int, List[int]] = field(default_factory=dict)     # dest -> established path
    queued: Dict[int, List[int]] = field(default_factory=dict)     # dest -> waiting packet ids
    # This node's own request ids; perfbench/tracer.py and tests read it.
    seen_rreq: Set[Tuple[int, int, int]] = field(default_factory=set)


# -- traffic entry point ----------------------------------------------------

def generate_packet(sim: Simulator, source_id: int, dest_id: int) -> None:
    pid = sim.new_packet()
    source = sim.nodes[source_id]
    if source.role == ROLE_DEAD:
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
        sim.schedule(sim.now + sim.config.hello_interval_s, "discovery-deferred",
                     partial(_retry_deferred, sim, node, pending))
        return
    seq = state.request_seq
    state.request_seq += 1
    pending = _Pending(dest_id, seq=seq)
    state.pending[dest_id] = pending
    _send_rreq(sim, node, pending)


def _retry_deferred(sim: Simulator, node, pending: _Pending) -> None:
    """A deferred discovery's retry. It is still the pending one: nothing
    else removes an entry whose seq is None."""
    del node.routing.pending[pending.dest_id]
    if node.role != ROLE_DEAD:
        initiate_discovery(sim, node, pending.dest_id)


def _send_rreq(sim: Simulator, node, pending: _Pending) -> None:
    state = node.routing
    rid = (node.node_id, pending.seq, pending.retry)
    state.seen_rreq.add(rid)
    rreq = RouteRequest(rid, pending.dest_id, [node.node_id], {node.node_id})
    sim.broadcast(node.node_id, rreq)
    sim.schedule(sim.now + sim.config.rreq_timeout_s, "rreq-timeout",
                 partial(_on_rreq_timeout, sim, node, pending))


def _on_rreq_timeout(sim: Simulator, node, pending: _Pending) -> None:
    """Re-flood, or give up after max_retries, unless the discovery is no
    longer the pending one."""
    state = node.routing
    if state.pending.get(pending.dest_id) is not pending:
        return
    pending.retry += 1
    if pending.retry > sim.config.max_retries:
        del state.pending[pending.dest_id]
        for pid in state.queued.pop(pending.dest_id, ()):
            sim.account_dropped(pid, "no-route")
    elif node.role != ROLE_DEAD:
        _send_rreq(sim, node, pending)
    else:
        del state.pending[pending.dest_id]


def _should_relay(node, recorded_path: List[int], dest_id: int) -> bool:
    """Which nodes re-broadcast a request: cluster heads always, gateways
    (members who currently hear a cluster the request has not visited yet),
    and anyone who hears the destination directly. Unclustered nodes stay
    silent - the flood travels over the cluster structure only."""
    if node.role == ROLE_HEAD:
        return True
    if node.role != ROLE_MEMBER:
        return False
    for entry in node.iter_fresh_neighbors():
        if entry.sender_id == dest_id:
            return True
        if entry.cluster_id is not None and entry.cluster_id not in recorded_path:
            return True
    return node.head_id not in recorded_path   # a member always has a head


def handle_rreq(sim: Simulator, node, rreq: RouteRequest) -> None:
    # Simulator._deliver hands a node only a request whose flood has not
    # reached it; every node on the recorded path is in rreq.seen.
    rreq.seen.add(node.node_id)
    path = rreq.recorded_path + [node.node_id]
    if sim.trace is not None:
        sim.record("path", tuple(path))
    if node.node_id == rreq.dest_id:
        _start_rrep(sim, node, rreq.request_id, path)
        return
    if not _should_relay(node, rreq.recorded_path, rreq.dest_id):
        return
    sim.broadcast(node.node_id, RouteRequest(rreq.request_id, rreq.dest_id, path, rreq.seen))


def _start_rrep(sim: Simulator, node, request_id, full_path: List[int]) -> None:
    cursor = len(full_path) - 2
    sim.unicast(node.node_id, full_path[cursor], RouteReply(request_id, full_path, cursor))


def handle_rrep(sim: Simulator, node, rrep: RouteReply) -> None:
    i = rrep.cursor   # the reply was unicast to full_path[i], this node
    if i == 0:
        _establish_route(sim, node, rrep)
        return
    rrep.cursor = i - 1
    sim.unicast(node.node_id, rrep.full_path[i - 1], rrep)


def _establish_route(sim: Simulator, node, rrep: RouteReply) -> None:
    state = node.routing
    _source, seq, _retry = rrep.request_id
    dest = rrep.full_path[-1]
    pending = state.pending.get(dest)
    if pending is None or pending.seq != seq:
        return  # unknown or already-satisfied request: first reply wins
    del state.pending[dest]   # its timeout finds another pending entry, or none, and returns
    state.routes[dest] = list(rrep.full_path)
    for pid in state.queued.pop(dest, ()):
        forward_data(sim, node, DataPacket(pid, node.node_id, dest, list(rrep.full_path)))


# -- data transmission ------------------------------------------------------

def handle_data(sim: Simulator, node, packet: DataPacket) -> None:
    if node.node_id == packet.dest_id:
        sim.account_delivered(packet.packet_id)
        return
    forward_data(sim, node, packet)


def forward_data(sim: Simulator, node, packet: DataPacket) -> None:
    """Unicast the packet to the next hop on its route, or to the hop that
    recovery puts in its place, and advance the cursor past it."""
    if node.role == ROLE_DEAD:
        sim.account_dropped(packet.packet_id, "dead-forwarder")
        return
    next_hop = packet.route[packet.cursor + 1]
    if not sim.unicast(node.node_id, next_hop, packet):
        next_hop = recover_route(sim, node, packet, next_hop)
        if next_hop is None:
            return
    packet.cursor += 1
    if sim.trace is not None:
        sim.record("hop", packet.packet_id, node.node_id, next_hop)


def recover_route(sim: Simulator, node, packet: DataPacket, failed_next: int,
                  tried: Optional[Set[int]] = None) -> Optional[int]:
    """Repair the route in place after the hop to failed_next failed: put
    the failed hop's secondary head in its place, or else a neighbour that
    hears the hop after it, and unicast to that; repeat while the
    replacement fails too. No hop in `tried` is tried again. Returns the
    hop that took the packet, or None once the packet is dropped: as
    dead-forwarder when a failed transmission drained this node, or as
    route-error, with a notice to the source, when no candidate is left."""
    tried = set(tried) if tried else set()
    route, i = packet.route, packet.cursor
    after = route[i + 2] if i + 2 < len(route) else None
    while True:
        if node.role == ROLE_DEAD:
            # The failed transmission drained the reporter itself.
            sim.account_dropped(packet.packet_id, "dead-forwarder")
            return None
        tried.add(failed_next)
        hop = None
        if failed_next != packet.dest_id:
            substitute = node.secondary_of(failed_next)
            if (substitute is not None and substitute not in route
                    and substitute not in tried
                    and any(e.sender_id == substitute for e in node.iter_fresh_neighbors())):
                hop = substitute
        if hop is None and after is not None:
            hop = _salvage_candidate(node, route, after, tried)
        if hop is None:
            sim.account_dropped(packet.packet_id, "route-error")
            # Control-plane shortcut: the notice reaches the source directly.
            # The data packet itself was already dropped at the detector.
            sim.schedule(sim.now, "route-error",
                         partial(handle_rerr, sim, sim.nodes[packet.source_id], packet.dest_id))
            return None
        route[i + 1] = hop
        if sim.unicast(node.node_id, hop, packet):
            return hop
        failed_next = hop


def _salvage_candidate(node, route: List[int], after: int, tried: Set[int]) -> Optional[int]:
    """Two-hop patch: a current neighbor that itself reported hearing the hop
    after the broken one."""
    candidates = [e.sender_id for e in node.current_degree_entries()
                  if e.sender_id not in route and e.sender_id not in tried
                  and after in e.neighbor_snapshot]
    return min(candidates) if candidates else None


def handle_rerr(sim: Simulator, node, dest_id: int) -> None:
    if node.role != ROLE_DEAD:   # a dead source keeps its routes
        node.routing.routes.pop(dest_id, None)

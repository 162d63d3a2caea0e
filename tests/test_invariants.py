"""Role and route invariants that the clustering and routing code relies on
without testing them: every call of the functions below, over a matrix of
whole runs, meets the condition written next to it.

A node leaves the undecided state only by joining a head or by winning the
election; a head stops heading only by losing contention or by dying; only a
member falls back to undecided. Only an alive node's table is maintained,
and a head re-elects its secondary from a table that holds no stale entry. A
HELLO that names a secondary also names its cluster, and every HELLO is
handled at the time it carries. A route request never reaches a node twice
or a node on its recorded path, a route reply retraces its recorded path hop
by hop, a deferred discovery is still the pending one when it retries, a
data packet is only handled by the node at its cursor, and every unicast
goes to a node of the run, which the neighbour table lists exactly when it
is alive and within range of an alive sender. A member that decides whether
to relay a request has a head, a join never picks the head a member had,
and every member at the end of a run has a head of the run. Every event
scheduled is plain data: a
bound method, or a partial of a function or a bound method, that is no
closure or lambda, so a running simulation copies and pickles."""

import sys
from collections import Counter
from functools import partial
from pathlib import Path
from types import MethodType

from cbrsim import ROLE_HEAD, ROLE_MEMBER, ROLE_UNDECIDED, ScenarioConfig, routing, run_stress
from cbrsim.engine import ROLE_DEAD, Simulator
from cbrsim.geometry import distance
from cbrsim.node import Node
from cbrsim.scenario import build_simulation
from cbrsim.traces import run_failover_trace, stress_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import EVENT_KINDS  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


def _undecided_has_no_head(node):
    return None if node.role != ROLE_UNDECIDED else node.head_id is None


def _forward_data(sim, node, packet):
    if node.role == ROLE_DEAD:
        return None   # a transmission drained it: dropped as dead-forwarder
    route, i = packet.route, packet.cursor
    return route[i] == node.node_id and i + 1 < len(route)


def _table_matches_range_test(sim, sender_id, next_hop, message):
    """For an alive sender, the neighbour table lists the next hop exactly
    when it is alive and within range: the table is not stale."""
    sender, target = sim.nodes[sender_id], sim.nodes[next_hop]
    if sender.role == ROLE_DEAD:
        return None
    in_range = (target.role != ROLE_DEAD
                and distance(sender.pos, target.pos) <= sim.config.tx_range_m)
    return (next_hop in sim.alive_in_range(sender_id)) == in_range


def _members_have_heads_of_the_run(sim):
    return all(node.head_id in sim.nodes for node in sim.nodes.values()
               if node.role == ROLE_MEMBER)


# (owner, function name, condition on the call's arguments). A condition
# returns None for a call it does not apply to; such a call is not counted.
INVARIANTS = (
    (routing, "handle_rreq",
     lambda sim, node, rreq: node.node_id not in rreq.recorded_path),
    (routing, "handle_rrep",
     lambda sim, node, rrep: rrep.full_path[rrep.cursor] == node.node_id),
    (routing, "forward_data", _forward_data),
    (routing, "_start_rrep", lambda sim, node, request_id, full_path: len(full_path) >= 2),
    (routing, "_retry_deferred",
     lambda sim, node, pending: node.routing.pending.get(pending.dest_id) is pending),
    (Node, "_join", lambda node, entry: node.role != ROLE_HEAD),
    (Node, "revert_undecided", lambda node: node.role == ROLE_MEMBER),
    (Node, "_reelect_secondary", lambda node: node.role == ROLE_HEAD),
    (Node, "_reelect_secondary",
     lambda node: all(h.heard_at >= node.sim.now - node.stale_timeout_s
                      for h in node.neighbors.values())),
    (Node, "_head_contention",
     lambda node, hello, sender_id: None if node.mode != "ecbrp"
     else node.last_advertised_weight is not None),
    (Node, "become_head", lambda node, *args: not node.member_ids),
    (Node, "table_maintenance", lambda node: node.role != ROLE_DEAD),
    (Node, "on_undecided_timeout", _undecided_has_no_head),
    (Node, "_join_evaluate", _undecided_has_no_head),
    (Node, "on_hello",
     lambda node, hello, sender_id: None if hello.secondary_id is None
     else hello.cluster_id is not None),
    (Node, "on_hello", lambda node, hello, sender_id: hello.heard_at == node.sim.now),
    (Simulator, "unicast", lambda sim, sender_id, next_hop, message: next_hop in sim.nodes),
    (Simulator, "unicast", _table_matches_range_test),
    (routing, "_should_relay",
     lambda node, recorded_path, dest_id: None if node.role != ROLE_MEMBER
     else node.head_id is not None),
    (Node, "_join_best_head",
     lambda node, entries: all(e.sender_id != node.head_id for e in entries
                               if e.sender_role == ROLE_HEAD)),
)


def _matrix():
    for mode in ("cbrp", "ecbrp"):
        yield ScenarioConfig(node_count=30, duration_s=60.0, seed=1, protocol_mode=mode)
        yield stress_config(mode, 1)
        yield ScenarioConfig(node_count=60, duration_s=40.0, seed=1, protocol_mode=mode,
                             initial_energy=1e9, propagation_delay_s=0.002)


def test_unguarded_role_and_route_invariants_hold_on_every_call(monkeypatch):
    calls = Counter()

    def spy(row, owner, name, holds):
        original = getattr(owner, name)

        def checked(*args):
            verdict = holds(*args)
            if verdict is not None:
                calls[row, name] += 1
                # Fail at the first broken call: a broken duplicate rule
                # would otherwise let a flood run without end.
                assert verdict, (name, args)
            return original(*args)
        monkeypatch.setattr(owner, name, checked)

    # One more row, with state: handle_rreq sees a request once per node.
    # The pairs are of one run, as request ids repeat from run to run.
    handled = set()

    def first_receipt(sim, node, rreq):
        pair = (node.node_id, rreq.request_id)
        fresh = pair not in handled
        handled.add(pair)
        return fresh
    rows = (*INVARIANTS, (routing, "handle_rreq", first_receipt))

    for row, (owner, name, holds) in enumerate(rows):
        spy(row, owner, name, holds)
    for config in _matrix():
        handled.clear()
        sim = build_simulation(config)
        sim.run_until(config.duration_s)
        assert _members_have_heads_of_the_run(sim), config
    for mode in ("cbrp", "ecbrp"):
        handled.clear()
        assert _members_have_heads_of_the_run(run_failover_trace(mode).sim), mode
    assert len(calls) == len(rows), calls


def _plain_data(fn) -> bool:
    """fn is a bound method, or a partial of one or of a function, whose
    qualified name holds no <locals> or <lambda>; so is every partial among
    a partial's arguments."""
    if isinstance(fn, partial):
        return (_named(fn.func)
                and all(_plain_data(a) for a in fn.args if isinstance(a, partial)))
    return isinstance(fn, MethodType) and _named(fn)


def _named(fn) -> bool:
    return "<locals>" not in fn.__qualname__ and "<lambda>" not in fn.__qualname__


def test_every_scheduled_event_is_plain_data(monkeypatch):
    kinds, closures = set(), []
    schedule = Simulator.schedule

    def spy(sim, fire_time, kind, fn):
        kinds.add(kind)
        if not _plain_data(fn):
            closures.append((kind, fn))
        return schedule(sim, fire_time, kind, fn)
    monkeypatch.setattr(Simulator, "schedule", spy)
    for workload in WORKLOADS.values():
        run_pass(workload, 1, tiny=True)
    for mode in ("cbrp", "ecbrp"):
        run_failover_trace(mode)
    run_stress("ecbrp", 1)
    assert closures == []
    assert kinds == set(EVENT_KINDS)

"""Outside-in span tracer for the cbrsim benchmark.

Wraps public functions of each cbrsim layer from outside the package, records
one span per call (name, start, end, parent) in memory, and reduces the spans
to per-layer self times, counts and ratios once the traced pass ends. Nothing
under ``src/`` knows about it; ``Tracing`` patches on entry and restores the
original functions on exit.
"""

from __future__ import annotations

import weakref
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Dict, List, Tuple

from cbrsim import engine, experiment, node, routing, scenario
from cbrsim.messages import DataPacket, Hello, SecondaryAnnounce

# Every Event.kind the simulator schedules today; any other kind is counted
# under engine.events.other and its callback time goes to the engine layer.
EVENT_KINDS = ("deliver", "discovery-deferred", "hello", "join-evaluate", "kill",
               "maintenance-tick", "mobility-tick", "route-error", "rreq-timeout",
               "startup", "traffic", "undecided-timeout")

# The layer that owns each event callback's own (self) time.
EVENT_LAYER = {
    "deliver": "engine", "kill": "engine",
    "hello": "node", "startup": "node", "undecided-timeout": "node",
    "join-evaluate": "node", "maintenance-tick": "node",
    "mobility-tick": "mobility",
    "traffic": "routing", "rreq-timeout": "routing",
    "discovery-deferred": "routing", "route-error": "routing",
}

ROOT_SPAN = "bench.pass"

# (owner, attribute, span name) for functions that need only a span.
PLAIN_SPANS = (
    (engine.Simulator, "run_until", "engine.run_until"),
    (engine.Simulator, "mark_dead", "engine.mark_dead"),
    (node.Node, "build_hello", "node.hello_tx"),
    (node.Node, "table_maintenance", "node.maintenance"),
    (node.Node, "on_undecided_timeout", "node.election"),
    (node.Node, "become_head", "node.become_head"),
    (node.Node, "revert_undecided", "node.election"),
    (node.Node, "on_head_failure", "node.election"),
    (node.Node, "weight_now", "node.weight"),
    (routing, "initiate_discovery", "routing.discovery"),
    (routing, "handle_rrep", "routing.rrep"),
    (routing, "handle_rerr", "routing.rerr"),
    (routing, "generate_packet", "routing.data"),
    (routing, "handle_data", "routing.data"),
    (routing, "forward_data", "routing.data"),
    # scenario and experiment import these by name, so patch their copies.
    (scenario, "mobility_step", "mobility.step"),
    (scenario, "build_simulation", "scenario.build"),
    (experiment, "build_simulation", "scenario.build"),
    (experiment, "run_scenario", "experiment.run_scenario"),
    (experiment, "sweep", "experiment.sweep"),
)


def layer_of(span_name: str) -> str:
    if span_name == ROOT_SPAN:
        return "unattributed"
    prefix, _, rest = span_name.partition(".")
    if prefix == "event":
        return EVENT_LAYER.get(rest, "engine")
    return prefix


class SpanRecorder:
    """Spans in flat arrays: one append per field per call keeps the cost of
    recording low and the memory at 24 bytes a span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def call(self, nid: int, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named by id `nid`."""
        i = self.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def reduce(self) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
        """Per span name: inclusive seconds, self seconds and call count.
        Self time is a span's duration minus the durations of its children."""
        n = len(self._name)
        start, end, parent, name = self._start, self._end, self._parent, self._name
        children = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        incl: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            key = self.names[name[i]]
            dur = end[i] - start[i]
            incl[key] += dur
            own[key] += dur - children[i]
            calls[key] += 1
        return incl, own, calls


class Tracing:
    """Context manager that patches cbrsim for one traced pass.

    ``summary()`` turns the recorded spans and counters into the benchmark's
    per-layer metrics (plain floats, keyed by metric name)."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.count: Counter = Counter()
        self._queried: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._saved: List[Tuple[object, str, object]] = []
        self._recover_depth = 0

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wraps(original)(make(original)))

    def __enter__(self) -> "Tracing":
        rec, count, queried = self.rec, self.count, self._queried
        call = rec.call

        def plain(name):
            nid = rec.name_id(name)

            def make(fn):
                def traced(*args, **kwargs):
                    return call(nid, fn, *args, **kwargs)
                return traced
            return make

        for owner, attr, name in PLAIN_SPANS:
            self._patch(owner, attr, plain(name))
        ids = {name: rec.name_id(name) for name in (
            "engine.schedule", "engine.broadcast", "engine.unicast", "engine.neighbors",
            "engine.invalidate", "node.hello_rx", "node.secondary_rx", "node.dispatch",
            "routing.rreq", "routing.recover")}
        event_ids = {kind: rec.name_id(f"event.{kind}") for kind in EVENT_KINDS}

        def schedule(fn):
            def traced(sim, fire_time, kind, callback):
                count["scheduled"] += 1
                known = kind in event_ids
                tag = kind if known else "other"
                nid = event_ids[kind] if known else rec.name_id(f"event.{kind}")

                def run_event():
                    count["executed." + tag] += 1
                    call(nid, callback)
                return call(ids["engine.schedule"], fn, sim, fire_time, kind, run_event)
            return traced

        def broadcast(fn):
            def traced(sim, sender_id, message):
                receivers = call(ids["engine.broadcast"], fn, sim, sender_id, message)
                count["broadcast.calls"] += 1
                count["broadcast.receivers"] += len(receivers)
                return receivers
            return traced

        def unicast(fn):
            def traced(sim, sender_id, next_hop, message):
                ok = call(ids["engine.unicast"], fn, sim, sender_id, next_hop, message)
                count["unicast.calls"] += 1
                if ok:
                    count["unicast.ok"] += 1
                    if isinstance(message, DataPacket):
                        count["data.hops"] += 1
                return ok
            return traced

        def neighbors(fn):
            def traced(sim, node_id):
                seen = queried.setdefault(sim, set())
                if node_id in seen:
                    count["neighbors.reused"] += 1
                seen.add(node_id)
                return call(ids["engine.neighbors"], fn, sim, node_id)
            return traced

        def invalidate(fn):
            def traced(sim):
                queried.pop(sim, None)
                return call(ids["engine.invalidate"], fn, sim)
            return traced

        def handle_message(fn):
            def traced(self_node, message, sender_id):
                if isinstance(message, Hello):
                    nid = ids["node.hello_rx"]
                    count["hello_rx.rows"] += len(message.neighbor_snapshot)
                elif isinstance(message, SecondaryAnnounce):
                    nid = ids["node.secondary_rx"]
                else:
                    nid = ids["node.dispatch"]
                return call(nid, fn, self_node, message, sender_id)
            return traced

        def handle_rreq(fn):
            def traced(sim, rnode, rreq):
                duplicate = rreq.request_id in rnode.routing.seen_rreq
                before = count["broadcast.calls"]
                try:
                    return call(ids["routing.rreq"], fn, sim, rnode, rreq)
                finally:
                    if duplicate:
                        count["rreq.dup"] += 1
                    else:
                        count["rreq.fresh"] += 1
                        count["rreq.relayed"] += count["broadcast.calls"] - before
            return traced

        def recover_route(fn):
            def traced(sim, rnode, packet, failed_next, tried=None):
                # recover_route retries through itself; count the outermost call.
                outermost = self._recover_depth == 0
                before = sim.metrics.dropped["route-error"]
                self._recover_depth += 1
                try:
                    return call(ids["routing.recover"], fn, sim, rnode, packet, failed_next, tried)
                finally:
                    self._recover_depth -= 1
                    if outermost:
                        count["recover.calls"] += 1
                        if sim.metrics.dropped["route-error"] == before:
                            count["recover.saved"] += 1
            return traced

        self._patch(engine.Simulator, "schedule", schedule)
        self._patch(engine.Simulator, "broadcast", broadcast)
        self._patch(engine.Simulator, "unicast", unicast)
        self._patch(engine.Simulator, "alive_in_range", neighbors)
        self._patch(engine.Simulator, "invalidate_neighbors", invalidate)
        self._patch(node.Node, "handle_message", handle_message)
        self._patch(routing, "handle_rreq", handle_rreq)
        self._patch(routing, "recover_route", recover_route)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded so far. The six
        ``<layer>`` self times plus ``trace.unattributed_s`` add up to
        ``trace.wall_s``, the inclusive time of the root spans."""
        incl, own, calls = self.rec.reduce()
        c = self.count

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[layer_of(name)] += seconds
        executed = {kind: c["executed." + kind] for kind in EVENT_KINDS}
        executed["other"] = c["executed.other"]
        n_executed = sum(executed.values())

        m: Dict[str, float] = {
            "trace.wall_s": incl[ROOT_SPAN],
            "trace.unattributed_s": layer_self["unattributed"],
            "engine.self_s": layer_self["engine"],
            "engine.queue_s": own["engine.schedule"] + own["engine.run_until"],
            "engine.events": n_executed,
        }
        for kind, n in executed.items():
            m[f"engine.events.{kind}"] = n
        m.update({
            "engine.unrun_ratio": ratio(c["scheduled"] - n_executed, c["scheduled"]),
            "engine.broadcast_s": own["engine.broadcast"],
            "engine.broadcast.calls": c["broadcast.calls"],
            "engine.broadcast.fanout": ratio(c["broadcast.receivers"], c["broadcast.calls"]),
            "engine.deliver_s": own["event.deliver"],
            "engine.neighbors_s": own["engine.neighbors"],
            "engine.neighbors.calls": calls["engine.neighbors"],
            "engine.neighbors.reuse_ratio": ratio(c["neighbors.reused"], calls["engine.neighbors"]),
            "engine.unicast_s": own["engine.unicast"],
            "engine.unicast.calls": c["unicast.calls"],
            "engine.unicast.ok_ratio": ratio(c["unicast.ok"], c["unicast.calls"]),
            "engine.deaths": calls["engine.mark_dead"],
            "node.self_s": layer_self["node"],
            "node.hello_tx_s": own["node.hello_tx"],
            "node.hello_rx_s": own["node.hello_rx"],
            "node.hello_rx.calls": calls["node.hello_rx"],
            "node.hello_rx.rows": ratio(c["hello_rx.rows"], calls["node.hello_rx"]),
            "node.maintenance_s": own["node.maintenance"],
            "node.election_s": own["node.election"] + own["node.become_head"],
            "node.elections": calls["node.become_head"],
            "node.weight_s": own["node.weight"],
            "node.weight.calls": calls["node.weight"],
            "node.secondary_rx.calls": calls["node.secondary_rx"],
            "routing.self_s": layer_self["routing"],
            "routing.rreq_s": own["routing.rreq"],
            "routing.rreq.calls": calls["routing.rreq"],
            "routing.rreq.dup_ratio": ratio(c["rreq.dup"], calls["routing.rreq"]),
            "routing.rreq.relay_ratio": ratio(c["rreq.relayed"], c["rreq.fresh"]),
            "routing.rrep_s": own["routing.rrep"],
            "routing.data_s": own["routing.data"],
            "routing.data.hops": c["data.hops"],
            "routing.recover_s": own["routing.recover"],
            "routing.recover.saved_ratio": ratio(c["recover.saved"], c["recover.calls"]),
            "mobility.self_s": layer_self["mobility"],
            "mobility.step_s": own["mobility.step"],
            "mobility.step.calls": calls["mobility.step"],
            "scenario.self_s": layer_self["scenario"],
            "scenario.build_s": incl["scenario.build"],
            "experiment.overhead_s": layer_self["experiment"],
            "experiment.runs": calls["experiment.run_scenario"],
        })
        return {k: float(v) for k, v in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "engine.broadcast.fanout":
        return "receivers/call"
    if name == "node.hello_rx.rows":
        return "rows/call"
    return "count"


# Every per-layer metric, in report order. The layer self times
# (engine/node/routing/mobility/scenario .self_s and experiment.overhead_s)
# plus trace.unattributed_s add up to trace.wall_s.
PER_LAYER_METRICS = (
    "trace.wall_s", "trace.unattributed_s", "trace.overhead_s",
    "engine.self_s", "engine.queue_s", "engine.events",
    *(f"engine.events.{kind}" for kind in EVENT_KINDS + ("other",)),
    "engine.unrun_ratio", "engine.broadcast_s", "engine.broadcast.calls",
    "engine.broadcast.fanout", "engine.deliver_s", "engine.neighbors_s",
    "engine.neighbors.calls", "engine.neighbors.reuse_ratio", "engine.unicast_s",
    "engine.unicast.calls", "engine.unicast.ok_ratio", "engine.deaths",
    "node.self_s", "node.hello_tx_s", "node.hello_rx_s", "node.hello_rx.calls",
    "node.hello_rx.rows", "node.maintenance_s", "node.election_s", "node.elections",
    "node.weight_s", "node.weight.calls", "node.secondary_rx.calls",
    "routing.self_s", "routing.rreq_s", "routing.rreq.calls", "routing.rreq.dup_ratio",
    "routing.rreq.relay_ratio", "routing.rrep_s", "routing.data_s", "routing.data.hops",
    "routing.recover_s", "routing.recover.saved_ratio",
    "mobility.self_s", "mobility.step_s", "mobility.step.calls",
    "scenario.self_s", "scenario.build_s", "experiment.overhead_s", "experiment.runs",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_METRICS}

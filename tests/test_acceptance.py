"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with its measured numbers."""

import random
import time

import pytest

from cbrsim import (ROLE_HEAD, ROLE_MEMBER, ScenarioConfig,
                    run_failover_trace, run_stress, sweep, sweep_to_csv)
from cbrsim.geometry import distance
from cbrsim.scenario import build_simulation

from test_weights import PAPER_FACTORS, node_with_terms, oracle_weight, random_node

SWEEP_COUNTS = (5, 10, 20, 30, 40, 50, 60)
SWEEP_REPLICATES = 5

# Every simulation run inside this module registers here; criterion 5 then
# checks loop-freedom and packet conservation across all of them.
_ALL_RUNS = []


def _register(label, sim):
    _ALL_RUNS.append((label, sim))
    return sim


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep_runs():
    """The paired-mode node-count sweep, keeping every simulator for the
    cross-cutting loop/conservation criterion."""
    start = time.monotonic()
    cells = {}
    for n in SWEEP_COUNTS:
        for mode in ("cbrp", "ecbrp"):
            pdrs = []
            for r in range(SWEEP_REPLICATES):
                config = ScenarioConfig(node_count=n, protocol_mode=mode,
                                        seed=1 + r)
                sim = build_simulation(config)
                sim.trace = []
                m = sim.run_until(config.duration_s)
                _register(f"sweep n={n} {mode} seed={1 + r}", sim)
                pdrs.append(m.packets_delivered / m.packets_sent)
            cells[(n, mode)] = sum(pdrs) / len(pdrs)
    return cells, time.monotonic() - start


def test_criterion_1_delivery_ratio_sweep(sweep_runs):
    cells, elapsed = sweep_runs
    diffs = {n: cells[(n, "ecbrp")] - cells[(n, "cbrp")] for n in SWEEP_COUNTS}
    overall = sum(diffs.values()) / len(diffs)
    ok = (all(d >= -0.02 for d in diffs.values())
          and overall > 0.0
          and elapsed < 300.0)
    detail = (f"per-count diffs {['%+.4f' % diffs[n] for n in SWEEP_COUNTS]}, "
              f"overall {overall:+.5f}, runtime {elapsed:.1f}s")
    _report(1, "enhanced mode matches or beats baseline delivery ratio", ok, detail)
    assert all(d >= -0.02 for d in diffs.values()), diffs
    assert overall > 0.0, diffs
    assert elapsed < 300.0


def test_criterion_2_weight_oracle_equivalence():
    hand_ok = (node_with_terms(0, 70.0, 0.0, 0.0, PAPER_FACTORS).weight_now() == 14.0
               and node_with_terms(1, 0.0, 0.0, 0.0, PAPER_FACTORS).weight_now() == 0.7)
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(1000):
        node = random_node(rng)
        want = oracle_weight(node)
        rel = abs(node.weight_now() - want) / max(1.0, abs(want))
        worst = max(worst, rel)
    ok = hand_ok and worst <= 1e-12
    _report(2, "election weight matches exact-arithmetic oracle", ok,
            f"hand values exact={hand_ok}, worst relative error {worst:.2e}/1e-12")
    assert hand_ok
    assert worst <= 1e-12


def test_criterion_3_scripted_failover():
    start = time.monotonic()
    enhanced = run_failover_trace("ecbrp")
    baseline = run_failover_trace("cbrp")
    elapsed = time.monotonic() - start
    _register("failover ecbrp", enhanced.sim)
    _register("failover cbrp", baseline.sim)
    e_ok = (enhanced.delivered_after_kill > 0
            and enhanced.sim.metrics.cluster_reformations == 0
            and enhanced.sim.metrics.total_dropped == 0)
    b_ok = (baseline.sim.metrics.cluster_reformations >= 1
            or baseline.sim.metrics.dropped["route-error"] >= 1)
    ok = e_ok and b_ok and elapsed < 1.0
    _report(3, "secondary head keeps mid-flow traffic alive", ok,
            f"enhanced: {enhanced.delivered_after_kill} delivered after head death, "
            f"{enhanced.sim.metrics.cluster_reformations} reformations; "
            f"baseline: {baseline.sim.metrics.cluster_reformations} reformations, "
            f"{baseline.sim.metrics.dropped['route-error']} route-error drops; "
            f"runtime {elapsed:.2f}s")
    assert e_ok
    assert b_ok
    assert elapsed < 1.0


def test_criterion_4_static_cluster_invariants():
    violations = []
    for trial in range(100):
        rng = random.Random(9000 + trial)
        n = rng.randint(2, 40)
        config = ScenarioConfig(node_count=n, protocol_mode="ecbrp", seed=trial,
                                node_speed_mps=0.0, duration_s=12.0, flows=0,
                                initial_energy=10_000.0)
        sim = build_simulation(config)
        sim.trace = []
        sim.run_until(config.duration_s)
        _register(f"static topology {trial}", sim)
        rng_m = config.tx_range_m
        heads = [x for x in sim.nodes.values() if x.role == ROLE_HEAD]
        for x in sim.nodes.values():
            if x.role == ROLE_MEMBER:
                mine = [h for h in heads if h.node_id == x.head_id
                        and distance(x.pos, h.pos) <= rng_m]
                if len(mine) != 1:
                    violations.append(f"trial {trial}: member {x.node_id} "
                                      f"lacks exactly one in-range head")
        for i, a in enumerate(heads):
            for b in heads[i + 1:]:
                if distance(a.pos, b.pos) <= rng_m:
                    violations.append(f"trial {trial}: heads {a.node_id},"
                                      f"{b.node_id} in mutual range")
        for h in heads:
            if h.secondary is not None and h.secondary not in h.member_ids:
                violations.append(f"trial {trial}: secondary {h.secondary} "
                                  f"not a member of cluster {h.node_id}")
        for _t, head_id, weight, contested in sim.records("election"):
            if any(weight > w for w in contested):
                violations.append(f"trial {trial}: head {head_id} elected with "
                                  f"non-minimal weight {weight} vs {contested}")
    ok = not violations
    _report(4, "cluster invariants on 100 random static topologies", ok,
            "no violations" if ok else f"{len(violations)} violations, "
                                       f"first: {violations[0]}")
    assert not violations, violations[:5]


def test_criterion_5_loop_freedom_and_conservation():
    assert len(_ALL_RUNS) > 100, "earlier criteria must register their runs"
    bad = []
    for label, sim in _ALL_RUNS:
        if sim.trace is None:
            bad.append(f"{label}: trace stream off, paths unchecked")
            continue
        for _t, path in sim.records("path"):
            if len(set(path)) != len(path):
                bad.append(f"{label}: duplicate id in recorded path {path}")
                break
        m = sim.metrics
        if m.packets_sent != (m.packets_delivered + m.total_dropped
                              + sim.outstanding_packets):
            bad.append(f"{label}: conservation violated")
        if m.in_flight != sim.outstanding_packets or m.in_flight < 0:
            bad.append(f"{label}: in-flight bookkeeping violated")
    ok = not bad
    _report(5, "loop-freedom and exact packet conservation", ok,
            f"{len(_ALL_RUNS)} runs checked"
            + ("" if ok else f"; first failure: {bad[0]}"))
    assert not bad, bad[:5]


def test_criterion_6_repeated_seed_is_byte_identical():
    config = ScenarioConfig(duration_s=60.0)
    a = sweep_to_csv(sweep([30], ["cbrp", "ecbrp"], 2, config))
    b = sweep_to_csv(sweep([30], ["cbrp", "ecbrp"], 2, config))
    ok = a == b
    _report(6, "same seed reproduces byte-identical CSV", ok,
            f"{len(a.splitlines())} lines compared")
    assert ok


def test_criterion_7_reformation_frequency_under_head_stress():
    wins = 0
    pairs = []
    for seed in range(1, 6):
        baseline = run_stress("cbrp", seed)
        enhanced = run_stress("ecbrp", seed)
        pairs.append((baseline.cluster_reformations, enhanced.cluster_reformations))
        if enhanced.cluster_reformations < baseline.cluster_reformations:
            wins += 1
    ok = wins >= 4
    _report(7, "fewer reformations under head-death stress", ok,
            f"enhanced wins {wins}/5 paired seeds; (baseline, enhanced) = {pairs}")
    assert wins >= 4, pairs

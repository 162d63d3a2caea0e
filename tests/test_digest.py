"""Behaviour guard: one full-size pass of each benchmark workload at seeds 1,
2 and 3 must reproduce the digests committed in
perfbench/expected_digests.json. The
table is only read here; perfbench/refresh_digests.py regenerates it. The
trace stream must not change behaviour either: every run of a small pass
gives the same digest with the stream on and off."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from cbrsim.scenario import build_simulation  # noqa: E402
from workloads import WORKLOADS, run_digest, run_pass  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text())


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pass_matches_committed_digests(name, seed):
    result = run_pass(WORKLOADS[name], seed=seed)
    assert [r.problems for r in result.runs if r.problems] == []
    assert [r.digest for r in result.runs] == EXPECTED[name][str(seed)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_stream_does_not_change_behaviour(name):
    recorded = 0
    for config in WORKLOADS[name].configs(1, True):
        digests = []
        for trace in (None, []):
            sim = build_simulation(config)
            sim.trace = trace
            sim.run_until(config.duration_s)
            digests.append(run_digest(sim))
        recorded += len(sim.trace)
        assert digests[0] == digests[1], config
    assert recorded

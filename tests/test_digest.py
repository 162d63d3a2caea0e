"""Behaviour guard: one full-size pass of each benchmark workload at seed 1
must reproduce the digests committed in perfbench/expected_digests.json. The
table is only read here; perfbench/refresh_digests.py regenerates it."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, run_pass  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_1_pass_matches_committed_digests(name):
    result = run_pass(WORKLOADS[name], seed=1)
    assert [r.problems for r in result.runs if r.problems] == []
    assert [r.digest for r in result.runs] == EXPECTED[name]["1"]

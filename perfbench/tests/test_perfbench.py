"""Tests of the benchmark itself, at a tiny size that takes seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SELF_TIMES = ("engine.self_s", "node.self_s", "routing.self_s", "mobility.self_s",
                    "scenario.self_s", "experiment.overhead_s", "trace.unattributed_s")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_harness():
    from tracer import PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
        assert f"  {spec['name']} = " in proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, second = (result_of(bench(workload, trace=1))["metrics"] for _ in range(2))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
        if spec["unit"] != "s":  # counts and ratios are deterministic
            assert first[spec["name"]]["value"] == second[spec["name"]]["value"], spec["name"]
    total = sum(first[name]["value"] for name in LAYER_SELF_TIMES)
    assert math.isclose(total, first["trace.wall_s"]["value"], rel_tol=1e-9)
    assert first["engine.events"]["value"] > 0


def test_digest_flags_a_different_seed():
    workload = WORKLOADS["flood-traffic"]
    one = run_pass(workload, 1, tiny=True)
    two = run_pass(workload, 2, tiny=True)
    table = [r.digest for r in one.runs]
    assert run.count_failures([one], expected=table)[0] == 0
    failed, messages = run.count_failures([two], expected=table)
    assert failed == len(two.runs) and "committed table" in messages[0]
    failed, messages = run.count_failures([one, two])
    assert failed == len(two.runs) and "differs from pass 0" in messages[0]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("flood-traffic", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

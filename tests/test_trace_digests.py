"""Behaviour guard on the record stream: every run of a fixed matrix must
reproduce the trace digest committed in tests/trace_digests.json. The table
is only read here; tests/refresh_trace_digests.py regenerates it."""

import json
import sys

import pytest

import refresh_trace_digests
from cbrsim import build_simulation
from cbrsim.engine import Simulator
from refresh_trace_digests import TABLE, cases, trace_digest

EXPECTED = json.loads(TABLE.read_text())
CASES = cases()
# Scenario -> the routing timer whose delay equals its flows' packet period.
RATE_TIES = {"rate-is-interval": "discovery-deferred", "rate-is-timeout": "rreq-timeout"}


def test_table_covers_the_matrix():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_run_matches_committed_trace_digest(name):
    assert trace_digest(CASES[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", [n for n in CASES if n.split("/")[1] in RATE_TIES])
def test_a_rate_tie_fires_a_traffic_and_a_routing_timer_at_one_instant(name, monkeypatch):
    config = CASES[name]
    timer = RATE_TIES[name.split("/")[1]]
    due = {"traffic": set(), timer: set()}
    schedule = Simulator.schedule

    def spy(sim, fire_time, kind, fn):
        if kind in due and fire_time <= config.duration_s:
            due[kind].add(fire_time)
        return schedule(sim, fire_time, kind, fn)

    monkeypatch.setattr(Simulator, "schedule", spy)
    build_simulation(config).run_until(config.duration_s)
    assert due["traffic"] & due[timer]


def test_check_reports_differing_cases_and_writes_nothing(tmp_path, monkeypatch, capsys):
    table = dict.fromkeys(CASES, "0" * 64)
    table["cbrp/stress/2"] = "f" * 64
    text = json.dumps(table, indent=1) + "\n"
    path = tmp_path / "trace_digests.json"
    path.write_text(text)
    monkeypatch.setattr(refresh_trace_digests, "TABLE", path)
    monkeypatch.setattr(refresh_trace_digests, "trace_digest", lambda config: "0" * 64)
    monkeypatch.setattr(sys, "argv", ["refresh_trace_digests.py", "--check"])
    assert refresh_trace_digests.main() == 1
    assert capsys.readouterr().out.splitlines()[0] == "differs: cbrp/stress/2"
    assert path.read_text() == text
    table["cbrp/stress/2"] = "0" * 64
    path.write_text(json.dumps(table))
    assert refresh_trace_digests.main() == 0


@pytest.mark.parametrize("a, b, expected", [
    ([(0.0, "join", 1, 2), (1.0, "hop", 3)], [(0.0, "join", 1, 2), (1.0, "hop", 3)], None),
    ([(0.0, "join", 1, 2), (1.0, "hop", 3)], [(0.0, "join", 1, 2), (1.0, "hop", 4)],
     (1, (1.0, "hop", 3), (1.0, "hop", 4))),
    (["a", "b"], ["a", "b", "c"], (2, None, "c")),
    (["a", "b"], [], (0, "a", None)),
])
def test_first_divergence_finds_the_first_differing_record(a, b, expected):
    assert refresh_trace_digests.first_divergence(a, b) == expected


def test_explain_prints_the_first_differing_record_of_each_case(tmp_path, monkeypatch, capsys):
    here = {"one": ["(0.0, 'join', 1, 2)", "{'m': 1}"], "two": ["(0.0, 'hop', 1)", "{'m': 2}"]}
    other = {"one": here["one"], "two": ["(0.0, 'hop', 1)", "(1.0, 'hop', 2)", "{'m': 2}"]}
    monkeypatch.setattr(refresh_trace_digests, "cases", lambda: {"one": "one", "two": "two"})
    monkeypatch.setattr(refresh_trace_digests, "trace_lines", here.__getitem__)
    monkeypatch.setattr(refresh_trace_digests, "other_trace_lines",
                        lambda src, config: other[config])
    monkeypatch.setattr(sys, "argv", ["refresh_trace_digests.py", "--explain", str(tmp_path)])
    assert refresh_trace_digests.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: two at record 1",
        "  here:  {'m': 2}",
        "  other: (1.0, 'hop', 2)",
        f"1 of 2 traces differ from those under {tmp_path}",
    ]
    other["two"] = here["two"]
    assert refresh_trace_digests.main() == 0


FAKE_CBRSIM = """
import dataclasses
from types import SimpleNamespace as ScenarioConfig
stress_config = None

@dataclasses.dataclass
class Metrics:
    runs: int = 1

class Sim:
    def run_until(self, t):
        self.trace.append((t, "fake"))
        return Metrics()

def build_simulation(config):
    return Sim()
"""


def test_other_trace_lines_imports_cbrsim_from_the_given_tree(tmp_path):
    config = refresh_trace_digests.ScenarioConfig(node_count=5, duration_s=5.0, seed=2)
    checkout = refresh_trace_digests.HERE.parent   # cbrsim is in its src directory
    assert (refresh_trace_digests.other_trace_lines(checkout, config)
            == refresh_trace_digests.trace_lines(config))
    (tmp_path / "cbrsim").mkdir()
    (tmp_path / "cbrsim" / "__init__.py").write_text(FAKE_CBRSIM)
    assert refresh_trace_digests.other_trace_lines(tmp_path, config) == [
        "(5.0, 'fake')", "{'runs': 1}"]

"""Behaviour guard on the record stream: every run of a fixed matrix must
reproduce the trace digest committed in tests/trace_digests.json. The table
is only read here; tests/refresh_trace_digests.py regenerates it."""

import json
import sys

import pytest

import refresh_trace_digests
from refresh_trace_digests import TABLE, cases, trace_digest

EXPECTED = json.loads(TABLE.read_text())
CASES = cases()


def test_table_covers_the_matrix():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_run_matches_committed_trace_digest(name):
    assert trace_digest(CASES[name]) == EXPECTED[name]


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

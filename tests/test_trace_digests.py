"""Behaviour guard on the record stream: every run of a fixed matrix must
reproduce the trace digest committed in tests/trace_digests.json. The table
is only read here; tests/refresh_trace_digests.py regenerates it."""

import json

import pytest

from refresh_trace_digests import TABLE, cases, trace_digest

EXPECTED = json.loads(TABLE.read_text())
CASES = cases()


def test_table_covers_the_matrix():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_run_matches_committed_trace_digest(name):
    assert trace_digest(CASES[name]) == EXPECTED[name]

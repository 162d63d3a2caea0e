"""The alternating A/B benchmark script, with its benchmark runs faked."""

import argparse
import importlib
import json

import pytest

import ab_pairs


def _result(wall_ref, rss, failed=0):
    values = {"wall_ref": wall_ref, "node_s_per_ref": 100.0 / wall_ref,
              "peak_rss_mb": rss, "setup_s": 0.005}
    return {"correct": failed == 0, "attempted": 3, "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def test_pairs_alternate_and_each_metric_is_summarised(monkeypatch, capsys):
    calls = []
    runs = {"a": iter([_result(3.0, 20.0), _result(3.2, 20.0), _result(3.1, 20.0)]),
            "b": iter([_result(2.5, 20.5), _result(2.6, 20.5), _result(3.3, 20.5, failed=1)])}

    def fake_run(checkout, args):
        calls.append(str(checkout))
        return next(runs[str(checkout)])
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    status = ab_pairs.main(["a", "b", "--workload", "flood-traffic", "--pairs", "3"])
    out = capsys.readouterr().out
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert status == 1
    assert "FAILED: change pair 2 reported failed 1 of 3" in out
    lines = out.splitlines()
    wall = lines.index("wall_ref (lower is better)")
    assert lines[wall + 1] == "  parent  median 3.1  quartiles [3.05, 3.15]"
    assert lines[wall + 2] == "  change  median 2.6  quartiles [2.55, 2.95]"
    assert lines[wall + 3] == "  change/parent 0.839; change better in 2 of 3 pairs"
    assert "node_s_per_ref (higher is better)" in lines
    assert "  change/parent 1.025; change better in 0 of 3 pairs" in lines   # peak_rss_mb


def test_the_gain_claim_and_the_bound_get_a_verdict(monkeypatch, capsys):
    # wall_ref: the change wins 9 of 10 pairs by ~20%, far outside the
    # parent's quartiles. peak_rss_mb: 30% worse, past the 15% bound.
    parent = [3.0, 3.1, 2.9, 3.05, 2.95, 3.0, 3.1, 2.9, 3.0, 3.0]
    change = [2.4, 2.5, 2.3, 2.45, 2.35, 2.4, 3.2, 2.3, 2.4, 2.4]
    runs = {"a": iter([_result(w, 20.0) for w in parent]),
            "b": iter([_result(w, 26.0) for w in change])}
    monkeypatch.setattr(ab_pairs, "run_once", lambda checkout, args: next(runs[str(checkout)]))
    status = ab_pairs.main(["a", "b", "--workload", "flood-traffic", "--pairs", "10"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    wall = lines.index("wall_ref (lower is better)")
    assert lines[wall + 4] == ("  gain claim met: better in 9 of 10 pairs, need 9; "
                               "median gap 0.6 > parent IQR 0.075")
    assert lines[wall + 5] == "  bound kept: change median 20.0% better than parent, bound 25%"
    rss = lines.index("peak_rss_mb (lower is better)")
    assert lines[rss + 4] == ("  gain claim not met: better in 0 of 10 pairs, need 9; "
                              "median gap -6 <= parent IQR 0")
    assert lines[rss + 5] == "  bound exceeded: change median 30.0% worse than parent, bound 15%"
    setup = lines.index("setup_s (lower is better)")   # a tie: neither gain nor loss
    assert lines[setup + 4].startswith("  gain claim not met: better in 0 of 10 pairs")
    assert lines[setup + 5] == "  bound kept: change median 0.0% worse than parent, bound 25%"


def test_a_narrow_win_in_too_few_pairs_is_no_gain(monkeypatch, capsys):
    parent = [3.0, 3.4, 2.6, 3.2, 2.8]
    change = [2.9, 3.3, 2.7, 3.1, 2.7]     # better in 4 of 5 pairs, by less than the IQR
    runs = {"a": iter([_result(w, 20.0) for w in parent]),
            "b": iter([_result(w, 20.0) for w in change])}
    monkeypatch.setattr(ab_pairs, "run_once", lambda checkout, args: next(runs[str(checkout)]))
    ab_pairs.main(["a", "b", "--workload", "flood-traffic", "--pairs", "5"])
    lines = capsys.readouterr().out.splitlines()
    wall = lines.index("wall_ref (lower is better)")
    assert lines[wall + 4] == ("  gain claim not met: better in 4 of 5 pairs, need 5; "
                               "median gap 0.1 <= parent IQR 0.4")


def test_each_workload_of_a_list_runs_its_pairs_and_gets_its_block(monkeypatch, capsys):
    calls = []
    runs = {("a", "flood-traffic"): iter([_result(3.0, 20.0), _result(3.2, 20.0)]),
            ("b", "flood-traffic"): iter([_result(2.5, 20.0), _result(2.6, 20.0)]),
            ("a", "paper-sweep"): iter([_result(9.0, 30.0), _result(9.2, 30.0)]),
            ("b", "paper-sweep"): iter([_result(9.1, 30.0), _result(9.3, 30.0, failed=2)])}

    def fake_run(checkout, args):
        calls.append((str(checkout), args.workload))
        return next(runs[str(checkout), args.workload])
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    status = ab_pairs.main(["a", "b", "--workload", "flood-traffic,paper-sweep", "--pairs", "2"])
    out = capsys.readouterr().out
    assert calls == [("a", "flood-traffic"), ("b", "flood-traffic"),
                     ("b", "flood-traffic"), ("a", "flood-traffic"),
                     ("a", "paper-sweep"), ("b", "paper-sweep"),
                     ("b", "paper-sweep"), ("a", "paper-sweep")]
    assert status == 1   # a failed run in the second workload still counts
    lines = out.splitlines()
    flood = lines.index("flood-traffic seed 1, 2 pairs, 30 s each")
    sweep = lines.index("paper-sweep seed 1, 2 pairs, 30 s each")
    assert flood < sweep
    assert lines[flood + 2] == "  parent  median 3.1  quartiles [3.05, 3.15]"
    assert lines[sweep + 2] == "  parent  median 9.1  quartiles [9.05, 9.15]"
    assert lines[sweep + 3] == "  change  median 9.2  quartiles [9.15, 9.25]"
    assert [line for line in lines if line.startswith("FAILED")] == [
        "FAILED: change pair 1 reported failed 2 of 3"]
    assert lines.index("FAILED: change pair 1 reported failed 2 of 3") > sweep


class _Parsed(Exception):
    pass


def _parsed_flags(tool, monkeypatch):
    """The flags a tool's main() parses from ["a", "b"]; it stops right there."""
    parse = argparse.ArgumentParser.parse_args

    def parse_and_stop(parser, argv):
        raise _Parsed(parse(parser, argv))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_stop)
    with pytest.raises(_Parsed) as parsed:
        importlib.import_module(tool).main(["a", "b"])
    return parsed.value.args[0]


@pytest.mark.parametrize("tool", ["ab_pairs", "call_counts", "live_bytes", "trace_counts"])
def test_every_tool_defaults_to_every_benchmark_workload(tool, monkeypatch):
    names = [w["name"] for w in json.loads(ab_pairs.SPEC.read_text())["workloads"]]
    assert _parsed_flags(tool, monkeypatch).workload.split(",") == names


def test_ab_pairs_runs_ten_pairs_by_default(monkeypatch):
    # Ten pairs: with fewer, nine tenths of them is every pair.
    assert _parsed_flags("ab_pairs", monkeypatch).pairs == 10

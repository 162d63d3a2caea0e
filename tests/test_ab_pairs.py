"""The alternating A/B benchmark script, with its benchmark runs faked."""

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

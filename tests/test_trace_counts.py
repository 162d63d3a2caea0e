"""The traced count comparison, run against fake checkouts whose
perfbench/run.py prints a canned result."""

import json

import trace_counts

FAKE_RUN = """\
import json, sys
args = sys.argv[1:]
assert args[args.index("--trace") + 1] == "1", args
assert args[args.index("--seconds") + 1] == "1", args
results = json.load(open("results.json"))
print("workload summary line")
print(json.dumps(results[args[args.index("--workload") + 1]]))
"""


def _result(wall_s, calls, ratio, failed=0):
    metrics = {"trace.wall_s": (wall_s, "s"), "engine.unicast.calls": (calls, "count"),
               "engine.unicast.ok_ratio": (ratio, "ratio"), "engine.unicast_s": (0.1, "s")}
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def _checkout(tmp_path, name, results):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "results.json").write_text(json.dumps(results))
    return str(root)


def test_equal_counts_pass_whatever_the_timings(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"beacon-dense": _result(2.0, 10, 0.5)})
    change = _checkout(tmp_path, "change", {"beacon-dense": _result(3.0, 10, 0.5)})
    assert trace_counts.main([parent, change, "--workload", "beacon-dense"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "beacon-dense seed 1: 0 of 2 count metrics differ"]


def test_each_differing_count_is_printed_and_fails(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"flood-traffic": _result(2.0, 10, 0.5),
                                            "paper-sweep": _result(2.0, 7, 0.25)})
    change = _checkout(tmp_path, "change", {"flood-traffic": _result(2.0, 11, 0.5),
                                            "paper-sweep": _result(2.0, 7, 0.25)})
    assert trace_counts.main([parent, change, "--workload", "flood-traffic,paper-sweep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "flood-traffic seed 1: 1 of 2 count metrics differ",
        "  engine.unicast.calls: parent 10  change 11",
        "paper-sweep seed 1: 0 of 2 count metrics differ"]


def test_a_failed_run_fails_with_equal_counts(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {"paper-sweep": _result(2.0, 7, 0.25)})
    change = _checkout(tmp_path, "change", {"paper-sweep": _result(2.0, 7, 0.25, failed=1)})
    assert trace_counts.main([parent, change, "--workload", "paper-sweep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "paper-sweep seed 1: 0 of 2 count metrics differ",
        "FAILED: change reported failed 1 of 2"]

"""The call counter, run at tiny size on this checkout and on fake ones."""

import re
from pathlib import Path

import call_counts

ROOT = Path(__file__).resolve().parent.parent
TOTALS = re.compile(r"  ([a-z-]+): ([\d,]+) Python calls, ([\d,]+) C calls per pass")


def test_two_runs_of_one_checkout_count_the_same_calls(capsys):
    assert call_counts.main([str(ROOT), str(ROOT), "--size", "tiny",
                             "--workload", "beacon-dense,paper-sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = f"{ROOT} seed 1 size tiny:"
    assert [i for i, line in enumerate(lines) if line == header] == [0, 3]
    assert lines[1:3] == lines[4:6]
    assert [TOTALS.fullmatch(line).group(1) for line in lines[1:3]] == [
        "beacon-dense", "paper-sweep"]
    assert all(int(TOTALS.fullmatch(line).group(2).replace(",", "")) > 0 for line in lines[1:3])
    assert lines[6] == f"{ROOT} -> {ROOT}:"
    for line in lines[8::2]:
        assert line == "    no function's call count differs"


FAKE_WORKLOADS = """\
from dataclasses import dataclass

from cbrsim import step


@dataclass
class Record:
    problems: list


@dataclass
class Pass:
    runs: list


WORKLOADS = {"fake": None}


def steps(workload, seed, tiny):
    return [lambda: Pass([Record([]) for _ in range(step.run())])]
"""

FAKE_STEP = """\
def helper():
    return len([0])


def run():
    for _ in range({calls}):
        helper()
    return 2
"""


def _fake_checkout(root: Path, calls: int) -> Path:
    (root / "src" / "cbrsim").mkdir(parents=True)
    (root / "src" / "cbrsim" / "__init__.py").write_text("")
    (root / "src" / "cbrsim" / "step.py").write_text(FAKE_STEP.format(calls=calls))
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    return root


def test_two_checkouts_print_the_function_whose_count_differs(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 3)
    change = _fake_checkout(tmp_path / "change", 10)
    assert call_counts.main([str(parent), str(change), "--workload", "fake"]) == 0
    lines = capsys.readouterr().out.splitlines()
    totals = [TOTALS.fullmatch(lines[i]) for i in (1, 3)]
    python = [int(m.group(2).replace(",", "")) for m in totals]
    c_calls = [int(m.group(3).replace(",", "")) for m in totals]
    assert python[1] - python[0] == 7 and c_calls[1] - c_calls[0] == 7   # helper and len
    assert lines[4] == f"{parent} -> {change}:"
    assert lines[5].startswith(f"  fake: Python calls {python[0]:,} -> {python[1]:,} (+")
    assert lines[6:] == ["    the functions whose call counts differ most:",
                         "      +7  src/cbrsim/step.py:helper (3 -> 10)"]

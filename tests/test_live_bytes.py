"""The tracemalloc tool, run at tiny size on this checkout."""

import re
from pathlib import Path

import live_bytes

ROOT = Path(__file__).resolve().parent.parent
RUN = re.compile(r"    e?cbrp n=\d+ seed=\d+: (\d+\.\d\d) MB live at its end")


def test_a_tiny_pass_reports_each_run_its_peak_and_sites_inside_the_checkout(capsys):
    assert live_bytes.main([str(ROOT), "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{ROOT} seed 1 size tiny:"
    starts = [i for i, line in enumerate(lines) if re.fullmatch(r"  [a-z-]+:", line)]
    blocks = {lines[i].strip(" :"): lines[i + 1:j]
              for i, j in zip(starts, [*starts[1:], len(lines)])}
    runs_per_pass = {"beacon-dense": 2, "flood-traffic": 6, "paper-sweep": 8}
    assert list(blocks) == list(runs_per_pass)
    for name, block in blocks.items():
        runs = runs_per_pass[name]
        live = [float(RUN.fullmatch(line).group(1)) for line in block[:runs]]
        assert min(live) > 0
        peak = re.fullmatch(r"    pass peak: (\d+\.\d\d) MB", block[runs])
        assert peak and float(peak.group(1)) >= max(live)
        assert block[runs + 1].startswith("    top 5 sites at the end of ")
        sites = block[runs + 2:]
        assert len(sites) == 5
        assert all(str(ROOT) not in site for site in sites)
        assert any(site.startswith("      src/cbrsim/") for site in sites)


FAKE_WORKLOADS = """\
from dataclasses import dataclass

@dataclass
class Record:
    label: str
    problems: list

@dataclass
class Pass:
    runs: list

WORKLOADS = {"fake": None}
kept = []

def inspect_run(config, sim):
    return Record(config, ["broke an invariant"] if config == "bad" else [])

def run(config):
    kept.append(bytearray(1_000_000))
    return Pass([inspect_run(config, None)])

def steps(workload, seed, tiny):
    return [lambda: run("good"), lambda: run("bad"),
            lambda: Pass([Record("raised", ["raised ValueError"])])]
"""


def test_a_run_that_raised_or_broke_an_invariant_fails(tmp_path, capsys):
    (tmp_path / "src" / "cbrsim").mkdir(parents=True)
    (tmp_path / "src" / "cbrsim" / "__init__.py").write_text("")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    assert live_bytes.main([str(tmp_path), "--workload", "fake"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [f"{tmp_path} seed 1 size full:", "  fake:",
                         "    good: 1.00 MB live at its end",
                         "    bad: 2.00 MB live at its end"]
    assert 2.0 <= float(lines[4].removeprefix("    pass peak: ").removesuffix(" MB")) < 2.1
    assert lines[5] == "    top 5 sites at the end of bad:"
    assert lines[6].startswith("      perfbench/workloads.py:19: 2.00")   # the bytearrays
    assert lines[-1] == "    FAILED: 2 of 3 runs"

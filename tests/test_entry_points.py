"""Every function and method defined in src/cbrsim runs from the program's
own entry points: a tiny pass of each benchmark workload, the three command
line subcommands, the head-death stress run and the library calls of
demos/delivery_sweep.py. A function that none of them reaches is code that
only its tests call."""

import ast
import sys
from pathlib import Path

import cbrsim
from cbrsim import ScenarioConfig, cli, run_stress, sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, run_pass  # noqa: E402

PACKAGE = Path(cbrsim.__file__).resolve().parent
SMALL_CONFIG = "# a small scenario\nnode_count = 8\nduration_s = 12\ntraffic_start_s = 2\n"


def defined_functions():
    """(file, first line) -> file:qualname of every def under the package.
    A code object's first line is that of its first decorator, if any."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{path.name}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def run_entry_points(tmp_path):
    for workload in WORKLOADS.values():
        assert [r.problems for r in run_pass(workload, 1, tiny=True).runs if r.problems] == []
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    assert cli.main(["run", "--config", str(config), "--set", "p_v_mode=energy_consumed",
                     "--snapshot", str(tmp_path / "run.svg"), "--weight-labels"]) == 0
    assert cli.main(["sweep", "--config", str(config), "--nodes", "4", "--replicates", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert cli.main(["trace", "--verbose"]) == 0
    run_stress("ecbrp", 1)
    result = sweep([5], ["ecbrp"], 1, ScenarioConfig(duration_s=12.0, traffic_start_s=2.0))
    assert result.mean_pdr(5, "ecbrp") is not None


def test_every_function_runs_from_an_entry_point(tmp_path, capsys):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_entry_points(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}
    defined = defined_functions()
    missed = [name for key, name in defined.items() if key not in reached]
    assert not missed, f"reached from no entry point: {', '.join(missed)}"

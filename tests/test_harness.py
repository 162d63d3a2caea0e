"""Experiment harness, metrics, CSV emission, config parsing, snapshots,
and the command line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cbrsim
from cbrsim import (ConfigError, RunMetrics, ScenarioConfig, load_config_file,
                    pdr, run_scenario, sweep, sweep_to_csv, write_sweep_csv)
from cbrsim.cli import main
from cbrsim.config import MAX_FIRINGS
from cbrsim.engine import Simulator
from cbrsim.experiment import CSV_COLUMNS
from cbrsim.geometry import Position
from cbrsim.scenario import _draw_flows, build_simulation
from cbrsim.snapshot import render_snapshot, write_snapshot

from conftest import static_config, static_sim


def tiny_config(**overrides):
    """A fast-running mobile scenario for harness plumbing tests."""
    base = dict(node_count=10, duration_s=10.0, seed=5)
    base.update(overrides)
    return ScenarioConfig(**base)


# -- metrics ----------------------------------------------------------------

def test_pdr_ratio():
    assert pdr(RunMetrics(packets_sent=100, packets_delivered=90)) == 0.9


def test_pdr_absent_when_nothing_sent():
    assert pdr(RunMetrics()) is None


def test_pdr_one_when_everything_delivered():
    assert pdr(RunMetrics(packets_sent=37, packets_delivered=37)) == 1.0


# -- single runs ------------------------------------------------------------

def test_two_static_nodes_one_flow_deliver_everything():
    config = static_config(node_count=2, duration_s=30.0)
    sim = build_simulation(config,
                           positions={0: Position(0, 0), 1: Position(40, 0)},
                           flow_pairs=[(0, 1)])
    metrics = sim.run_until(config.duration_s)
    assert metrics.packets_sent > 0
    assert pdr(metrics) == 1.0


def test_one_scripted_node_draws_no_flow():
    # flows=1 asks for a flow, but a lone node has no one to send to: the
    # draw must give up rather than look for a second node forever.
    sim = build_simulation(static_config(flows=1), positions={0: Position(0, 0)})
    assert _draw_flows(sim) == []


def test_zero_packet_rate_schedules_no_traffic():
    config = static_config(duration_s=30.0, packets_per_second=0.0)
    sim = build_simulation(config, positions={0: Position(0, 0), 1: Position(40, 0)},
                           flow_pairs=[(0, 1)])
    assert sim.run_until(config.duration_s).packets_sent == 0


def test_single_node_config_rejected():
    with pytest.raises(ConfigError, match="node_count"):
        ScenarioConfig(node_count=1).validate()


def test_run_is_seed_deterministic():
    config = tiny_config()
    assert run_scenario(config) == run_scenario(config)


# -- sweeps -----------------------------------------------------------------

def test_sweep_shape_24_cells_120_runs():
    config = tiny_config(node_count=5, duration_s=0.5, flows=0)
    result = sweep(list(range(5, 65, 5)), ["cbrp", "ecbrp"], 5, config)
    assert len(result.cells) == 24
    assert sum(len(c.metrics) for c in result.cells.values()) == 120


def test_single_replicate_mean_equals_run_pdr():
    result = sweep([10], ["ecbrp"], 1, tiny_config())
    cell = result.cells[(10, "ecbrp")]
    assert cell.mean_pdr == cell.pdrs[0] == result.mean_pdr(10, "ecbrp")


def test_modes_share_seeds_per_cell():
    result = sweep([5, 10], ["cbrp", "ecbrp"], 3, tiny_config(duration_s=1.0))
    for n in (5, 10):
        assert result.cells[(n, "cbrp")].seeds == result.cells[(n, "ecbrp")].seeds


def test_sweep_rejects_zero_replicates():
    with pytest.raises(ValueError):
        sweep([5], ["ecbrp"], 0, tiny_config())


@pytest.mark.parametrize("counts, modes", [([5, 5], ["cbrp"]), ([5], ["cbrp", "cbrp"]),
                                           ([5, 10, 5], ["cbrp", "ecbrp"])])
def test_sweep_rejects_repeated_value_before_any_run(counts, modes, monkeypatch):
    # A repeat would rerun a (node_count, mode) cell and overwrite its result.
    def no_run(config):
        raise AssertionError("a run started before the sweep's arguments were checked")
    monkeypatch.setattr("cbrsim.experiment.run_scenario", no_run)
    with pytest.raises(ValueError, match="repeats"):
        sweep(counts, modes, 1, tiny_config())


def test_sweep_rejects_an_invalid_cell_before_any_run(monkeypatch):
    # Routing needs two nodes: the cell with one would fail only after the
    # cells before it had run.
    def no_run(config):
        raise AssertionError("a run started before every cell's config was checked")
    monkeypatch.setattr("cbrsim.experiment.run_scenario", no_run)
    with pytest.raises(ConfigError, match="node_count"):
        sweep([5, 30, 1], ["cbrp", "ecbrp"], 2, tiny_config())


# -- CSV --------------------------------------------------------------------

def test_csv_layout_and_mean_rows():
    result = sweep([5], ["cbrp", "ecbrp"], 2, tiny_config(duration_s=5.0))
    lines = sweep_to_csv(result).splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * (2 + 1)          # 2 run rows + 1 mean row per cell
    assert [r[-1] for r in rows].count("run") == 4
    assert [r[-1] for r in rows].count("mean") == 2
    for r in rows:
        assert len(r) == len(CSV_COLUMNS)


def test_csv_blank_pdr_when_nothing_sent():
    result = sweep([5], ["ecbrp"], 1, tiny_config(duration_s=1.0, flows=0))
    row = sweep_to_csv(result).splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("pdr")] == ""


def test_repeated_sweep_is_byte_identical():
    config = tiny_config()
    a = sweep_to_csv(sweep([5, 10], ["cbrp", "ecbrp"], 2, config))
    b = sweep_to_csv(sweep([5, 10], ["cbrp", "ecbrp"], 2, config))
    assert a == b


def test_tiny_sweep_csv_text_is_pinned():
    result = sweep([3], ["cbrp", "ecbrp"], 2, ScenarioConfig(duration_s=20.0))
    assert sweep_to_csv(result) == (
        "node_count,mode,seed,pdr,sent,delivered,drop_no_route,drop_route_error,"
        "drop_dead_forwarder,drop_dead_sender,reformations,head_changes,row_type\n"
        "3,cbrp,1,0.131148,61,8,48,1,0,0,1,2,run\n"
        "3,cbrp,2,0.196721,61,12,24,1,0,0,1,1,run\n"
        "3,cbrp,,0.163934,61.000,10.000,36.000,1.000,0.000,0.000,1.000,1.500,mean\n"
        "3,ecbrp,1,0.131148,61,8,48,1,0,0,1,2,run\n"
        "3,ecbrp,2,0.196721,61,12,24,1,0,0,0,3,run\n"
        "3,ecbrp,,0.163934,61.000,10.000,36.000,1.000,0.000,0.000,0.500,2.500,mean\n")


def test_write_sweep_csv_round_trip(tmp_path):
    result = sweep([5], ["ecbrp"], 1, tiny_config(duration_s=2.0))
    path = tmp_path / "out.csv"
    write_sweep_csv(result, str(path))
    assert path.read_text() == sweep_to_csv(result)


# -- config files -----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text(
        "# demo scenario\n"
        "node_count = 12\n"
        "protocol_mode = cbrp\n"
        "route_cache = on\n"
        "flows = none\n"
        "node_speed_mps = 12.5\n"
        "\n")
    config = load_config_file(str(path))
    assert config.node_count == 12
    assert config.protocol_mode == "cbrp"
    assert config.route_cache is True
    assert config.flows is None
    assert config.node_speed_mps == 12.5


def test_config_file_leaves_the_base_config_unchanged(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text("node_count = 7\n")
    base = ScenarioConfig(seed=9)
    config = load_config_file(str(path), base)
    assert base == ScenarioConfig(seed=9)
    assert config.node_count == 7 and config.seed == 9


def test_config_file_unknown_key_names_offender(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        load_config_file(str(path))


def test_config_file_bad_value_names_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("node_count = many\n")
    with pytest.raises(ConfigError, match="node_count"):
        load_config_file(str(path))


def test_validation_names_offending_key():
    with pytest.raises(ConfigError, match="tx_range_m"):
        ScenarioConfig(tx_range_m=0).validate()
    with pytest.raises(ConfigError, match="protocol_mode"):
        ScenarioConfig(protocol_mode="flooding").validate()


# -- snapshots --------------------------------------------------------------

def test_snapshot_colors_by_role():
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    svg = render_snapshot(sim)
    assert svg.count('fill="#1f6fe0"') == 1   # one head, blue
    assert svg.count('fill="#000000"') == 2   # two members, black
    assert 'data-role="head"' in svg


def test_snapshot_all_dead_is_all_red():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    for node in sim.nodes.values():
        node.energy.remaining = 0.0
        node.role = "dead"
    svg = render_snapshot(sim)
    assert svg.count('fill="#d62728"') == 2
    assert '#1f6fe0' not in svg and 'fill="#000000"' not in svg


def test_snapshot_draws_range_circles_and_weights():
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    svg = render_snapshot(sim, range_circles=True, weight_labels=True)
    assert svg.count('stroke-dasharray') == 3   # one range circle a node
    assert "w=" in svg


def test_snapshot_in_cbrp_draws_range_circles_without_weights():
    # cbrp elects by id and advertises no weight, so the label is the bare id.
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)}, mode="cbrp")
    sim.run_until(6.0)
    svg = render_snapshot(sim, range_circles=True, weight_labels=True)
    assert svg.count('stroke-dasharray') == 3
    assert "w=" not in svg
    assert ">7</text>" in svg


def test_snapshot_unwritable_path_raises_descriptive_oserror():
    sim = static_sim({0: (0, 0), 1: (40, 0)})
    with pytest.raises(OSError, match="no/such/dir"):
        write_snapshot(sim, "no/such/dir/x.svg")


# -- CLI --------------------------------------------------------------------

def test_cli_run_emits_metrics_json(capsys):
    code = main(["run", "--nodes", "8", "--seed", "3", "--set", "duration_s=10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"pdr", "sent", "delivered", "dropped",
                            "cluster_reformations", "head_changes"}


def test_cli_run_writes_snapshot(tmp_path, capsys):
    path = tmp_path / "topo.svg"
    code = main(["run", "--nodes", "8", "--set", "duration_s=5",
                 "--snapshot", str(path)])
    assert code == 0
    assert path.read_text().startswith("<svg")


def test_cli_run_draws_range_circles_and_weight_labels(tmp_path, capsys):
    path = tmp_path / "topo.svg"
    code = main(["run", "--nodes", "8", "--set", "duration_s=5", "--snapshot", str(path),
                 "--range-circles", "--weight-labels"])
    assert code == 0
    svg = path.read_text()
    assert svg.count('stroke-dasharray') == 8
    assert "w=" in svg


def test_cli_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = main(["sweep", "--nodes", "5,10", "--replicates", "1",
                 "--set", "duration_s=5", "--out", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 2   # header + (1 run + 1 mean) per cell


def test_cli_sweep_writes_csv_to_stdout(capsys):
    code = main(["sweep", "--nodes", "5", "--modes", "cbrp", "--replicates", "1",
                 "--set", "duration_s=2"])
    assert code == 0
    expected = sweep([5], ["cbrp"], 1, ScenarioConfig(duration_s=2.0))
    assert capsys.readouterr().out == sweep_to_csv(expected)


def test_cli_run_mode_overrides_the_config(monkeypatch, capsys):
    runs = []
    run = cbrsim.cli.run_scenario_sim
    monkeypatch.setattr(cbrsim.cli, "run_scenario_sim",
                        lambda config: runs.append(config) or run(config))
    assert main(["run", "--set", "protocol_mode=ecbrp", "--mode", "cbrp",
                 "--nodes", "5", "--set", "duration_s=1"]) == 0
    assert runs[0].protocol_mode == "cbrp"


def test_cli_trace_passes(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "packet=" not in out
    assert main(["trace", "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == out.splitlines()
    hop_lines = lines[2:]
    assert hop_lines
    assert all(re.fullmatch(r"  t= *\d+\.\d{3} packet=\d+ \d+->\d+", line)
               for line in hop_lines), hop_lines[:3]


def test_python_m_cbrsim_runs_from_a_checkout():
    # No install: the package is found through PYTHONPATH alone.
    src = Path(cbrsim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cbrsim", "trace"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("PASS") == 2


def test_cli_config_error_exits_2(capsys):
    assert main(["run", "--set", "node_count=1"]) == 2
    assert "node_count" in capsys.readouterr().err


def test_cli_unparsable_flows_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("flows = abc\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "flows" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_number_exits_2(value, capsys):
    assert main(["run", "--set", f"duration_s={value}"]) == 2
    assert "duration_s" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--set", "node_count=0", "--set", "flows=0"], "node_count"),
    (["--set", "duration_s=-1"], "duration_s"),
    (["--set", "ideal_degree=-1"], "ideal_degree"),
    (["--set", "p_v_mode=x"], "p_v_mode"),
    (["--set", "flows=-1"], "flows"),
    (["--set", "max_retries=-1"], "max_retries"),
    (["--set", "route_cache=maybe"], "route_cache"),
    (["--set", "duration_s=abc"], "duration_s"),
    (["--config", "{conf}"], "line 2"),
    (["--set", "route_cache"], "--set"),
    (["--set", "route_cache=off"], None),
    (["--config", "{tmp}/latin1.conf"], "latin1.conf: not UTF-8"),
    (["--config", "{tmp}/missing.conf"], "missing.conf"),
])
def test_cli_config_boundary(args, named, tmp_path, monkeypatch, capsys):
    # Each bad value exits 2 and names its key or source; route_cache=off
    # parses to False and runs.
    conf = tmp_path / "bad.conf"
    conf.write_text("node_count = 5\nroute_cache\n")
    (tmp_path / "latin1.conf").write_bytes(b"# caf\xa0\nnode_count = 5\n")
    runs = []
    run = cbrsim.cli.run_scenario_sim
    monkeypatch.setattr(cbrsim.cli, "run_scenario_sim",
                        lambda config: runs.append(config) or run(config))
    argv = ["run", "--set", "node_count=5", "--set", "duration_s=1",
            *(a.format(conf=conf, tmp=tmp_path) for a in args)]
    if named is None:
        assert main(argv) == 0
        assert runs[0].route_cache is False
    else:
        assert main(argv) == 2
        assert named in capsys.readouterr().err


def test_route_cache_only_accepts_off():
    # The route cache was removed: validate() rejects it on, and the
    # spelling perfbench/workloads.py uses, route_cache=False, still runs.
    with pytest.raises(ConfigError, match="route_cache"):
        ScenarioConfig(route_cache=True).validate()
    metrics = run_scenario(tiny_config(route_cache=False))
    assert metrics.packets_sent > 0


@pytest.mark.parametrize("args", [
    ["run", "--set", "route_cache=on"],
    ["run", "--config", "{conf}"],
    ["sweep", "--nodes", "5", "--replicates", "1", "--set", "route_cache=on"],
])
def test_cli_rejects_route_cache_on_before_any_run(args, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "cache.conf"
    conf.write_text("route_cache = on\n")
    runs = []
    monkeypatch.setattr(Simulator, "run_until", lambda sim, t_end: runs.append(sim))
    assert main([*(a.format(conf=conf) for a in args), "--set", "duration_s=1"]) == 2
    assert "route_cache" in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("spelling, on", [
    ("on", True), ("true", True), ("yes", True), ("1", True),
    ("off", False), ("false", False), ("no", False), ("0", False),
])
def test_config_file_route_cache_accepts_only_off_in_every_spelling(spelling, on, tmp_path,
                                                                    capsys):
    # The parser still reads each boolean spelling; validate() turns away
    # every spelling of on, and every spelling of off runs.
    conf = tmp_path / "cache.conf"
    conf.write_text(f"node_count = 5\nduration_s = 1\nroute_cache = {spelling}\n")
    assert load_config_file(str(conf)).route_cache is on
    assert main(["run", "--config", str(conf)]) == (2 if on else 0)
    assert ("route_cache" in capsys.readouterr().err) is on


@pytest.mark.parametrize("key", ["stale_timeout_intervals", "undecided_timer_intervals"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_validation_rejects_non_positive_timer_intervals(key, value):
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(**{key: value}).validate()


def test_cli_zero_undecided_timer_exits_2(capsys):
    # An isolated undecided node would re-arm its timer at now + 0 forever.
    assert main(["run", "--set", "undecided_timer_intervals=0"]) == 2
    assert "undecided_timer_intervals" in capsys.readouterr().err


# Each period is too short for duration_s + period to differ from duration_s.
@pytest.mark.parametrize("key, value", [("hello_interval_s", 1e-17),
                                        ("mobility_tick_s", 1e-17),
                                        ("undecided_timer_intervals", 1e-30),
                                        ("packets_per_second", 1e17)])
def test_validation_rejects_a_period_that_cannot_advance_the_clock(key, value):
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(duration_s=10.0, **{key: value}).validate()


def test_validation_rejects_a_period_that_stalls_below_duration():
    # duration_s + period rounds up to the next float, yet 10.0 + period
    # ties back to 10.0: a clock that reaches 10.0 would stay there.
    duration = math.nextafter(10.0, 11.0)
    period = math.ulp(duration) / 2.0
    assert duration + period != duration and 10.0 + period == 10.0
    with pytest.raises(ConfigError, match="mobility_tick_s"):
        ScenarioConfig(duration_s=duration, mobility_tick_s=period).validate()
    # A period passes with exactly MAX_FIRINGS firings in duration_s, and
    # fails with one float of duration_s more.
    period = 2.0 ** -20
    duration = MAX_FIRINGS * period   # exact: an integer times a power of two
    assert duration / period == MAX_FIRINGS
    ScenarioConfig(duration_s=duration, mobility_tick_s=period).validate()
    with pytest.raises(ConfigError, match="mobility_tick_s"):
        ScenarioConfig(duration_s=math.nextafter(duration, math.inf),
                       mobility_tick_s=period).validate()


def test_validation_rejects_an_undecided_timer_that_rounds_to_zero():
    # 5e-324 intervals of 1e-9 s is 0.0 s: the timer would re-arm at now.
    assert 5e-324 * 1e-9 == 0.0
    with pytest.raises(ConfigError, match="undecided_timer_intervals"):
        ScenarioConfig(duration_s=1.0, hello_interval_s=1e-9,
                       undecided_timer_intervals=5e-324).validate()


def test_cli_packet_period_that_cannot_advance_the_clock_exits_2(capsys):
    assert main(["run", "--nodes", "5", "--set", "duration_s=10",
                 "--set", "packets_per_second=1e17"]) == 2
    assert "packets_per_second" in capsys.readouterr().err


def test_cli_period_that_needs_too_many_firings_exits_2(capsys):
    # 5e15 mobility ticks: each one advances the clock, but the run never ends.
    assert main(["run", "--nodes", "5", "--set", "duration_s=10",
                 "--set", "mobility_tick_s=2e-15"]) == 2
    assert "mobility_tick_s" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--nodes", "5,abc"), ("--nodes", ","),
                                         ("--nodes", "1"), ("--modes", "cbrp,foo"),
                                         ("--replicates", "0"), ("--replicates", "-1")])
def test_cli_sweep_bad_flag_exits_2_before_any_run(flag, value, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a sweep started before its flags were checked")
    monkeypatch.setattr("cbrsim.cli.sweep", no_run)
    assert main(["sweep", flag, value]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--nodes", "5,5"), ("--nodes", "3,10,3"),
                                         ("--modes", "cbrp,cbrp")])
def test_cli_sweep_repeated_value_exits_2_before_any_run(flag, value, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a sweep started before its flags were checked")
    monkeypatch.setattr("cbrsim.cli.sweep", no_run)
    assert main(["sweep", flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "once" in err


@pytest.mark.parametrize("flag", [["--config", "x.conf"], ["--seed", "3"],
                                  ["--set", "node_count=5"]])
def test_cli_trace_rejects_config_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", *flag])
    assert exc.value.code == 2


def test_cli_config_file_and_env(tmp_path, monkeypatch, capsys):
    path = tmp_path / "base.conf"
    path.write_text("node_count = 6\nduration_s = 5\n")
    monkeypatch.setenv("CBRSIM_CONFIG", str(path))
    assert main(["run"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sent"] > 0

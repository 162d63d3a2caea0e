"""Experiment harness, metrics, CSV emission, config parsing, snapshots,
and the command line interface."""

import json

import pytest

from cbrsim import (ConfigError, RunMetrics, ScenarioConfig, load_config_file,
                    pdr, run_scenario, run_scenario_sim, sweep, sweep_to_csv,
                    write_sweep_csv)
from cbrsim.cli import main
from cbrsim.experiment import CSV_COLUMNS
from cbrsim.geometry import Position
from cbrsim.scenario import build_simulation
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
    assert cell.mean_pdr == cell.pdrs[0]


def test_modes_share_seeds_per_cell():
    result = sweep([5, 10], ["cbrp", "ecbrp"], 3, tiny_config(duration_s=1.0))
    for n in (5, 10):
        assert result.cells[(n, "cbrp")].seeds == result.cells[(n, "ecbrp")].seeds


def test_sweep_rejects_zero_replicates():
    with pytest.raises(ValueError):
        sweep([5], ["ecbrp"], 0, tiny_config())


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


def test_snapshot_highlight_draws_range_circle_and_weight():
    sim = static_sim({5: (0, 0), 7: (10, 0), 9: (25, 0)})
    sim.run_until(6.0)
    svg = render_snapshot(sim, highlight=7)
    assert svg.count('stroke-dasharray') == 1   # exactly the highlighted node
    assert "w=" in svg


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


def test_cli_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = main(["sweep", "--nodes", "5,10", "--replicates", "1",
                 "--set", "duration_s=5", "--out", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 2   # header + (1 run + 1 mean) per cell


def test_cli_trace_passes(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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

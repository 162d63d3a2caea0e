"""Command line interface.

Subcommands:
  run    one scenario -> metrics (and an optional SVG snapshot)
  sweep  node-count sweep over both protocol modes -> CSV
  trace  scripted head-death failover scenario -> pass/fail + event summary

For run and sweep, flags override values from the config file; the default
config file path can be set with the CBRSIM_CONFIG environment variable. The
trace scenario is scripted and takes no configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .config import ConfigError, ScenarioConfig, _parse_value, load_config_file
from .experiment import run_scenario_sim, sweep, sweep_to_csv, write_sweep_csv
from .metrics import pdr
from .snapshot import write_snapshot
from .traces import run_failover_trace

ENV_CONFIG = "CBRSIM_CONFIG"


def _load_base_config(args) -> ScenarioConfig:
    config = ScenarioConfig()
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        config = load_config_file(path, config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        setattr(config, key.strip(), _parse_value(key.strip(), raw))
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "mode", None):
        config.protocol_mode = args.mode
    if isinstance(getattr(args, "nodes", None), int):
        config.node_count = args.nodes
    return config


def _metrics_dict(metrics) -> dict:
    ratio = pdr(metrics)
    return {
        "pdr": ratio,
        "sent": metrics.packets_sent,
        "delivered": metrics.packets_delivered,
        "dropped": dict(metrics.dropped),
        "in_flight": metrics.in_flight,
        "cluster_reformations": metrics.cluster_reformations,
        "head_changes": metrics.head_changes,
    }


def _cmd_run(args) -> int:
    config = _load_base_config(args)
    config.validate()
    sim = run_scenario_sim(config)
    print(json.dumps(_metrics_dict(sim.metrics), indent=2))
    if args.snapshot:
        write_snapshot(sim, args.snapshot, range_circles=args.range_circles,
                       weight_labels=args.weight_labels)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_base_config(args)
    config.validate()
    counts = [int(x) for x in args.nodes.split(",")] if isinstance(args.nodes, str) \
        else (args.nodes or list(range(5, 65, 5)))
    modes = args.modes.split(",") if args.modes else ["cbrp", "ecbrp"]
    result = sweep(counts, modes, args.replicates, config)
    if args.out:
        write_sweep_csv(result, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(sweep_to_csv(result))
    return 0


def _cmd_trace(args) -> int:
    ok = True
    ecbrp = run_failover_trace("ecbrp")
    cbrp = run_failover_trace("cbrp")
    e_pass = (ecbrp.delivered_after_kill > 0 and ecbrp.reformations == 0
              and ecbrp.metrics.total_dropped == 0)
    c_pass = (cbrp.reformations >= 1 or cbrp.metrics.dropped["route-error"] >= 1)
    print(f"ecbrp failover: delivered_after_kill={ecbrp.delivered_after_kill} "
          f"reformations={ecbrp.reformations} dropped={ecbrp.metrics.total_dropped} "
          f"-> {'PASS' if e_pass else 'FAIL'}")
    print(f"cbrp  failover: reformations={cbrp.reformations} "
          f"route_error_drops={cbrp.metrics.dropped['route-error']} "
          f"-> {'PASS' if c_pass else 'FAIL'}")
    if args.verbose:
        for rec in ecbrp.sim.hop_log:
            print(f"  t={rec.time:7.3f} packet={rec.packet_id} "
                  f"{rec.from_id}->{rec.to_id}")
    ok = e_pass and c_pass
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbrsim",
                                     description="Cluster-based MANET routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
        p.add_argument("--seed", type=int)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.add_argument("--mode", choices=["cbrp", "ecbrp"])
    p_run.add_argument("--nodes", type=int)
    p_run.add_argument("--snapshot", help="write an SVG topology snapshot here")
    p_run.add_argument("--range-circles", action="store_true")
    p_run.add_argument("--weight-labels", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="node-count sweep over protocol modes")
    common(p_sweep)
    p_sweep.add_argument("--nodes", help="comma-separated node counts (default 5,10,...,60)")
    p_sweep.add_argument("--modes", help="comma-separated modes (default cbrp,ecbrp)")
    p_sweep.add_argument("--replicates", type=int, default=5)
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_trace = sub.add_parser("trace", help="scripted failover scenario, pass/fail")
    p_trace.add_argument("--verbose", action="store_true", help="print the hop log")
    p_trace.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

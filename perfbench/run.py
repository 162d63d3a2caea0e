"""cbrsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload beacon-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cbrsim is imported from its ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, measured untraced; ``--trace 1`` reports the
per-layer metrics from a traced pass. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED_DIGESTS = HERE / "expected_digests.json"

WORKLOAD_NAMES = ("beacon-dense", "flood-traffic", "paper-sweep")
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_ref": "ref", "node_s_per_ref": "node-s/ref",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _import_program() -> bool:
    """Put the checkout's src/ first on the path and make sure cbrsim comes
    from there, not from some installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import cbrsim
    except ImportError as exc:
        print(f"perfbench: cannot import cbrsim from {src}: {exc}", file=sys.stderr)
        return False
    origin = Path(cbrsim.__file__).resolve().parent.parent
    if origin != src:
        print(f"perfbench: cbrsim was imported from {origin}, not {src}", file=sys.stderr)
        return False
    return True


def load_expected() -> dict:
    with open(EXPECTED_DIGESTS) as fh:
        return json.load(fh)


def count_failures(passes, expected=None):
    """Runs that raised, broke an invariant, or whose digest differs from the
    committed table (when it has this workload and seed) or from the first
    pass. Returns (failed, messages)."""
    first = [r.digest for r in passes[0].runs]
    failed, messages = 0, []
    for k, p in enumerate(passes):
        for i, run in enumerate(p.runs):
            why = list(run.problems)
            if run.digest is not None:
                if expected is not None and (i >= len(expected) or run.digest != expected[i]):
                    why.append(f"digest {run.digest} differs from the committed table")
                if i >= len(first) or run.digest != first[i]:
                    why.append(f"digest {run.digest} differs from pass 0")
            if why:
                failed += 1
                messages.append(f"pass {k} run {run.label}: " + "; ".join(why))
    return failed, messages


def _one_pass(workload, seed, tiny):
    from workloads import run_pass
    gc.collect()
    return run_pass(workload, seed, tiny)


def _measured_pass(workload, seed, tiny, reference, ref_before):
    """One pass with the reference kernel run after each of its steps. Each
    step's time is divided by the mean of the reference runs just before and
    just after it. Returns the pass, those ratios, and the last reference."""
    from workloads import combine, steps
    parts, ratios = [], []
    for step in steps(workload, seed, tiny):
        gc.collect()
        part = step()
        ref_after = reference.seconds()
        parts.append(part)
        ratios.append(part.wall_s / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return combine(parts), ratios, ref_before


def _traced_pass(workload, seed, tiny):
    from tracer import ROOT_SPAN, Tracing
    from workloads import run_pass
    gc.collect()
    with Tracing() as tracing:
        with tracing.rec.span(ROOT_SPAN):
            result = run_pass(workload, seed, tiny)
    return result, tracing.summary()


def end_to_end(passes, ratios, setups, peak_rss_mb) -> dict:
    """`wall_ref` is the sum over the pass's steps of each step's median
    ratio to the reference kernel, so the ratio does not follow the
    machine's speed drift; the other timings are medians over passes."""
    wall_ref = sum(statistics.median(step) for step in zip(*ratios))
    values = {
        "wall_ref": wall_ref,
        "node_s_per_ref": passes[0].node_seconds / wall_ref if wall_ref else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def _host_times(passes, refs) -> dict:
    """The same pass medians in plain host seconds, printed for the reader."""
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "node_s_per_s": {"value": statistics.median(p.node_seconds / p.wall_s if p.wall_s
                                                    else 0.0 for p in passes),
                         "unit": "node-s/s"},
        "reference_s": {"value": statistics.median(refs), "unit": "s"},
    }


def per_layer(untraced, summaries) -> dict:
    """Metrics of the traced pass with the median traced wall time, so its
    layer self times still add up to its own trace.wall_s."""
    from tracer import PER_LAYER_UNITS
    baseline = statistics.median(p.wall_s + p.setup_s for p in untraced)
    ordered = sorted(summaries, key=lambda s: s["trace.wall_s"])
    chosen = dict(ordered[(len(ordered) - 1) // 2])
    chosen["trace.overhead_s"] = chosen["trace.wall_s"] - baseline
    return {name: {"value": chosen[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def _report(name, seed, passes, metrics, failed, messages, extra) -> None:
    runs = sum(len(p.runs) for p in passes)
    print(f"workload {name} seed {seed}: {len(passes)} passes, runs {runs}, "
          f"runs_failed {failed}")
    for run in passes[0].runs:
        s = run.stats
        pdr = "-" if s.get("pdr") is None else f"{s['pdr']:.4f}"
        print(f"  {run.label}: pdr {pdr} sent {s.get('sent')} delivered {s.get('delivered')} "
              f"drops {s.get('dropped')} reformations {s.get('reformations')} "
              f"head_changes {s.get('head_changes')} digest {run.digest}")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    for metric, m in {**extra, **metrics}.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for the tests")
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from reference import Reference
    from workloads import WORKLOADS, setup_time

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    expected = None if tiny else load_expected().get(workload.name, {}).get(str(args.seed))
    deadline = perf_counter() + args.seconds
    extra = {}
    if args.trace:
        untraced, traced, summaries = [], [], []
        while not traced or perf_counter() < deadline:
            untraced.append(_one_pass(workload, args.seed, tiny))
            result, summary = _traced_pass(workload, args.seed, tiny)
            traced.append(result)
            summaries.append(summary)
        passes = untraced + traced
        metrics = per_layer(untraced, summaries)
    else:
        # The first pass warms up and is the one whose peak RSS is reported:
        # until it ends, the process has run only this workload.
        warmup = _one_pass(workload, args.seed, tiny)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference = Reference()
        ref = reference.seconds()
        measured, ratios, refs, setups = [], [], [ref], []
        while len(measured) < MIN_PASSES or perf_counter() < deadline:
            result, step_ratios, ref = _measured_pass(workload, args.seed, tiny, reference, ref)
            measured.append(result)
            ratios.append(step_ratios)
            refs.append(ref)
            setups.append(setup_time(workload, args.seed, tiny))
        passes = [warmup] + measured
        metrics = end_to_end(measured, ratios, setups, peak_rss_mb)
        extra = _host_times(measured, refs)
    failed, messages = count_failures(passes, expected)
    _report(workload.name, args.seed, passes, metrics, failed, messages, extra)
    attempted = sum(len(p.runs) for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

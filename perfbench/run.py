#!/usr/bin/env python3
"""Benchmark slzeros end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload eigen-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src.  The
run draws its inputs from --seed, executes whole rounds of operations for
about --seconds, checks every output against perfbench/reference.py and
the method's properties, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of layertrace.py with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 12
SHOWN_ERRORS = 20


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build round 0's inputs, print 'ready' and exit")
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first operation
    being ready: imports, input generation, potential parsing."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def run_rounds(workload, seconds: float, probe=None):
    """Whole rounds until the next one would end past ``seconds``.

    With ``probe``, SETUP_PROBES set-up probes are spread evenly over the
    run, between operations, so that they sample the machine over the same
    stretch of time as the operations do; any not yet made when the last
    round ends are made then.  Returns the outcomes, the number of rounds,
    the wall time, the probe times, and the peak resident set at the end
    of round 0: a fixed amount of work, so the figure does not grow with
    the number of rounds a faster library fits into the run.
    """
    from workloads import Outcome

    outcomes = []
    round_times = []
    probes = []
    peak_rss_mb = None
    t_start = time.perf_counter()

    def probe_due() -> bool:
        return (probe is not None and len(probes) < SETUP_PROBES
                and time.perf_counter() - t_start >= len(probes) * seconds / SETUP_PROBES)

    while True:
        t_round = time.perf_counter()
        for op in workload.round(len(round_times)):
            if probe_due():
                probes.append(probe())
            t0 = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # recorded per operation; the run goes on
                outcomes.append(Outcome(op, time.perf_counter() - t0, error_type=type(exc).__name__,
                                        error=str(exc)))
            else:
                outcomes.append(Outcome(op, time.perf_counter() - t0, value))
        round_times.append(time.perf_counter() - t_round)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * statistics.median(round_times) > seconds:
            while probe is not None and len(probes) < SETUP_PROBES:
                probes.append(probe())
            return outcomes, len(round_times), elapsed, probes, peak_rss_mb


def write_outputs(args, outcomes, tracer) -> None:
    """Per-operation latencies and errors, and with --trace 1 every span, as
    JSON lines under perfbench/out/ for diagnosing a run after the fact."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.ops.jsonl", "w") as f:
        for o in outcomes:
            f.write(json.dumps({"round": o.op.round, "op": o.op.label, "seconds": o.seconds,
                                "error": o.error_type}) + "\n")
    if tracer is not None:
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        with open(f"{stem}.spans.jsonl", "w") as f:
            for i, sp in enumerate(tracer.spans):
                f.write(json.dumps({"id": i, "parent": sp.parent, "name": sp.name,
                                    "site": sp.site, "start": sp.start - t0,
                                    "end": sp.end - t0, "cells": sp.cells,
                                    "zeros": sp.zeros}) + "\n")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "slzeros" / "__init__.py").is_file():
        print(f"error: slzeros sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.round(0)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer().install()
    try:
        outcomes, rounds, wall, probes, peak_rss_mb = run_rounds(
            workload, args.seconds,
            None if args.trace else lambda: probe_setup(args.workload, args.seed))
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = [o for o in outcomes if o.error_type is not None]
    done = [o for o in outcomes if o.error_type is None]
    unexpected = [o for o in failed if o.error_type != o.op.expect_error]
    errors = workload.check(outcomes)
    errors += [f"{o.op.label}: unexpected {o.error_type}: {o.error}" for o in unexpected]

    latencies = sorted(o.seconds for o in done)
    p50_ms = 1e3 * statistics.median(latencies) if latencies else 0.0
    summary = (f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
               f"attempted={len(outcomes)} completed={len(done)} failed={len(failed)} "
               f"wall_s={wall:.3f} op_p50_ms={p50_ms:.3f}")
    if probes:
        summary += f" setup_min_s={min(probes):.4f} setup_med_s={statistics.median(probes):.4f}"
    if len(latencies) >= 100:
        # a 90th percentile only once at least ten samples lie beyond it
        summary += f" op_p90_ms={1e3 * statistics.quantiles(latencies, n=10)[8]:.3f}"
    print(summary)
    for o in failed:
        print(f"failed: {o.op.label}: {o.error_type}")
    for e in errors[:SHOWN_ERRORS]:
        print(f"check failed: {e}")
    if len(errors) > SHOWN_ERRORS:
        print(f"check failed: ... {len(errors) - SHOWN_ERRORS} more")

    write_outputs(args, outcomes, tracer)
    if tracer is not None:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "ops_per_s": {"value": len(done) / sum(o.seconds for o in outcomes), "unit": "1/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two checkouts with alternating runs of perfbench/run.py.

    python3 scripts/bench_pairs.py --parent ../before --change . \\
        --seed 41 --trace-seed 5 6 7 --out BENCH.json

For every workload of BENCHMARK.json, pair i of ten runs the parent and the
change with the same seed (--seed + i) and run.py's own settings, the parent
first in even pairs and the change first in odd ones, one run at a time.
Every run's last output line (the JSON summary of perfbench/run.py) is kept.
The output file holds the runs, per-side medians and quartiles of every
end-to-end metric, how many pairs the change won (by the direction
BENCHMARK.json gives each metric; ties count for neither side), whether the
medians differ by more than the distance between the parent's quartiles,
the machine (nproc, the Python and numpy versions) and, for each side, the
git commit, whether its tree differs from that commit, and a sha256 over
the files under src/.  Each --trace-seed adds one traced pair (--trace 1)
per workload, whose per-layer metrics are stored with the per-call self
time of every layer that reports calls.  The file is rewritten after every
run, so an interrupted comparison keeps what it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--seed", type=int, default=21, help="seed of pair 0; pair i uses seed + i")
    p.add_argument("--trace-seed", type=int, nargs="+", default=[],
                   help="seeds of traced pairs, one per seed and workload")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def describe(root: Path) -> dict:
    """The directory, its git commit and state, and a hash of its src/ tree."""
    def git(*argv):
        proc = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    status = git("status", "--porcelain")
    return {"dir": root.name, "head": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status), "src_sha256": digest.hexdigest()}


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["summary"] = lines[0]
    result["wall_s"] = time.perf_counter() - t0
    return result


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-side medians and quartiles, and win counts over the pairs."""
    out = {}
    for name, direction in better.items():
        sides = {s: [r["metrics"][name]["value"] for r in runs if r["side"] == s] for s in SIDES}
        pairs = {}
        for r in runs:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]["value"]
        sign = 1.0 if direction == "higher" else -1.0
        wins = ties = 0
        for pair in pairs.values():
            if len(pair) < 2:
                continue
            d = sign * (pair["change"] - pair["parent"])
            wins += d > 0
            ties += d == 0
        complete = sum(len(p) == 2 for p in pairs.values())
        row = {"better": direction, "pairs": complete, "change_wins": wins, "ties": ties}
        if all(len(v) >= 2 for v in sides.values()):
            row.update({s: quartiles(v) for s, v in sides.items()})
            gap = row["change"]["median"] - row["parent"]["median"]
            row["median_change_rel"] = gap / row["parent"]["median"] if row["parent"]["median"] else None
            row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["medians_apart_by_more_than_parent_iqr"] = abs(gap) > row["parent_iqr"]
        out[name] = row
    return out


def per_call(metrics: dict) -> dict:
    """self_s / calls for every layer that reports both."""
    rows = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            calls = metrics.get(name[: -len("self_s")] + "calls")
            if calls and calls["value"]:
                rows[name[: -len(".self_s")] + ".self_ms_per_call"] = 1e3 * m["value"] / calls["value"]
    return rows


def main(argv=None) -> int:
    args = _args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "settings": {"pairs": PAIRS, "seeds": [args.seed + i for i in range(PAIRS)],
                     "trace_seeds": args.trace_seed, "order": "parent first in even pairs",
                     "quartiles": "statistics.quantiles(method='inclusive')",
                     **{side: describe(root) for side, root in roots.items()}},
        "workloads": {w: {"runs": [], "end_to_end": {}} for w in workloads},
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for w in workloads:
        entry = doc["workloads"][w]
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(roots[side], w, args.seed + i, 0)
                entry["runs"].append({"pair": i, "side": side, "seed": args.seed + i, **r})
                entry["end_to_end"] = compare(entry["runs"], better)
                save()
                print(f"{w} pair {i} {side}: correct={r['correct']} failed={r['failed']}/"
                      f"{r['attempted']} " + " ".join(f"{k}={v['value']:.4g}"
                                                      for k, v in r["metrics"].items()),
                      flush=True)
        entry["traced"] = []
        for i, seed in enumerate(args.trace_seed):
            pair = {"seed": seed}
            entry["traced"].append(pair)
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                r = run_once(roots[side], w, seed, 1)
                metrics = {k: v["value"] for k, v in r["metrics"].items()}
                metrics.update(per_call(r["metrics"]))
                pair[side] = {"correct": r["correct"], "attempted": r["attempted"],
                              "failed": r["failed"], "metrics": metrics}
                save()
                print(f"{w} traced seed {seed} {side}: correct={r['correct']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

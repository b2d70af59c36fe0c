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
the files under src/.  Each run also keeps its rounds and its failed share
(failed / attempted), and each workload counts the pairs in which the
change failed a larger share than the parent and, per side, the runs whose
checks failed (correct: false) and the runs that exited non-zero; such a
run is kept with its exit code and the tail of its stderr, and the
comparison goes on.  Each --trace-seed adds one traced pair (--trace 1)
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
    """run.py's JSON summary with its rounds and failed share, or, when it
    exits non-zero or prints nothing, its exit code and stderr tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:], "wall_s": wall_s}
    result = json.loads(lines[-1])
    result["summary"] = lines[0]
    fields = dict(f.split("=", 1) for f in lines[0].split() if "=" in f)
    result["rounds"] = int(fields["rounds"])
    result["failed_share"] = result["failed"] / result["attempted"]
    result["wall_s"] = wall_s
    return result


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-side medians and quartiles, and win counts over the pairs.  Runs
    that exited non-zero have no metrics and are left out; runs_used and
    pairs count what each metric was computed from."""
    out = {}
    runs = [r for r in runs if "metrics" in r]
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
        row = {"better": direction, "runs_used": {s: len(v) for s, v in sides.items()},
               "pairs": complete, "change_wins": wins, "ties": ties}
        if all(len(v) >= 2 for v in sides.values()):
            row.update({s: quartiles(v) for s, v in sides.items()})
            gap = row["change"]["median"] - row["parent"]["median"]
            row["median_change_rel"] = gap / row["parent"]["median"] if row["parent"]["median"] else None
            row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["medians_apart_by_more_than_parent_iqr"] = abs(gap) > row["parent_iqr"]
        out[name] = row
    return out


def gates(runs: list[dict]) -> dict:
    """What a metric comparison does not show: pairs in which the change
    failed a larger share of its operations than the parent, and per side
    the runs whose checks failed and the runs that exited non-zero."""
    shares = {}
    for r in runs:
        if "failed_share" in r:
            shares.setdefault(r["pair"], {})[r["side"]] = r["failed_share"]
    return {
        "pairs_change_failed_larger_share": sum(
            1 for p in shares.values() if len(p) == 2 and p["change"] > p["parent"]),
        "runs_incorrect": {s: sum(1 for r in runs if r["side"] == s and r.get("correct") is False)
                           for s in SIDES},
        "runs_exited_nonzero": {s: sum(1 for r in runs if r["side"] == s and "exit_code" in r)
                                for s in SIDES},
    }


def per_call(metrics: dict) -> dict:
    """self_s / calls for every layer that reports both."""
    rows = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            calls = metrics.get(name[: -len("self_s")] + "calls")
            if calls and calls["value"]:
                rows[name[: -len(".self_s")] + ".self_ms_per_call"] = 1e3 * m["value"] / calls["value"]
    return rows


def _line(r: dict) -> str:
    if "exit_code" in r:
        return f"exited {r['exit_code']}: {r['stderr_tail'][-200:]!r}"
    return (f"correct={r['correct']} failed={r['failed']}/{r['attempted']} rounds={r['rounds']} "
            + " ".join(f"{k}={v['value'] if isinstance(v, dict) else v:.4g}"
                       for k, v in r["metrics"].items()))


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
                entry["gates"] = gates(entry["runs"])
                save()
                print(f"{w} pair {i} {side}: " + _line(r), flush=True)
        entry["traced"] = []
        for i, seed in enumerate(args.trace_seed):
            pair = {"seed": seed}
            entry["traced"].append(pair)
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                r = run_once(roots[side], w, seed, 1)
                if "metrics" in r:
                    metrics = {k: v["value"] for k, v in r["metrics"].items()}
                    metrics.update(per_call(r["metrics"]))
                    r = {k: r[k] for k in ("correct", "attempted", "failed", "rounds",
                                           "failed_share")} | {"metrics": metrics}
                pair[side] = r
                save()
                print(f"{w} traced seed {seed} {side}: " + _line(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

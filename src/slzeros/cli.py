"""Command-line front end: eigen, zeros, velocities, evf, sweep, verify.

Exit codes are stable and disjoint: 0 success, 1 verification failure,
2 user/config error, 3 internal solver error.  All floating-point output is
serialised with 17 significant digits so JSON re-parses bit-for-bit and CSV
to 1e-15.  Column schemas for every command are printed by --schema.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import batteries, oscillation, potential, spectrum, sweep
from .errors import ConfigError, SLZerosError, SolverFault
from .potential import PI, Potential, parse_potential
from .shooting import DEFAULT_CELLS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

SCHEMAS = {
    "eigen": ("n", "mu", "interior_zero_count", "c_n"),
    "zeros": ("k", "x", "slope"),
    "velocities": ("k", "x", "slope", "velocity", "side"),
    "evf": ("gamma", "delta", "mu"),
    "sweep:path.csv": ("angle", "mu"),
    "sweep:events.csv": ("event", "zero_id", "angle_lo", "angle_hi"),
    "sweep:zero_<id>.csv": ("angle", "x"),
    "verify": ("battery", "case", "passed", "value", "threshold"),
}

_Q_ALIASES = {
    "zero": {"kind": "zero"},
    "cos2x": {"kind": "cosine", "a": 1.0, "f": 2.0},
    "x^-0.5": {"kind": "power", "a": 1.0, "p": -0.5},
    "x^-1/2": {"kind": "power", "a": 1.0, "p": -0.5},
}


def parse_q_argument(text: str) -> Potential:
    """Potential from JSON, @file, or a compact alias like constant:5."""
    text = text.strip()
    if text.startswith("@"):
        return parse_potential(Path(text[1:]).read_text())
    if text.startswith("{"):
        return parse_potential(text)
    if text in _Q_ALIASES:
        return parse_potential(_Q_ALIASES[text])
    if ":" in text:
        kind, _, rest = text.partition(":")
        vals = [float(v) for v in rest.split(":")] if rest else []
        if kind == "constant" and len(vals) == 1:
            return potential.constant(vals[0])
        if kind == "cosine" and len(vals) == 2:
            return potential.cosine(*vals)
        if kind == "step" and len(vals) == 3:
            return potential.step(*vals)
        if kind == "power" and len(vals) == 2:
            return potential.power(*vals)
        raise ConfigError(f"cannot parse potential shorthand {text!r}")
    if text.startswith("x^"):
        return potential.power(1.0, float(text[2:]))
    raise ConfigError(f"cannot parse potential argument {text!r}")


def parse_angle(text: str) -> float:
    """Angle in radians; accepts 'pi', 'pi/2', '3pi/4', '0.75pi' spellings
    so exact boundary values are expressible."""
    t = text.strip().lower().replace(" ", "")
    if "pi" not in t:
        return float(t)
    num, _, den = t.partition("/")
    coef = num[:-2] if num.endswith("pi") else num
    mult = float(coef) if coef not in ("", "+", "-") else float(coef + "1")
    value = mult * PI
    if den:
        value /= float(den)
    return value


def parse_n_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(text)]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows(rows: list[dict], columns, fmt: str, out: str | None,
               command: str) -> None:
    if fmt == "json":
        payload = {"command": command, "columns": list(columns), "rows": rows}
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _default_cells(args) -> int:
    if args.cells is not None:
        return args.cells
    env = os.environ.get("SL_CELLS")
    return int(env) if env else DEFAULT_CELLS


def _bc(args) -> spectrum.BoundaryParams:
    if args.alpha is None or args.beta is None:
        raise ConfigError("--alpha and --beta are required for this command")
    return spectrum.BoundaryParams(parse_angle(args.alpha), parse_angle(args.beta))


def cmd_eigen(args) -> int:
    q = parse_q_argument(args.q)
    bc = _bc(args)
    cells = _default_cells(args)
    ns = parse_n_range(args.n_range if args.n_range else str(args.n))
    rows = []
    for n in ns:
        pair = spectrum.find_eigenvalue(q, n, bc, cells)
        rows.append({
            "n": n,
            "mu": pair.mu,
            "interior_zero_count": sum(1 for x in pair.zeros if 0.0 < x < PI),
            "c_n": pair.c_n,
        })
    write_rows(rows, SCHEMAS["eigen"], args.format, args.out, "eigen")
    return EXIT_OK


def cmd_zeros(args) -> int:
    q = parse_q_argument(args.q)
    bc = _bc(args)
    cells = _default_cells(args)
    pair = spectrum.find_eigenvalue(q, args.n, bc, cells)
    records = oscillation.canonical_zero_records(q, pair.mu, bc, cells, side="left")
    rows = [{"k": r.k, "x": r.x, "slope": r.slope} for r in records]
    write_rows(rows, SCHEMAS["zeros"], args.format, args.out, "zeros")
    return EXIT_OK


def cmd_velocities(args) -> int:
    q = parse_q_argument(args.q)
    bc = _bc(args)
    cells = _default_cells(args)
    pair = spectrum.find_eigenvalue(q, args.n, bc, cells)
    records = oscillation.velocity_records(q, pair.mu, bc, cells, side=args.side)
    rows = [{"k": r.k, "x": r.x, "slope": r.slope,
             "velocity": r.velocity, "side": r.side} for r in records]
    write_rows(rows, SCHEMAS["velocities"], args.format, args.out, "velocities")
    return EXIT_OK


def cmd_evf(args) -> int:
    q = parse_q_argument(args.q)
    cells = _default_cells(args)
    gammas = [parse_angle(t) for t in args.gamma.split(",")]
    deltas = [parse_angle(t) for t in args.delta.split(",")]
    rows = []
    if len(gammas) > 1 or len(deltas) > 1:
        grid = spectrum.evf_grid(q, gammas, deltas, cells)
        for i, g in enumerate(gammas):
            for j, d in enumerate(deltas):
                rows.append({"gamma": g, "delta": d, "mu": float(grid[i, j])})
    else:
        mu = spectrum.evf(q, spectrum.EvfCoordinates(gammas[0], deltas[0]), cells)
        rows.append({"gamma": gammas[0], "delta": deltas[0], "mu": mu})
    write_rows(rows, SCHEMAS["evf"], args.format, args.out, "evf")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.out:
        raise ConfigError("sweep writes multiple files; --out DIRECTORY is required")
    q = parse_q_argument(args.q)
    cells = args.cells if args.cells is not None else int(
        os.environ.get("SL_CELLS", sweep.DEFAULT_SWEEP_CELLS))
    fixed_arg = args.alpha if args.vary == "beta" else args.beta
    if fixed_arg is None:
        raise ConfigError("the non-varying boundary angle must be given "
                          "(--alpha for beta sweeps, --beta for alpha sweeps)")
    fixed = parse_angle(fixed_arg)
    lo = parse_angle(args.angle_min) if args.angle_min else None
    hi = parse_angle(args.angle_max) if args.angle_max else None
    grid = sweep.uniform_grid(args.vary, args.grid, lo, hi)
    plan = sweep.SweepPlan(q, args.n, args.vary, fixed, grid, cells)
    result = sweep.run_sweep(plan)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_rows([{"angle": a, "mu": m} for a, m in result.eigenvalue_path],
               SCHEMAS["sweep:path.csv"], "csv", str(outdir / "path.csv"), "sweep")
    write_rows([{"event": e["event"], "zero_id": e["zero_id"],
                 "angle_lo": e["angle_lo"], "angle_hi": e["angle_hi"]}
                for e in result.events],
               SCHEMAS["sweep:events.csv"], "csv", str(outdir / "events.csv"), "sweep")
    for t in result.trajectories:
        write_rows([{"angle": a, "x": x} for a, x in t.points],
                   SCHEMAS["sweep:zero_<id>.csv"], "csv",
                   str(outdir / f"zero_{t.identity:03d}.csv"), "sweep")
    sys.stdout.write(
        f"sweep: {len(result.trajectories)} zero trajectories, "
        f"{len(result.events)} events -> {outdir}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    cells = args.cells if args.cells is not None else int(
        os.environ.get("SL_CELLS", batteries.DEFAULT_BATTERY_CELLS))
    potentials = None
    if args.q:
        q = parse_q_argument(args.q)
        potentials = ((args.q, q),)
    report = batteries.run_battery(args.battery, args.matrix, potentials, cells)
    rows = []
    for case in report.cases:
        status = "PASS" if case["passed"] else "FAIL"
        sys.stdout.write(
            f"{status} [{report.name}] {case['case']} "
            f"value={case['value']:.3e} threshold={case['threshold']:.3e}\n")
        rows.append({"battery": report.name, "case": case["case"],
                     "passed": case["passed"], "value": case["value"],
                     "threshold": case["threshold"]})
    sys.stdout.write(
        f"{report.name}: {len(report.cases)} cases, {report.n_failed} failed\n")
    if args.out:
        write_rows(rows, SCHEMAS["verify"], args.format, args.out, "verify")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def print_schemas() -> None:
    for name, cols in SCHEMAS.items():
        sys.stdout.write(f"{name}: {','.join(cols)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slzeros",
        description="Boundary-value spectra, eigenfunction zeros, and zero "
                    "migration for -y'' + q(x) y = mu y on [0, pi].")
    parser.add_argument("--schema", action="store_true",
                        help="print CSV column schemas for every command and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_bc=True):
        p.add_argument("--q", required=True,
                       help="potential: JSON, @file, or shorthand "
                            "(zero, constant:5, cos2x, step:10:1:2, x^-0.5)")
        if needs_bc:
            p.add_argument("--alpha", help="left boundary angle in (0, pi]")
            p.add_argument("--beta", help="right boundary angle in [0, pi)")
        p.add_argument("--cells", type=int, default=None,
                       help=f"propagation cells (default {DEFAULT_CELLS}; "
                            "env SL_CELLS overrides)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="reserved; accepted for config compatibility")

    p = sub.add_parser("eigen", help="eigenvalue table over an index range")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--n-range", dest="n_range", default=None, help="e.g. 0..3")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("zeros", help="zeros of the n-th eigenfunction")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("velocities", help="analytic dx/dmu for every zero")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(func=cmd_velocities)

    p = sub.add_parser("evf", help="eigenvalues function mu(gamma, delta)")
    common(p, needs_bc=False)
    p.add_argument("--gamma", required=True, help="value or comma-separated grid")
    p.add_argument("--delta", required=True, help="value or comma-separated grid")
    p.set_defaults(func=cmd_evf)

    p = sub.add_parser("sweep", help="trace zeros while one boundary angle varies")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vary", choices=("beta", "alpha"), required=True)
    p.add_argument("--grid", type=int, default=64, help="number of sweep angles")
    p.add_argument("--angle-min", default=None)
    p.add_argument("--angle-max", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("--battery", required=True,
                   choices=batteries.BATTERY_NAMES + ("sweep",))
    p.add_argument("--matrix", choices=("default", "full"), default="default",
                   help="default = documented subset (cos2x), full = 5-potential matrix")
    p.add_argument("--q", default=None, help="restrict to one potential")
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="reserved; accepted for config compatibility")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema and args.command is None:
        print_schemas()
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_CONFIG
    except SolverFault as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER
    except SLZerosError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

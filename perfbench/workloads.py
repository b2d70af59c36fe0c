"""The three benchmark workloads: their inputs, operations and checks.

A workload hands out rounds of operations.  Round r draws its inputs from
``numpy.random.default_rng([seed, r])``, so the same seed gives the same
inputs, and every round has the same composition, so a run of any length
is made of whole rounds of the same kinds of operation.  Each operation
calls one public entry point of slzeros through its module attribute, so
the traced run sees it through the span wrappers of ``layertrace.py``.
The checks import scipy, so they are imported only once the timed rounds
are over, which keeps scipy out of set-up and out of the measured process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from slzeros import oscillation, parse_potential, spectrum, sweep
from slzeros.spectrum import BoundaryParams

PI = math.pi

README_POTENTIALS = (
    ("zero", {"kind": "zero"}),
    ("constant5", {"kind": "constant", "c": 5.0}),
    ("cos2x", {"kind": "cosine", "a": 1.0, "f": 2.0}),
    ("step", {"kind": "step", "v": 10.0, "l": 1.0, "r": 2.0}),
    ("x^-0.5", {"kind": "power", "a": 1.0, "p": -0.5}),
)


@dataclass
class Op:
    """One operation: a call into the library plus what its check needs."""

    round: int
    label: str
    call: Callable[[], Any]
    data: dict
    # exception class name it is known to raise; if it returns instead, its
    # result is checked like any other
    expect_error: str | None = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    value: Any = None
    error_type: str | None = None
    error: str | None = None


def _table_spec(rng: np.random.Generator) -> dict:
    """Piecewise-linear potential: 5-12 breakpoints, values in [-15, 25]."""
    k = int(rng.integers(5, 13))
    inner = np.sort(rng.uniform(0.05, PI - 0.05, k - 2))
    xs = [0.0, *inner.tolist(), PI]
    qs = rng.uniform(-15.0, 25.0, k).tolist()
    return {"kind": "table", "points": [[x, v] for x, v in zip(xs, qs)]}


# -- eigen-cold -------------------------------------------------------------------

class EigenCold:
    """find_eigenvalue at 4096 cells on inputs that never repeat in a run.

    A round has 54 operations: the five README potentials and three fresh
    table potentials, each under Dirichlet (pi, 0), Neumann (pi/2, pi/2)
    and one fresh mixed angle pair, at two indices n drawn from 0..39 that
    the run has not yet used for that potential and boundary pair; then the
    deep-well slice of six solves that fail today.
    """

    name = "eigen-cold"
    n_pool = 40
    deep_well_beta = 0.3
    # each round moves the deep-well beta by this much, so that the solve
    # cache never serves a repeat; round 0 uses exactly (pi/2, 0.3)
    deep_well_shift = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self._used: dict[tuple, set[int]] = {}

    def _fresh_indices(self, key: tuple, rng: np.random.Generator) -> list[int]:
        used = self._used.setdefault(key, set())
        top = self.n_pool
        while top - len(used) < 2:
            top += self.n_pool
        free = [n for n in range(top) if n not in used]
        picks = sorted(int(n) for n in rng.choice(free, size=2, replace=False))
        used.update(picks)
        return picks

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        potentials = list(README_POTENTIALS)
        potentials += [(f"table{r}.{i}", _table_spec(rng)) for i in range(3)]
        ops = []
        for plabel, spec in potentials:
            q = parse_potential(spec)
            mixed = (float(rng.uniform(0.6, 2.8)), float(rng.uniform(0.3, 2.5)))
            for blabel, (alpha, beta) in (("dirichlet", (PI, 0.0)),
                                          ("neumann", (PI / 2, PI / 2)),
                                          ("mixed", mixed)):
                group = (plabel, blabel, alpha, beta)
                for n in self._fresh_indices(group, rng):
                    ops.append(self._op(r, f"{plabel} {blabel} n={n}", spec, q, n,
                                        alpha, beta, group))
        beta = self.deep_well_beta + r * self.deep_well_shift
        deep_step = {"kind": "step", "v": -3000.0, "l": 1.0, "r": 2.0}
        q = parse_potential(deep_step)
        for n in range(5):
            ops.append(self._op(r, f"step(-3000,1,2) n={n}", deep_step, q, n, PI / 2, beta,
                                None, expect_error="CountMismatch"))
        deep_power = {"kind": "power", "a": -1.0, "p": -0.9}
        ops.append(self._op(r, "power(-1,-0.9) n=0", deep_power, parse_potential(deep_power),
                            0, PI / 2, beta, None, expect_error="NonFinite"))
        return ops

    def _op(self, r, label, spec, q, n, alpha, beta, group, expect_error=None) -> Op:
        bc = BoundaryParams(alpha, beta)
        return Op(r, f"{label} bc=({alpha:.6g},{beta:.6g})",
                  lambda: spectrum.find_eigenvalue(q, n, bc),
                  {"spec": spec, "n": n, "alpha": alpha, "beta": beta, "group": group},
                  expect_error)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        import checks

        errors = []
        groups: dict[tuple, list[tuple[int, float]]] = {}
        for o in outcomes:
            if o.error_type is not None:
                continue
            d = o.op.data
            errors += [f"{o.op.label}: {e}" for e in
                       checks.eigenpair(d["spec"], d["n"], d["alpha"], d["beta"], o.value)]
            if d["group"] is not None:
                groups.setdefault(d["group"], []).append((d["n"], o.value.mu))
        for group, pairs in groups.items():
            errors += [f"{group[0]} {group[1]}: {e}" for e in checks.increasing_in_n(pairs)]
        return errors


# -- sweep-trace ------------------------------------------------------------------

@dataclass
class SweepOutput:
    result: Any
    brackets: list  # detect_transition's (lo, hi) for each event, in order


def _run_plan(plan) -> SweepOutput:
    result = sweep.run_sweep(plan)
    return SweepOutput(result, [sweep.detect_transition(plan, e["event"], e["zero_id"],
                                                        result=result)
                                for e in result.events])


class SweepTrace:
    """One SweepPlan per operation at the sweep default of 2048 cells.

    A round has three plans, one per potential (zero, cos2x, x^-0.5);
    even rounds sweep beta on zero and x^-0.5 and alpha on cos2x, odd
    rounds the other way round.  Each plan draws n in 1..3, its fixed angle
    and its ten-angle grid from the round's generator.  Beta grids start at
    exactly 0 and alpha grids end at exactly pi, so every plan has one
    endpoint event to refine.
    """

    name = "sweep-trace"
    grid_size = 10

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for i, (plabel, spec) in enumerate((README_POTENTIALS[0], README_POTENTIALS[2],
                                            README_POTENTIALS[4])):
            vary = "beta" if (i + r) % 2 == 0 else "alpha"
            n = int(rng.integers(1, 4))
            if vary == "beta":
                fixed = float(rng.uniform(0.5, 2.8))
                grid = np.linspace(0.0, float(rng.uniform(0.85, 0.95)) * PI, self.grid_size)
                grid[0] = 0.0
            else:
                fixed = float(rng.uniform(0.3, 2.6))
                grid = np.linspace(float(rng.uniform(0.05, 0.15)) * PI, PI, self.grid_size)
                grid[-1] = PI
            plan = sweep.SweepPlan(q=parse_potential(spec), n=n, vary=vary,
                                   fixed_angle=fixed, grid=tuple(grid.tolist()))
            ops.append(Op(r, f"{plabel} vary={vary} n={n} fixed={fixed:.6g}",
                          lambda plan=plan: _run_plan(plan),
                          {"spec": spec, "n": n, "vary": vary, "fixed": fixed,
                           "grid": plan.grid}))
        return ops

    def check(self, outcomes: list[Outcome]) -> list[str]:
        import checks

        errors = []
        for o in outcomes:
            if o.error_type is None:
                errors += [f"{o.op.label}: {e}" for e in checks.sweep_plan(o.op.data, o.value)]
        return errors


# -- trajectory ---------------------------------------------------------------------

class NonFiniteVelocity(Exception):
    """velocity_records returned a record holding nan or inf."""


def _finite(records):
    bad = [r for r in records if not all(math.isfinite(v) for v in (r.x, r.slope, r.velocity))]
    if bad:
        raise NonFiniteVelocity(f"{len(bad)} non-finite records, first {bad[0]}")
    return records


class Trajectory:
    """velocity_records at spectral parameters chosen by the workload.

    A round has 76 operations.  75 are drawn: for each README potential and
    each mu band below, one mu launched from the left and from the right at
    4096 cells, and from one of the two sides, drawn with equal odds, at
    16384 cells.
    Two thirds of the operations use 4096 cells, so the median latency lies
    inside that group rather than on the edge between the two.  The launch
    angle is the pinned one (alpha = pi on the left, beta = 0 on the right)
    or a random one with equal odds; the opposite angle is never pinned,
    because the canonical zero list would then append a zero that a
    solution at a non-eigenvalue mu does not have.  The last is fixed, the
    same in every round and for every seed: zero potential at mu = -30000,
    launched from the left at alpha = 0.002, so that a zero lies just off
    x = 0.  Below mu of about -12,700 the running integral of y^2 overflows
    and turns to nan, so that zero's velocity is nan; the operation raises
    NonFiniteVelocity and is counted as failed until that is fixed.  The
    deep band stops at -12000 so that the drawn operations all complete.
    """

    name = "trajectory"
    # deep hyperbolic (growth e^(sqrt(-mu) pi) > 1e100, so the log scales
    # engage), shallow hyperbolic, then up to about 40 oscillations
    mu_bands = ((-12000.0, -6000.0), (-40.0, -1.0), (1.0, 100.0), (100.0, 600.0),
                (600.0, 1600.0))

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for plabel, spec in README_POTENTIALS:
            q = parse_potential(spec)
            for lo, hi in self.mu_bands:
                mu = float(rng.uniform(lo, hi))
                fine_side = "left" if rng.random() < 0.5 else "right"
                for cells, sides in ((4096, ("left", "right")), (16384, (fine_side,))):
                    for side in sides:
                        pinned = bool(rng.random() < 0.5)
                        free = float(rng.uniform(0.3, 2.8))
                        other = float(rng.uniform(0.3, 2.8))
                        if side == "left":
                            alpha, beta = (PI if pinned else free), other
                        else:
                            alpha, beta = other, (0.0 if pinned else free)
                        bc = BoundaryParams(alpha, beta)
                        ops.append(Op(
                            r,
                            f"{plabel} cells={cells} mu={mu:.6g} side={side} "
                            f"bc=({alpha:.6g},{beta:.6g})",
                            lambda q=q, mu=mu, bc=bc, cells=cells, side=side:
                                _finite(oscillation.velocity_records(q, mu, bc, cells, side)),
                            {"spec": spec, "q": q, "mu": mu, "alpha": alpha, "beta": beta,
                             "cells": cells, "side": side}))
        spec, mu, bc = {"kind": "zero"}, -30000.0, BoundaryParams(0.002, 1.0)
        q = parse_potential(spec)
        ops.append(Op(r, f"zero cells=4096 mu={mu:g} side=left bc=({bc.alpha:g},{bc.beta:g})",
                      lambda: _finite(oscillation.velocity_records(q, mu, bc, 4096, "left")),
                      {"spec": spec, "q": q, "mu": mu, "alpha": bc.alpha, "beta": bc.beta,
                       "cells": 4096, "side": "left"},
                      expect_error="NonFiniteVelocity"))
        return ops

    def check(self, outcomes: list[Outcome]) -> list[str]:
        import checks

        errors = []
        for o in outcomes:
            if o.error_type is None:
                # the phase-ODE and identity checks cost more than the
                # operation itself, so they cover round 0, which holds every
                # potential, band and side at 4096 cells and every potential
                # and band at 16384
                errors += [f"{o.op.label}: {e}" for e in
                           checks.velocity_records(o.op.data, o.value, full=o.op.round == 0)]
        return errors


WORKLOADS = {w.name: w for w in (EigenCold, SweepTrace, Trajectory)}

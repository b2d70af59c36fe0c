"""Verification batteries over the standard test matrix.

The matrix crosses five representative potentials (zero, constant 5,
cos(2x), a tall step, and the integrable singularity x**(-1/2)) with four
boundary angles per side and eigenvalue indices 0..8.  Each battery returns
a BatteryReport whose rows carry the measured metric and its threshold, so
the CLI can print one pass/fail line per case and the acceptance suite can
assert on the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oscillation, potential, spectrum, sweep
from .errors import SLZerosError
from .potential import PI, Potential
from .shooting import left_conditions, propagate, right_conditions
from .spectrum import BoundaryParams, EvfCoordinates

DEFAULT_BATTERY_CELLS = 2048

MATRIX_POTENTIALS: tuple[tuple[str, Potential], ...] = (
    ("zero", potential.zero()),
    ("constant5", potential.constant(5.0)),
    ("cos2x", potential.cosine(1.0, 2.0)),
    ("step10", potential.step(10.0, 1.0, 2.0)),
    ("xpow-0.5", potential.power(1.0, -0.5)),
)
MATRIX_ALPHAS = (PI / 4, PI / 2, 3 * PI / 4, PI)
MATRIX_BETAS = (0.0, PI / 4, PI / 2, 3 * PI / 4)
MATRIX_N = tuple(range(9))

# the CLI's documented default subset: one potential, the full angle grid
DEFAULT_SUBSET = (MATRIX_POTENTIALS[2],)

BATTERY_NAMES = ("theorem1", "velocities", "identities", "evf-monotonicity", "seam")


@dataclass
class BatteryReport:
    name: str
    cases: list[dict] = field(default_factory=list)

    def add(self, case: str, value: float, threshold: float, passed: bool | None = None,
            **extra):
        if passed is None:
            passed = bool(value <= threshold)
        self.cases.append({"case": case, "value": float(value),
                           "threshold": float(threshold), "passed": bool(passed), **extra})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c["passed"] for c in self.cases)

    def worst(self) -> dict | None:
        scored = [c for c in self.cases if c["threshold"] > 0]
        if not scored:
            return None
        return max(scored, key=lambda c: c["value"] / c["threshold"])


def _bc_grid(alphas, betas):
    for a in alphas:
        for b in betas:
            yield BoundaryParams(a, b)


# -- oscillation counts --------------------------------------------------------


def theorem1_battery(potentials=DEFAULT_SUBSET, alphas=MATRIX_ALPHAS, betas=MATRIX_BETAS,
                     n_values=MATRIX_N, cells=DEFAULT_BATTERY_CELLS) -> BatteryReport:
    """Interior zero count must equal n; endpoint zeros appear exactly for
    alpha = pi (at 0) and beta = 0 (at pi)."""
    rep = BatteryReport("theorem1")
    for qname, q in potentials:
        for bc in _bc_grid(alphas, betas):
            mus = []
            for n in n_values:
                label = f"q={qname} alpha={bc.alpha:.4f} beta={bc.beta:.4f} n={n}"
                try:
                    pair = spectrum.find_eigenvalue(q, n, bc, cells)
                except SLZerosError as exc:
                    rep.add(label, math.inf, 0.0, passed=False, error=str(exc))
                    continue
                mus.append(pair.mu)
                zeros = pair.zeros
                interior = sum(1 for x in zeros if 0.0 < x < PI)
                at_left = any(x == 0.0 for x in zeros)
                at_right = any(x == PI for x in zeros)
                expect_left = bc.alpha == PI
                expect_right = bc.beta == 0.0
                ordered = len(mus) < 2 or mus[-1] > mus[-2]
                ok = (interior == n and at_left == expect_left and at_right == expect_right
                      and len(zeros) == n + int(expect_left) + int(expect_right)
                      and ordered)
                rep.add(label, float(abs(interior - n)), 0.0, passed=ok,
                        interior=interior, total=len(zeros), mu=pair.mu)
    return rep


# -- zero velocities -------------------------------------------------------------


def _nearest(xs, x0, window):
    best = None
    for x in xs:
        if abs(x - x0) <= window and (best is None or abs(x - x0) < abs(best - x0)):
            best = x
    return best


def _fd_velocities(q, mu, bc, side, records, cells, h):
    """Central finite differences of the re-solved zero locations under a mu
    perturbation; zeros that exit through an endpoint on one side get a
    second-order three-point one-sided formula instead."""
    ic = left_conditions(bc.alpha) if side == "left" else right_conditions(bc.beta)
    zcache: dict[float, list[float]] = {}

    def zeros_at(offset):
        if offset not in zcache:
            traj = propagate(q, mu + offset, ic, cells, variational=False)
            zcache[offset] = [r.x for r in oscillation.find_zeros(traj)]
        return zcache[offset]

    out = []
    for r in records:
        x0 = r.x
        window = max(1e-3, 3.0 * abs(r.velocity) * h)
        xm = _nearest(zeros_at(-h), x0, window)
        xp = _nearest(zeros_at(+h), x0, window)
        if xm is not None and xp is not None:
            out.append((xp - xm) / (2.0 * h))
        elif xp is not None:
            xh = _nearest(zeros_at(+h / 2), x0, window)
            out.append((-3.0 * x0 + 4.0 * xh - xp) / h if xh is not None
                       else (xp - x0) / h)
        elif xm is not None:
            xh = _nearest(zeros_at(-h / 2), x0, window)
            out.append((3.0 * x0 - 4.0 * xh + xm) / h if xh is not None
                       else (x0 - xm) / (-h))
        else:
            out.append(None)
    return out


def velocity_battery(potentials=DEFAULT_SUBSET, alphas=MATRIX_ALPHAS, betas=MATRIX_BETAS,
                     n_values=MATRIX_N, cells=DEFAULT_BATTERY_CELLS,
                     h=1e-6, rel_tol=1e-4) -> BatteryReport:
    """Analytic dx/dmu versus finite differences of re-solved zeros, plus the
    sign law: <= 0 on the left-launched side, >= 0 on the right-launched
    side, strict except at pinned endpoint zeros."""
    rep = BatteryReport("velocities")
    for qname, q in potentials:
        for bc in _bc_grid(alphas, betas):
            for n in n_values:
                base = f"q={qname} alpha={bc.alpha:.4f} beta={bc.beta:.4f} n={n}"
                try:
                    pair = spectrum.find_eigenvalue(q, n, bc, cells)
                except SLZerosError as exc:
                    rep.add(base, math.inf, 0.0, passed=False, error=str(exc))
                    continue
                for side in ("left", "right"):
                    try:
                        records = oscillation.pair_velocity_records(q, pair, cells, side=side)
                    except SLZerosError as exc:
                        rep.add(f"{base} side={side}", math.inf, 0.0, passed=False,
                                error=str(exc))
                        continue
                    fds = _fd_velocities(q, pair.mu, bc, side, records, cells, h)
                    for r, fd in zip(records, fds):
                        label = f"{base} side={side} k={r.k}"
                        pinned = (side == "left" and r.x == 0.0) or \
                                 (side == "right" and r.x == PI)
                        sign_ok = (r.velocity <= 0.0 if side == "left"
                                   else r.velocity >= 0.0)
                        if pinned:
                            sign_ok = sign_ok and r.velocity == 0.0
                        else:
                            sign_ok = sign_ok and r.velocity != 0.0
                        if fd is None:
                            rep.add(label, math.inf, rel_tol, passed=False,
                                    error="no matching perturbed zero")
                            continue
                        denom = max(abs(r.velocity), abs(fd), 1e-9)
                        rel = abs(r.velocity - fd) / denom
                        if pinned and abs(fd) < 1e-9 and r.velocity == 0.0:
                            rel = 0.0
                        rep.add(label, rel, rel_tol, passed=(rel <= rel_tol and sign_ok),
                                velocity=r.velocity, fd=fd, x=r.x)
    return rep


# -- integral identities and variational consistency ----------------------------


def identity_battery(potentials=DEFAULT_SUBSET, cells=DEFAULT_BATTERY_CELLS,
                     mus=(1.0, 7.3, 23.5), fd_h=1e-5) -> BatteryReport:
    """Residuals of the integrated Wronskian-type identity at 8 probe points
    per trajectory (threshold 1e-8 relative, 1e-12 for constant potentials),
    plus dy/dmu against central finite differences (1e-5 relative)."""
    rep = BatteryReport("identities")
    probes = [k * PI / 9.0 for k in range(1, 9)]
    for qname, q in potentials:
        constant_kind = q.kind in ("zero", "constant")
        tol = 1e-12 if constant_kind else 1e-8
        for side, angles in (("left", MATRIX_ALPHAS), ("right", MATRIX_BETAS)):
            for angle in angles:
                ic = left_conditions(angle) if side == "left" else right_conditions(angle)
                for mu in mus:
                    traj = propagate(q, mu, ic, cells)
                    for a in probes:
                        resid = oscillation.identity_residual(traj, a)
                        ref = max(1.0, oscillation.square_integral_from_launch(traj, a))
                        label = (f"identity q={qname} side={side} angle={angle:.4f} "
                                 f"mu={mu} a={a:.4f}")
                        rep.add(label, resid / ref, tol)
                    # variational consistency at the far endpoint; one
                    # component may cross zero, so compare the pair as a
                    # vector
                    far = 0 if side == "right" else -1
                    plus = propagate(q, mu + fd_h, ic, cells, variational=False)
                    minus = propagate(q, mu - fd_h, ic, cells, variational=False)
                    v = traj.true_states()[far]
                    fd = (plus.true_states()[far] - minus.true_states()[far]) / (2 * fd_h)
                    got = np.hypot(v[2], v[3])
                    want = np.hypot(fd[0], fd[1])
                    err = np.hypot(v[2] - fd[0], v[3] - fd[1])
                    rel = err / max(got, want, 1e-9)
                    label = (f"variational q={qname} side={side} angle={angle:.4f} "
                             f"mu={mu}")
                    rep.add(label, rel, 1e-5)
    return rep


# -- eigenvalues-function structure ----------------------------------------------


def evf_monotonicity_battery(potentials=DEFAULT_SUBSET, size=16,
                             cells=DEFAULT_BATTERY_CELLS) -> BatteryReport:
    """Strict monotonicity of mu(gamma, delta) on a size x size grid."""
    rep = BatteryReport("evf-monotonicity")
    gammas = np.linspace(0.35, 4.0 * PI - 0.1, size)
    deltas = np.linspace(-3.0 * PI + 0.1, 0.92 * PI, size)
    for qname, q in potentials:
        label = f"evf-grid q={qname} {size}x{size}"
        try:
            grid = spectrum.evf_grid(q, gammas, deltas, cells)
        except SLZerosError as exc:
            rep.add(label, math.inf, 0.0, passed=False, error=str(exc))
            continue
        dg = float(np.diff(grid, axis=0).min())
        dd = float(np.diff(grid, axis=1).max())
        rep.add(label, 0.0, 0.0, passed=(dg > 0.0 and dd < 0.0),
                min_gamma_increment=dg, max_delta_increment=dd)
    return rep


def seam_battery(potentials=DEFAULT_SUBSET, n_values=(1, 2, 3, 4, 5),
                 cells=DEFAULT_BATTERY_CELLS, eps=1e-4, tol=1e-3) -> BatteryReport:
    """Chart-seam consistency: mu_n(q, pi, pi - eps) near mu_{n-1}(q, pi, 0),
    and the gamma seam mu(pi + e, delta) -> mu(pi, delta).

    The beta-seam gap at finite eps is eps times the chart slope, which
    grows with n (for q = 0 it is exactly 2 n^2 eps / pi), so the tolerance
    is relative to the eigenvalue scale.
    """
    rep = BatteryReport("seam")
    for qname, q in potentials:
        for n in n_values:
            hi = spectrum.find_eigenvalue(q, n, BoundaryParams(PI, PI - eps), cells).mu
            lo = spectrum.find_eigenvalue(q, n - 1, BoundaryParams(PI, 0.0), cells).mu
            rel = abs(hi - lo) / max(1.0, abs(lo))
            rep.add(f"beta-seam q={qname} n={n}", rel, tol,
                    mu_high=hi, mu_low=lo, abs_gap=abs(hi - lo))
        ga = spectrum.evf(q, EvfCoordinates(PI + 1e-6, -1.0), cells)
        gb = spectrum.evf(q, EvfCoordinates(PI, -1.0), cells)
        rep.add(f"gamma-seam q={qname}", abs(ga - gb), 1e-4)
    return rep


# -- sweeps -----------------------------------------------------------------------


def _standard_sweep_plans(cells):
    q0 = potential.zero()
    qc = potential.cosine(1.0, 2.0)
    qp = potential.power(1.0, -0.5)
    return (
        sweep.SweepPlan(q0, 1, "beta", PI, sweep.uniform_grid("beta", 64), cells),
        sweep.SweepPlan(q0, 0, "beta", PI, sweep.uniform_grid("beta", 64), cells),
        sweep.SweepPlan(qc, 2, "beta", PI, sweep.uniform_grid("beta", 64), cells),
        sweep.SweepPlan(q0, 2, "alpha", 0.0, sweep.uniform_grid("alpha", 64), cells),
        sweep.SweepPlan(qp, 3, "alpha", 0.0, sweep.uniform_grid("alpha", 64), cells),
    )


def sweep_battery(cells=DEFAULT_BATTERY_CELLS) -> BatteryReport:
    """Count bookkeeping, trajectory monotonicity, and endpoint-event
    localisation along the standard sweeps."""
    rep = BatteryReport("sweep")
    for plan in _standard_sweep_plans(cells):
        name = (f"q={plan.q.describe()} n={plan.n} vary={plan.vary} "
                f"fixed={plan.fixed_angle:.4f}")
        try:
            res = sweep.run_sweep(plan)
        except SLZerosError as exc:
            rep.add(name, math.inf, 0.0, passed=False, error=str(exc))
            continue
        # interior count stays n at every angle
        counts_ok = True
        angle_points: dict[float, int] = {}
        for t in res.trajectories:
            for angle, x in t.points:
                if 0.0 < x < PI:
                    angle_points[angle] = angle_points.get(angle, 0) + 1
        for angle, _ in res.eigenvalue_path:
            if angle_points.get(angle, 0) != plan.n:
                counts_ok = False
        rep.add(f"{name} interior-counts", 0.0, 0.0, passed=counts_ok)
        # zeros move right in both sweep families
        wrong = 0.0
        for t in res.trajectories:
            xs = [x for _, x in t.points]
            for a, b in zip(xs, xs[1:]):
                wrong = max(wrong, a - b)
        rep.add(f"{name} monotone-zeros", wrong, 1e-9)
        # events only at the pinning angles
        for e in res.events:
            if plan.vary == "beta":
                ok = e["event"] == sweep.EXITED_RIGHT
                lo, hi = sweep.detect_transition(plan, e["event"], e["zero_id"], res)
                ok = ok and hi - lo <= 1e-8 and hi <= plan.grid[1]
            else:
                ok = e["event"] == sweep.ENTERED_LEFT
                lo, hi = sweep.detect_transition(plan, e["event"], e["zero_id"], res)
                ok = ok and hi - lo <= 1e-8 and abs(hi - PI) < 1e-7
            rep.add(f"{name} event={e['event']} zero={e['zero_id']}",
                    hi - lo, 1e-8, passed=ok, angle_lo=lo, angle_hi=hi)
    return rep


def run_battery(name: str, matrix: str = "default",
                potentials=None, cells=DEFAULT_BATTERY_CELLS) -> BatteryReport:
    """Entry point used by the CLI: select a battery by name and subset."""
    if potentials is None:
        potentials = MATRIX_POTENTIALS if matrix == "full" else DEFAULT_SUBSET
    if name == "theorem1":
        return theorem1_battery(potentials, cells=cells)
    if name == "velocities":
        return velocity_battery(potentials, cells=cells)
    if name == "identities":
        return identity_battery(potentials, cells=cells)
    if name == "evf-monotonicity":
        return evf_monotonicity_battery(potentials, cells=cells)
    if name == "seam":
        return seam_battery(potentials, cells=cells)
    if name == "sweep":
        return sweep_battery(cells=cells)
    raise SLZerosError(f"unknown battery {name!r}")

"""Checks of the library's outputs against ``reference.py`` and against
properties the method must have.  Each function returns a list of error
messages; an empty list means the output passed.

Tolerances.  For constant potentials the cell-averaged problem is the exact
problem, so eigenvalues, zeros and velocities must match their closed forms
to roundoff.  For every other potential the library solves the problem
with q replaced by its cell averages, a second-order approximation: at
4096 cells the largest eigenvalue error seen over 54 seeds of these inputs
is about 1e-5 relative (table potentials, and x^-0.5 at mixed angles, where
the order drops to about 1.5), and the largest eigenfunction zero
displacement about 2e-6.  MU_TOL leaves a margin of five over the first;
both tolerances stay far below the gap to the next eigenvalue or zero,
which is what a wrong answer moves by.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

PI = math.pi

FLAT_MU_TOL = 1e-10     # relative to max(1, |mu|)
FLAT_ZERO_TOL = 1e-9    # absolute, in x
FLAT_VELOCITY_TOL = 1e-8  # relative
MU_TOL = 5e-5           # relative to max(1, |mu|), at 4096 cells
SWEEP_CELLS = 2048
ZERO_TOL = 5e-4         # absolute, in x
IDENTITY_TOL = 1e-8     # relative to the integral of y^2
EVENT_WIDTH = 1e-8
DEEP_MU = -5000.0       # below this the trajectory must have used log scales


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def eigenpair(spec: dict, n: int, alpha: float, beta: float, pair) -> list[str]:
    """find_eigenvalue(q, n, (alpha, beta)) against references and properties."""
    errs = []
    mu = pair.mu
    if pair.n != n or not math.isfinite(mu):
        return [f"returned n={pair.n}, mu={mu}"]
    zeros = list(pair.zeros)
    if any(b <= a for a, b in zip(zeros, zeros[1:])) or (
            zeros and not 0.0 <= zeros[0] <= zeros[-1] <= PI):
        errs.append(f"zeros not strictly increasing inside [0, pi]: {zeros}")
    interior = [x for x in zeros if 0.0 < x < PI]
    if len(interior) != n:
        errs.append(f"{len(interior)} interior zeros, expected {n}")
    if (bool(zeros) and zeros[0] == 0.0) != (alpha == PI):
        errs.append(f"zero at x = 0 exactly iff alpha = pi fails "
                    f"(alpha={alpha}, zeros={zeros[:1]})")
    if (bool(zeros) and zeros[-1] == PI) != (beta == 0.0):
        errs.append(f"zero at x = pi exactly iff beta = 0 fails "
                    f"(beta={beta}, zeros={zeros[-1:]})")
    if len(zeros) != len(interior) + (alpha == PI) + (beta == 0.0):
        errs.append(f"zeros at the ends that no angle pins: {zeros}")

    c = ref.constant_level(spec)
    if c is not None:
        mu_ref = ref.flat_eigenvalue(n, alpha, beta, c)
        if _rel(mu, mu_ref) > FLAT_MU_TOL:
            errs.append(f"mu={mu!r}, closed form {mu_ref!r}")
        z_ref = [x for x, _ in ref.flat_zeros(mu - c, alpha)][:n]
        if len(z_ref) == n and len(interior) == n:
            worst = max((abs(a - b) for a, b in zip(interior, z_ref)), default=0.0)
            if worst > FLAT_ZERO_TOL:
                errs.append(f"zeros off their closed form by {worst:.3e}")
        return errs

    m = ref.mathieu_eigenvalue(spec, n, alpha, beta)
    if m is not None and _rel(mu, m) > MU_TOL:
        errs.append(f"mu={mu!r}, Mathieu characteristic value {m!r}")
    match = ref.EigenMatch(spec, mu, n, alpha, beta, dense=True)
    mu_ref = match.newton_mu()
    worst = max(match.zero_offsets(interior), default=0.0)
    if _rel(mu, mu_ref) > MU_TOL or worst > ZERO_TOL:
        # one Newton step can fall short, and past a barrier the phases at
        # the program's mu move the zeros: settle the reference eigenvalue
        # and judge mu and the zeros there before calling them wrong
        try:
            mu_ref = ref.eigenvalue_near(spec, mu_ref, n, alpha, beta)
        except RuntimeError as exc:
            return errs + [str(exc)]
        worst = max(ref.EigenMatch(spec, mu_ref, n, alpha, beta, dense=True)
                    .zero_offsets(interior), default=0.0)
    if _rel(mu, mu_ref) > MU_TOL:
        errs.append(f"mu={mu!r}, phase ODE {mu_ref!r}")
    elif worst > ZERO_TOL:
        errs.append(f"zeros off the phase ODE's by up to {worst:.3e}")
    return errs


def increasing_in_n(pairs: list[tuple[int, float]]) -> list[str]:
    """mu strictly increasing in n for one potential and boundary pair."""
    pairs = sorted(pairs)
    return [f"mu_{a} = {ma!r} >= mu_{b} = {mb!r}"
            for (a, ma), (b, mb) in zip(pairs, pairs[1:]) if mb <= ma]


def velocity_records(data: dict, records, full: bool) -> list[str]:
    """velocity_records(q, mu, bc, cells, side) against references and properties.

    ``full`` adds the Wronskian identity on a fresh propagation and, for
    non-constant q, the phase ODE's zero count and positions.
    """
    errs = []
    side, mu, spec = data["side"], data["mu"], data["spec"]
    left = side == "left"
    xs = [r.x for r in records]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        errs.append(f"zeros not strictly increasing: {xs}")
    for i, r in enumerate(records):
        if not all(math.isfinite(v) for v in (r.x, r.slope, r.velocity)):
            errs.append(f"non-finite record {r}")
            continue
        if r.side != side or r.k != (i if left else len(records) - 1 - i):
            errs.append(f"record {i} has side={r.side}, k={r.k}")
        launch_end = r.x == (0.0 if left else PI)
        if launch_end:
            if r.velocity != 0.0:
                errs.append(f"pinned zero at x={r.x} has velocity {r.velocity!r}")
        elif (r.velocity >= 0.0) if left else (r.velocity <= 0.0):
            errs.append(f"velocity sign law fails at x={r.x!r}: {r.velocity!r} on the {side}")
    pinned = data["alpha"] == PI if left else data["beta"] == 0.0
    has_launch_zero = bool(xs) and xs[0 if left else -1] == (0.0 if left else PI)
    if pinned != has_launch_zero:
        errs.append(f"launch-end zero present={has_launch_zero}, pinned={pinned}")
    if xs and (xs[-1] == PI if left else xs[0] == 0.0):
        errs.append("zero at the far end, which no angle pins")

    # zeros away from the launch end as (distance from launch end, velocity
    # in that frame), nearest first
    if left:
        free = [(r.x, r.velocity) for r in records if r.x != 0.0]
    else:
        free = [(PI - r.x, -r.velocity) for r in reversed(records) if r.x != PI]
    # a right launch read from pi towards 0 is a left launch with angle
    # pi - beta: y(pi) = sin(beta), -y'(pi) = cos(beta)
    launch_angle = data["alpha"] if left else PI - data["beta"]
    c = ref.constant_level(spec)
    if c is not None:
        expected = [z for z in ref.flat_zeros(mu - c, launch_angle) if z[0] < PI]
        if len(expected) != len(free):
            errs.append(f"{len(free)} zeros off the launch end, closed form has {len(expected)}")
        else:
            for (t, v), (t_ref, v_ref) in zip(free, expected):
                if abs(t - t_ref) > FLAT_ZERO_TOL:
                    errs.append(f"zero at distance {t!r} from launch, closed form {t_ref!r}")
                elif abs(v - v_ref) > FLAT_VELOCITY_TOL * abs(v_ref):
                    errs.append(f"dx/dmu={v!r} at distance {t!r}, closed form {v_ref!r}")
    if not full:
        return errs

    errs += _identity(data)
    if c is None:
        angle = data["alpha"] if left else data["beta"]
        phase = ref.PhaseSolution(spec, mu, angle, side, dense=True)
        thetas = phase.interior_zero_phases()
        interior = [x for x in xs if 0.0 < x < PI]
        if thetas is not None and len(thetas) != len(interior):
            errs.append(f"{len(interior)} interior zeros, phase ODE has {len(thetas)}")
        elif thetas is not None:
            for x, th in zip(interior, thetas):
                off = abs(phase.theta(x) - th) / phase.scale
                if off > ZERO_TOL:
                    errs.append(f"zero at x={x!r} is {off:.3e} from the phase ODE's")
                    break
    return errs


def _identity(data: dict) -> list[str]:
    """Wronskian identity y' dy/dmu - y dy'/dmu = integral of y^2 from the
    launch end (sign flipped for right launches), at every mesh point, on a
    fresh variational propagation; and log scales in use for deep mu."""
    from slzeros import shooting

    ic = (shooting.left_conditions(data["alpha"]) if data["side"] == "left"
          else shooting.right_conditions(data["beta"]))
    traj = shooting.propagate(data["q"], data["mu"], ic, data["cells"], variational=True)
    st, sig = traj.states, traj.log_scale
    wronskian = st[:, 1] * st[:, 2] - st[:, 3] * st[:, 0]
    if data["side"] == "right":
        wronskian = -wronskian
    with np.errstate(under="ignore"):
        integral = traj.cum_square * np.exp(-2.0 * sig)  # in the stored scale
    errs = []
    finite = np.isfinite(wronskian) & np.isfinite(integral)
    if not finite.all():
        errs.append(f"{int((~finite).sum())} mesh points with a non-finite Wronskian "
                    f"or integral of y^2")
    mask = finite & (integral > 0.0)
    if mask.any():
        worst = float((np.abs(wronskian[mask] - integral[mask]) / integral[mask]).max())
        if not worst <= IDENTITY_TOL:
            errs.append(f"Wronskian identity relative residual {worst:.3e}")
    if data["mu"] < DEEP_MU and not np.any(sig != 0.0):
        errs.append("deep hyperbolic mu propagated without log scales")
    return errs


def sweep_plan(data: dict, out) -> list[str]:
    """run_sweep + detect_transition of one plan against properties and
    references."""
    errs = []
    res, vary, n, fixed, spec = out.result, data["vary"], data["n"], data["fixed"], data["spec"]
    pin = 0.0 if vary == "beta" else PI

    def bc(angle):
        return (fixed, angle) if vary == "beta" else (angle, fixed)

    path = res.eigenvalue_path
    angles = [a for a, _ in path]
    mus = [m for _, m in path]
    if any(b <= a for a, b in zip(angles, angles[1:])) or not set(data["grid"]) <= set(angles):
        errs.append("eigenvalue path angles do not cover the grid in order")
    steps = [b - a for a, b in zip(mus, mus[1:])]
    if any((d >= 0.0) if vary == "beta" else (d <= 0.0) for d in steps):
        trend = "decreasing in beta" if vary == "beta" else "increasing in alpha"
        errs.append(f"mu not strictly {trend}")

    by_angle: dict[float, list[float]] = {a: [] for a in angles}
    for t in res.trajectories:
        pts = t.points
        if any(b[0] <= a[0] or b[1] <= a[1] for a, b in zip(pts, pts[1:])):
            errs.append(f"zero {t.identity} does not move right along the sweep: {pts[:4]}...")
        for a, x in pts:
            by_angle.setdefault(a, []).append(x)
    for a, xs in by_angle.items():
        xs.sort()
        pinned = a == pin
        if len(xs) != n + pinned:
            errs.append(f"{len(xs)} zeros at angle {a!r}, expected {n + pinned}")
        elif pinned and xs[-1 if vary == "beta" else 0] != PI - pin:
            errs.append(f"no zero pinned at x={PI - pin} at angle {a!r}")

    kind = "exited_at_right" if vary == "beta" else "entered_at_left"
    events = res.events
    if (len(events) != 1 or events[0]["event"] != kind
            or pin not in (events[0]["angle_lo"], events[0]["angle_hi"])):
        errs.append(f"events {[(e['event'], e['angle_lo'], e['angle_hi']) for e in events]}, "
                    f"expected one {kind} next to {pin}")
    if len(out.brackets) != len(events):
        errs.append("not every event was refined")
    for lo, hi in out.brackets:
        if not (lo <= pin <= hi and hi - lo <= EVENT_WIDTH):
            errs.append(f"refined event bracket [{lo!r}, {hi!r}] misses {pin} "
                        f"or is wider than 1e-8")

    c = ref.constant_level(spec)
    checked = path if c is not None else [path[0], path[-1]]
    for a, mu in checked:
        alpha, beta = bc(a)
        if c is not None:
            mu_ref = ref.flat_eigenvalue(n, alpha, beta, c)
            if _rel(mu, mu_ref) > FLAT_MU_TOL:
                errs.append(f"mu={mu!r} at angle {a!r}, closed form {mu_ref!r}")
            # the watched eigenfunction: left-launched for beta sweeps,
            # right-launched (mirrored) for alpha sweeps
            launch = alpha if vary == "beta" else PI - beta
            z_ref = [x for x, _ in ref.flat_zeros(mu - c, launch)][:n]
            got = sorted(x for x in by_angle[a] if 0.0 < x < PI)
            if vary == "alpha":
                z_ref = sorted(PI - x for x in z_ref)
            worst = max((abs(u - v) for u, v in zip(got, z_ref)), default=0.0)
            if len(z_ref) != n or worst > FLAT_ZERO_TOL:
                errs.append(f"zeros at angle {a!r} off their closed form by {worst:.3e}")
        else:
            tol = MU_TOL * (4096 / SWEEP_CELLS) ** 2
            mu_ref = ref.EigenMatch(spec, mu, n, alpha, beta).newton_mu()
            if _rel(mu, mu_ref) > tol:
                try:
                    mu_ref = ref.eigenvalue_near(spec, mu_ref, n, alpha, beta)
                except RuntimeError as exc:
                    errs.append(f"at angle {a!r}: {exc}")
                    continue
            if _rel(mu, mu_ref) > tol:
                errs.append(f"mu={mu!r} at angle {a!r}, phase ODE {mu_ref!r}")
    return errs

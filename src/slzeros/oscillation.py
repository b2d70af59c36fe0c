"""Eigenfunction zeros, analytic zero velocities, and integral self-checks.

Zeros are never hunted by sampling: inside each mesh cell the solution is a
known combination of the constant-coefficient basis, so its roots come from
inverting that closed form (an arctangent family in oscillatory cells, at
most one root otherwise), followed by a short Newton polish on the same
closed form.  Only cells that can hold a root are inverted: those whose end
values differ in sign, trigonometric cells turning more than half a turn,
and the first and last cell.  Endpoint zeros are decided by boundary-angle
logic alone -- alpha = pi pins a zero at 0 and beta = 0 pins one at pi for
every mu -- so they are exact by construction rather than floating-point
accidents.  An eigenfunction's zeros come from both launches, each on its
own side of a matching point (matched_zero_records).

The velocity of a zero with respect to the spectral parameter is computed
from the launch-side formula matching the trajectory direction:
  left launch:  dx/dmu = -(1/y'(x)^2) * integral(y^2, 0, x)    <= 0
  right launch: dx/dmu = +(1/y'(x)^2) * integral(y^2, x, pi)   >= 0
with the integrals accumulated cell-exactly.  Equality occurs only at the
pinned endpoint zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CountMismatch, DegenerateRatio, SlopeUnderflow
from .potential import PI, Potential
from .shooting import (
    DEFAULT_CELLS,
    SolutionTrajectory,
    left_conditions,
    propagate,
    right_conditions,
    square_integral_from_launch,
    _cell_frame,
    _square_integrals_from_launch,
)

_DEDUP = 1e-9
_END_FUZZ = 1e-9
_ZERO_TOL = 1e-12
_SLOPE_FLOOR = 1e-10
# roots this close to a zero decided elsewhere (a pinned endpoint, or the
# other launch's at the matching point) are that zero found again
_PIN_TOL = 1e-6


@dataclass(frozen=True)
class ZeroRecord:
    """One zero of a propagated solution.

    k is the ordinal within the eigenfunction: ascending from x = 0 for
    left-launched solutions, descending from x = pi for right-launched
    ones.  velocity is filled by the velocity operations; side names the
    formula family that produced it.
    """

    x: float
    k: int
    slope: float
    velocity: float | None = None
    side: str = "left"


def _scalar_basis(w: float, s: float) -> tuple[float, float, float]:
    """(C, S, C') for one cell: y(s) = y0*C + yp0*S, y'(s) = y0*C' + yp0*C."""
    z = w * s * s
    if abs(z) < 1e-12:
        sf = 1.0 - z / 6.0 + z * z / 120.0
        c = 1.0 - z / 2.0 + z * z / 24.0
    elif z > 0.0:
        u = math.sqrt(z)
        c = math.cos(u)
        sf = math.sin(u) / u
    else:
        u = math.sqrt(-z)
        c = math.cosh(u)
        sf = math.sinh(u) / u
    S = s * sf
    return c, S, -w * S


def _cell_root_candidates(y0: float, yp0: float, w: float,
                          s_lo: float, s_hi: float) -> list[float]:
    """All roots of y0*C(s) + yp0*S(s) with s in [s_lo, s_hi]."""
    roots: list[float] = []
    if w > 0.0:
        om = math.sqrt(w)
        base = math.atan2(-y0 * om, yp0)
        k_min = math.ceil((om * s_lo - base) / math.pi)
        k_max = math.floor((om * s_hi - base) / math.pi)
        for k in range(k_min, k_max + 1):
            roots.append((base + k * math.pi) / om)
    elif w < 0.0:
        if yp0 != 0.0:
            r = -y0 * math.sqrt(-w) / yp0
            if abs(r) < 1.0:
                s = math.atanh(r) / math.sqrt(-w)
                if s_lo <= s <= s_hi:
                    roots.append(s)
    else:
        if yp0 != 0.0:
            s = -y0 / yp0
            if s_lo <= s <= s_hi:
                roots.append(s)
    return roots


def _polish(y0, yp0, w, s, s_lo, s_hi):
    for _ in range(2):
        c, S, cp = _scalar_basis(w, s)
        f = y0 * c + yp0 * S
        fp = y0 * cp + yp0 * c
        if fp == 0.0:
            break
        s = min(max(s - f / fp, s_lo), s_hi)
    return s


def find_zeros(traj: SolutionTrajectory, window: range | None = None) -> list[ZeroRecord]:
    """Every zero of y on [0, pi], or in the cells of window, sorted ascending.

    A cell is searched when its stored end values differ in sign or one is
    zero (the log scales are positive factors, so signs survive them), when
    it is trigonometric and turns more than half a turn (w h**2 > pi**2,
    the only way a cell can hold two roots), or when it is the first or
    last cell searched, where a root up to _END_FUZZ past the edge has no
    neighbouring cell to catch it.  The launch-endpoint zero is included
    exactly when the launch angle forces it (alpha = pi on the left,
    beta = 0 on the right), whatever the window.  Raises SlopeUnderflow if
    a zero with |y'| < 1e-10 is found, since zeros of nontrivial solutions
    are simple.
    """
    mesh = traj.mesh
    states = traj.states
    lo, hi = (0, len(mesh) - 1) if window is None else (window.start, window.stop)
    ym = states[lo:hi + 1, 0]
    widths = np.diff(mesh)
    candidates = ym[:-1] * ym[1:] <= 0.0
    candidates |= traj.w[lo:hi] * widths[lo:hi] ** 2 > math.pi ** 2
    if hi > lo:
        candidates[[0, -1]] = True

    left = traj.direction == "left"
    found: list[tuple[float, float, float]] = []  # (x, slope_stored, sigma)
    for i in lo + np.nonzero(candidates)[0]:
        edge, x_edge = _cell_frame(traj, int(i))
        y0, yp0 = float(states[edge, 0]), float(states[edge, 1])
        h = float(widths[i])
        # a root exactly on a mesh point lands at s = 0 or s = h only up to
        # roundoff, so widen both ends slightly; dedup removes the twin.
        if left:
            s_lo, s_hi = -_END_FUZZ, h + _END_FUZZ
        else:
            s_lo, s_hi = -h - _END_FUZZ, _END_FUZZ
        amp = max(abs(y0), abs(yp0) * h, abs(float(states[edge + (1 if left else -1), 0])))
        for s in _cell_root_candidates(y0, yp0, float(traj.w[i]), s_lo, s_hi):
            s = _polish(y0, yp0, float(traj.w[i]), s, s_lo, s_hi)
            c, S, cp = _scalar_basis(float(traj.w[i]), s)
            if abs(y0 * c + yp0 * S) > _ZERO_TOL * max(amp, 1e-300):
                continue
            slope = y0 * cp + yp0 * c
            x = min(max(x_edge + s, 0.0), PI)
            found.append((x, slope, float(traj.log_scale[edge])))

    found.sort(key=lambda t: t[0])
    dedup: list[tuple[float, float, float]] = []
    for item in found:
        if dedup and item[0] - dedup[-1][0] < _DEDUP:
            continue
        dedup.append(item)

    # boundary-angle pinned zero at the launch endpoint
    pinned_left = traj.direction == "left" and traj.ic.angle == PI
    pinned_right = traj.direction == "right" and traj.ic.angle == 0.0
    if pinned_left:
        dedup = [z for z in dedup if z[0] >= _DEDUP]
        dedup.insert(0, (0.0, float(states[0, 1]), float(traj.log_scale[0])))
    if pinned_right:
        dedup = [z for z in dedup if z[0] <= PI - _DEDUP]
        dedup.append((PI, float(states[-1, 1]), float(traj.log_scale[-1])))

    records = []
    total = len(dedup)
    for idx, (x, slope_stored, sigma) in enumerate(dedup):
        with np.errstate(over="ignore"):
            slope = slope_stored * math.exp(sigma) if sigma != 0.0 else slope_stored
        if abs(slope) < _SLOPE_FLOOR:
            raise SlopeUnderflow(
                f"zero at x={x} has |slope|={abs(slope):.3e}; zeros must be simple")
        k = idx if left else total - 1 - idx
        records.append(ZeroRecord(x=x, k=k, slope=float(slope), side=traj.direction))
    return records


def canonical_zero_records(q: Potential, mu: float, bc, cells: int = DEFAULT_CELLS,
                           side: str = "left",
                           traj: SolutionTrajectory | None = None) -> list[ZeroRecord]:
    """Zero list of the eigenfunction at mu with both endpoints decided by
    boundary-angle logic (alpha = pi pins x = 0, beta = 0 pins x = pi)."""
    if traj is None:
        ic = left_conditions(bc.alpha) if side == "left" else right_conditions(bc.beta)
        traj = propagate(q, mu, ic, cells, variational=False)
    elif traj.direction != side:
        raise ValueError(f"trajectory direction {traj.direction!r} != side {side!r}")
    records = find_zeros(traj)
    if side == "left" and bc.beta == 0.0:
        records = [r for r in records if r.x <= PI - _PIN_TOL]
        end = traj.value(PI)
        records.append(ZeroRecord(x=PI, k=0, slope=float(end[1]), side=side))
    if side == "right" and bc.alpha == PI:
        records = [r for r in records if r.x >= _PIN_TOL]
        start = traj.value(0.0)
        records.insert(0, ZeroRecord(x=0.0, k=0, slope=float(start[1]), side=side))
    total = len(records)
    return [replace(r, k=(i if side == "left" else total - 1 - i))
            for i, r in enumerate(records)]


def velocity_records(q: Potential, mu: float, bc, cells: int = DEFAULT_CELLS,
                     side: str = "left") -> list[ZeroRecord]:
    """Zero records with the analytic dx/dmu filled in for every zero."""
    ic = left_conditions(bc.alpha) if side == "left" else right_conditions(bc.beta)
    traj = propagate(q, mu, ic, cells, variational=True)
    records = canonical_zero_records(q, mu, bc, cells, side=side, traj=traj)
    integrals = _square_integrals_from_launch(traj, np.array([r.x for r in records]))
    sign = -1.0 if side == "left" else 1.0
    return [replace(r, velocity=float(sign * integral / (r.slope * r.slope)), side=side)
            for r, integral in zip(records, integrals.tolist())]


def matched_zero_records(phi: SolutionTrajectory, psi: SolutionTrajectory,
                         split: int) -> list[ZeroRecord]:
    """Zeros of an eigenfunction from its two launches met at the matching
    point x_m = mesh[split]: phi's (left launch) below x_m, searched over
    cells 0..split-1, and psi's (right launch) from x_m on, searched over
    the rest.  Each launch is trusted only on its own side: past x_m it may
    carry a roundoff-born growing solution that the eigenfunction lacks,
    whose zeros are not the eigenfunction's.

    Both searches reach _END_FUZZ past x_m, so a zero on x_m can come from
    both; it is taken once, from phi.  side names the launch whose scale a
    record's slope is in; k is the ordinal ascending from x = 0.
    """
    below = find_zeros(phi, range(0, split))
    above = find_zeros(psi, range(split, len(psi.mesh) - 1))
    if below and above and above[0].x - below[-1].x < _PIN_TOL:
        above = above[1:]
    return [replace(r, k=i) for i, r in enumerate(below + above)]


def pair_velocity_records(q: Potential, pair, cells: int = DEFAULT_CELLS,
                          side: str = "left") -> list[ZeroRecord]:
    """velocity_records at an eigenpair, from one launch over all of
    [0, pi].  Past a barrier that launch can carry a spurious zero the
    eigenfunction lacks (see matched_zero_records); raises CountMismatch
    when its interior count is not the eigenpair's n."""
    records = velocity_records(q, pair.mu, pair.boundary, cells, side=side)
    interior = sum(1 for r in records if 0.0 < r.x < PI)
    if interior != pair.n:
        raise CountMismatch(
            f"{side} launch at mu={pair.mu} has {interior} interior zeros, "
            f"the eigenfunction n={pair.n}", expected=pair.n, found=interior)
    return records


def proportionality_constant_at(phi: SolutionTrajectory, psi: SolutionTrajectory) -> float:
    """Ratio between the left-launched (phi) and right-launched (psi)
    eigenfunctions, evaluated where |phi * psi| is largest.

    Where both launches are accurate, phi * psi is c_n times the square of
    the eigenfunction, so its peak is the eigenfunction's.  Past a barrier
    one launch carries a roundoff-born growing solution, but the product
    of that with the other launch's decaying one stays at roundoff size,
    so a peak there cannot outbid the true one.  (Where |psi| alone is
    largest can be past a barrier, in a deep well.)"""
    with np.errstate(divide="ignore"):
        log_product = (np.log(np.abs(phi.states[:, 0])) + phi.log_scale
                       + np.log(np.abs(psi.states[:, 0])) + psi.log_scale)
    i = int(np.argmax(log_product))
    if not math.isfinite(float(log_product[i])):
        raise DegenerateRatio(f"right-launched solution degenerate at mu={psi.mu}")
    with np.errstate(over="ignore"):
        scale = math.exp(float(phi.log_scale[i]) - float(psi.log_scale[i]))
    return float(phi.states[i, 0] / psi.states[i, 0] * scale)


def proportionality_residual(q: Potential, pair, cells: int = DEFAULT_CELLS):
    """(c_n, max|phi - c_n psi| over the mesh, max|phi| over the mesh)."""
    phi = propagate(q, pair.mu, left_conditions(pair.boundary.alpha), cells, variational=False)
    psi = propagate(q, pair.mu, right_conditions(pair.boundary.beta), cells, variational=False)
    phi_vals = phi.true_states()[:, 0]
    psi_vals = psi.true_states()[:, 0]
    c = pair.c_n
    resid = float(np.abs(phi_vals - c * psi_vals).max())
    return c, resid, float(np.abs(phi_vals).max())


def identity_residual(traj: SolutionTrajectory, a: float) -> float:
    """|LHS - RHS| of the integrated Wronskian-type identity at a.

    For a left launch, y'(a)*dy(a) - dy'(a)*y(a) must equal the integral of
    y^2 over [0, a]; for a right launch the mirrored form holds with the
    integral over [a, pi].  Used as a propagation health metric; the
    residual is identically zero at the launch endpoint.
    """
    if traj.ncomp != 4:
        raise ValueError("identity check needs a trajectory with variational data")
    v = traj.value(a)
    wronskian = v[1] * v[2] - v[3] * v[0]
    rhs = square_integral_from_launch(traj, a)
    lhs = wronskian if traj.direction == "left" else -wronskian
    return float(abs(lhs - rhs))

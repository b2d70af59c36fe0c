"""Eigenvalue location, the characteristic function, and the eigenvalues-
function chart.

Eigenvalues are indexed by the terminal phase of the left-launched solution:
the n-th eigenvalue is the unique mu where that phase equals
(n+1)*pi - beta, a strictly increasing function of mu.  A bracket on which
the phase straddles that target is found first, so the search can never
miss or double-count an eigenvalue.  Inside it a safeguarded Newton
iteration runs on the scaled Pruefer angle of (k*y, y'), k the local
frequency at pi, using the exact mu-derivative that the Wronskian identity
gives, d(theta)/dmu = int y**2 / (y(pi)**2 + y'(pi)**2) (Pryce 1993;
Bailey, Gordon and Shampine 1978); every evaluated phase narrows the
bracket, and a step that leaves it or fails to halve is replaced by
bisection.  A Newton polish on the characteristic function (whose
mu-derivative comes from the variational components) finishes the root off
without leaving the bracket reached.

The eigenvalues function mu(gamma, delta) unrolls the two-parameter family
of boundary problems into a single chart via gamma = alpha + pi*n,
delta = beta - pi*m; it is strictly increasing in gamma and strictly
decreasing in delta, which evf_grid checks and reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oscillation
from .errors import BracketFailure, CountMismatch, DomainMismatch, MonotonicityViolation
from .potential import PI, Potential
from .shooting import (
    DEFAULT_CELLS,
    _mesh_data,
    left_conditions,
    min_cell_average,
    propagate,
    right_conditions,
    terminal_phase,
)

_BRACKET_REL = 1e-12
_NEWTON_REL = 1e-13
_NEWTON_CAP = 5
_MAX_EXPANSIONS = 8
_GAMMA_FLOOR = 1e-8


@dataclass(frozen=True)
class BoundaryParams:
    """Boundary angles (alpha, beta) with alpha in (0, pi], beta in [0, pi)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= PI):
            raise DomainMismatch(f"alpha={self.alpha} outside (0, pi]")
        if not (0.0 <= self.beta < PI):
            raise DomainMismatch(f"beta={self.beta} outside [0, pi)")


@dataclass(frozen=True)
class EvfCoordinates:
    """Chart coordinates gamma in (0, inf), delta in (-inf, pi).

    gamma = alpha + pi*n and delta = beta - pi*m decompose uniquely with
    alpha in (0, pi], beta in [0, pi), n, m nonnegative integers.
    """

    gamma: float
    delta: float

    def __post_init__(self):
        if self.gamma < _GAMMA_FLOOR:
            raise DomainMismatch(f"gamma={self.gamma} below the chart domain (0, inf)")
        if self.delta >= PI:
            raise DomainMismatch(f"delta={self.delta} outside (-inf, pi)")

    def decompose(self) -> tuple[float, int, float, int]:
        """Return (alpha, n, beta, m); exact multiples of pi snap to the seam."""
        tg = self.gamma / PI
        rg = round(tg)
        if rg >= 1 and abs(tg - rg) < 1e-12:
            n = rg - 1
        else:
            n = math.ceil(tg) - 1
        alpha = self.gamma - PI * n
        td = -self.delta / PI
        rd = round(td)
        if abs(td - rd) < 1e-12:
            m = rd
        else:
            m = math.ceil(td)
        beta = self.delta + PI * m
        # snap roundoff back into the legal half-open ranges
        alpha = min(max(alpha, 1e-300), PI)
        beta = min(max(beta, 0.0), PI * (1.0 - 1e-16))
        return alpha, int(n), beta, int(m)


@dataclass(frozen=True)
class Eigenpair:
    """One located eigenvalue with its zero set and proportionality constant.

    zeros holds the abscissae of every zero of the eigenfunction in [0, pi],
    endpoint zeros included exactly when alpha = pi (at 0) or beta = 0
    (at pi); c_n is the nonzero ratio between the left- and right-launched
    eigenfunctions.
    """

    n: int
    mu: float
    boundary: BoundaryParams
    c_n: float
    zeros: tuple[float, ...]


def characteristic(q: Potential, mu: float, bc: BoundaryParams,
                   cells: int = DEFAULT_CELLS) -> float:
    """Value whose zeros in mu are the eigenvalues:
    y(0)*cos(alpha) + y'(0)*sin(alpha) for the right-launched solution."""
    value, log_scale = characteristic_with_scale(q, mu, bc, cells)
    with np.errstate(over="ignore"):
        return float(value * math.exp(log_scale)) if log_scale != 0.0 else value


def characteristic_with_scale(q: Potential, mu: float, bc: BoundaryParams,
                              cells: int = DEFAULT_CELLS) -> tuple[float, float]:
    """(rescaled value, log scale): true value = value * exp(log_scale).

    The sign and the zero set are unaffected by the scale, so root finding
    can work on the rescaled value directly.
    """
    traj = propagate(q, mu, right_conditions(bc.beta), cells, variational=False)
    y0, yp0 = traj.states[0]
    value = y0 * math.cos(bc.alpha) + yp0 * math.sin(bc.alpha)
    return float(value), float(traj.log_scale[0])


def _characteristic_and_derivative(q, mu, bc, cells):
    traj = propagate(q, mu, right_conditions(bc.beta), cells, variational=True)
    y0, yp0, dy0, dyp0 = traj.states[0]
    ca, sa = math.cos(bc.alpha), math.sin(bc.alpha)
    return y0 * ca + yp0 * sa, dy0 * ca + dyp0 * sa


@lru_cache(maxsize=100_000)
def _locate_mu(q: Potential, n: int, alpha: float, beta: float, cells: int) -> float:
    """Phase bracketing + safeguarded Newton on the scaled phase + Newton
    polish on the characteristic function for the n-th eigenvalue."""
    bc = BoundaryParams(alpha, beta)
    ic = left_conditions(alpha)
    target = (n + 1) * PI - beta

    lo = min_cell_average(q, cells) - 1.0
    hi = (n + 2) ** 2 + q.l1_norm + 1.0
    th_lo = terminal_phase(q, lo, ic, cells).theta_terminal
    th_hi = terminal_phase(q, hi, ic, cells).theta_terminal
    for _ in range(_MAX_EXPANSIONS):
        if th_lo < target < th_hi:
            break
        width = hi - lo
        if th_lo >= target:
            lo -= width
            th_lo = terminal_phase(q, lo, ic, cells).theta_terminal
        if th_hi <= target:
            hi += width
            th_hi = terminal_phase(q, hi, ic, cells).theta_terminal
    else:
        if not (th_lo < target < th_hi):
            raise BracketFailure(
                f"phase target for n={n} not straddled on probe range [{lo}, {hi}]",
                lo=lo, hi=hi)

    # Newton runs on the Pruefer angle of (k*y, y') with k the local
    # frequency in the last cell: the unscaled angle is a staircase in mu
    # whose slope changes by a factor of about mu between y(pi) = 0 and
    # y'(pi) = 0, while the scaled one is close to linear in sqrt(mu).
    # The lifted half-turn count is the unscaled one, and the brackets are
    # kept on the unscaled phase against the unscaled target.
    q_end = float(_mesh_data(q, cells)[2][-1])
    sb, cb = math.sin(beta), math.cos(beta)
    mu = 0.5 * (lo + hi)
    last_step = hi - lo
    while hi - lo > _BRACKET_REL * max(1.0, abs(mu)):
        rec = terminal_phase(q, mu, ic, cells)
        if rec.theta_terminal < target:
            lo = mu
        else:
            hi = mu
        k = math.sqrt(max(mu - q_end, 1.0))
        y, yp = rec.y, rec.yp
        scaled = rec.theta_terminal + math.atan2(k * y, yp) - math.atan2(y, yp)
        slope = k * rec.square / (k * k * y * y + yp * yp)
        step = math.nan
        if math.isfinite(slope) and slope > 0.0:
            step = (n * PI + math.atan2(k * sb, -cb) - scaled) / slope
            # near the root the lifted phase and the terminal atan2 differ
            # by roundoff, so the last step may point just outside the
            # bracket: convergence is tested before the safeguard
            if abs(step) <= _BRACKET_REL * max(1.0, abs(mu)):
                mu = min(max(mu + step, lo), hi)
                break
        if not (lo < mu + step < hi) or abs(step) > 0.5 * abs(last_step):
            step = 0.5 * (lo + hi) - mu
        last_step = step
        mu += step
    else:
        mu = 0.5 * (lo + hi)

    for _ in range(_NEWTON_CAP):
        psi, dpsi = _characteristic_and_derivative(q, mu, bc, cells)
        if dpsi == 0.0:
            break
        step = -psi / dpsi
        mu_new = min(max(mu + step, lo), hi)
        done = abs(mu_new - mu) <= _NEWTON_REL * max(1.0, abs(mu_new))
        mu = mu_new
        if done:
            break
    return float(mu)


@lru_cache(maxsize=100_000)
def _assemble_pair(q: Potential, n: int, alpha: float, beta: float, cells: int) -> Eigenpair:
    bc = BoundaryParams(alpha, beta)
    mu = _locate_mu(q, n, alpha, beta, cells)
    records = oscillation.canonical_zero_records(q, mu, bc, cells, side="left")
    interior = sum(1 for r in records if 0.0 < r.x < PI)
    if interior != n:
        raise CountMismatch(
            f"eigenfunction n={n} at mu={mu} has {interior} interior zeros",
            expected=n, found=interior)
    c_n = oscillation.proportionality_constant_at(q, mu, bc, cells)
    return Eigenpair(n=n, mu=mu, boundary=bc, c_n=c_n,
                     zeros=tuple(r.x for r in records))


def find_eigenvalue(q: Potential, n: int, bc: BoundaryParams,
                    cells: int = DEFAULT_CELLS) -> Eigenpair:
    """Locate the n-th eigenvalue (increasing enumeration, n >= 0)."""
    if n < 0:
        raise DomainMismatch(f"eigenvalue index n={n} must be >= 0")
    return _assemble_pair(q, int(n), float(bc.alpha), float(bc.beta), int(cells))


def eigenvalue_bracket(q: Potential, n: int, bc: BoundaryParams,
                       cells: int = DEFAULT_CELLS) -> tuple[float, float]:
    """Bracket of half-width 1e-12*max(1, |mu|) around the located n-th
    eigenvalue, with both ends checked to straddle the phase target."""
    mu = _locate_mu(q, n, bc.alpha, bc.beta, cells)
    half = _BRACKET_REL * max(1.0, abs(mu))
    lo, hi = mu - half, mu + half
    ic = left_conditions(bc.alpha)
    target = (n + 1) * PI - bc.beta
    if not (terminal_phase(q, lo, ic, cells).theta_terminal < target
            < terminal_phase(q, hi, ic, cells).theta_terminal):
        raise BracketFailure(f"phase target for n={n} not straddled by [{lo}, {hi}]",
                             lo=lo, hi=hi)
    return lo, hi


def evf(q: Potential, coords: EvfCoordinates, cells: int = DEFAULT_CELLS) -> float:
    """The eigenvalues function mu(gamma, delta) on its chart."""
    alpha, n, beta, m = coords.decompose()
    return find_eigenvalue(q, n + m, BoundaryParams(alpha, beta), cells).mu


def evf_grid(q: Potential, gamma_grid, delta_grid, cells: int = DEFAULT_CELLS) -> np.ndarray:
    """Matrix M[i][j] = mu(gamma_i, delta_j), checked for strict monotonicity
    (increasing along gamma, decreasing along delta)."""
    gamma_grid = [float(g) for g in gamma_grid]
    delta_grid = [float(d) for d in delta_grid]
    if any(b <= a for a, b in zip(gamma_grid, gamma_grid[1:])):
        raise DomainMismatch("gamma grid must be strictly increasing")
    if any(b <= a for a, b in zip(delta_grid, delta_grid[1:])):
        raise DomainMismatch("delta grid must be strictly increasing")
    out = np.empty((len(gamma_grid), len(delta_grid)))
    for i, g in enumerate(gamma_grid):
        for j, d in enumerate(delta_grid):
            out[i, j] = evf(q, EvfCoordinates(g, d), cells)
    for j in range(out.shape[1]):
        col = out[:, j]
        bad = np.nonzero(np.diff(col) <= 0.0)[0]
        if bad.size:
            i = int(bad[0])
            raise MonotonicityViolation(
                f"evf not increasing in gamma at grid ({i}->{i + 1}, {j})",
                indices=(i, j))
    for i in range(out.shape[0]):
        row = out[i, :]
        bad = np.nonzero(np.diff(row) >= 0.0)[0]
        if bad.size:
            j = int(bad[0])
            raise MonotonicityViolation(
                f"evf not decreasing in delta at grid ({i}, {j}->{j + 1})",
                indices=(i, j))
    return out

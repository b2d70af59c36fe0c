"""Exact piecewise-constant-coefficient propagation for -y'' + q y = mu y.

The interval [0, pi] is cut into cells; inside each cell q is replaced by its
exact cell average qbar, and the resulting constant-coefficient equation is
advanced by its closed-form fundamental matrix (trigonometric when
mu > qbar, hyperbolic when mu < qbar, polynomial at equality).  The
mu-derivative pair (dy/dmu, dy'/dmu) rides along as the exactly-integrated
forced system, and the squared-solution integral over any cell is likewise
available in closed form.  The resulting discrete solution is the *exact*
solution of a nearby L1 potential, which is why the Wronskian-type integral
identities and the zero-velocity formulas hold to roundoff on it.

Propagation may start from either endpoint: launch data are
y(0) = sin(alpha), y'(0) = -cos(alpha) on the left and
y(pi) = sin(beta), y'(pi) = -cos(beta) on the right, with zero initial data
for the mu-derivative components in both cases.

Cell-to-cell products are accumulated with a blocked prefix-product kernel
(vectorised across blocks) plus running log-scale factors, so deep
hyperbolic probes during eigenvalue bracketing cannot overflow.  A slower
sequential fallback with identical semantics covers the rare regime where
the fast kernel would lose the decaying solution to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainMismatch, MeshTooCoarse, NonFinite
from .potential import PI, Potential, cell_averages

DEFAULT_CELLS = 4096

# geometric refinement toward an integrable singularity at x = 0
_SINGULAR_EXTRA_CELLS = 32
_SINGULAR_RATIO = 2.0

# series window for the removable singularities of the cell coefficients
_ZCUT = 0.02

_LEFT = "left"
_RIGHT = "right"


@dataclass(frozen=True)
class EndpointConditions:
    """Launch data at one endpoint, encoded by a boundary angle.

    side="left":  y(0) = sin(angle),  y'(0) = -cos(angle),  angle in (0, pi]
    side="right": y(pi) = sin(angle), y'(pi) = -cos(angle), angle in [0, pi)
    """

    side: str
    angle: float

    def __post_init__(self):
        if self.side not in (_LEFT, _RIGHT):
            raise DomainMismatch(f"side must be 'left' or 'right', got {self.side!r}")
        a = self.angle
        if self.side == _LEFT and not (0.0 < a <= PI):
            raise DomainMismatch(f"left angle {a} outside (0, pi]")
        if self.side == _RIGHT and not (0.0 <= a < PI):
            raise DomainMismatch(f"right angle {a} outside [0, pi)")

    def initial_state(self) -> tuple[float, float]:
        # sin(pi) in floating point is ~1e-16, not 0; pin the Dirichlet case
        # so the launch endpoint is a zero by construction.
        if self.side == _LEFT and self.angle == PI:
            return 0.0, 1.0
        return math.sin(self.angle), -math.cos(self.angle)


def left_conditions(alpha: float) -> EndpointConditions:
    return EndpointConditions(_LEFT, float(alpha))


def right_conditions(beta: float) -> EndpointConditions:
    return EndpointConditions(_RIGHT, float(beta))


@dataclass
class SolutionTrajectory:
    """Solution sampled at mesh breakpoints, plus per-cell closed forms.

    states[i] holds (y, y', dy/dmu, dy'/dmu) at mesh[i] in a normalised
    scale; the true values are states[i] * exp(log_scale[i]).  For ordinary
    spectral parameters log_scale is identically zero.  cum_square[i] is the
    true-scale integral of y**2 from the launch endpoint to mesh[i].
    """

    mu: float
    direction: str
    ic: EndpointConditions
    mesh: np.ndarray
    states: np.ndarray
    log_scale: np.ndarray
    cum_square: np.ndarray | None
    w: np.ndarray  # per-cell mu - qbar, indexed by ascending cells

    @property
    def ncomp(self) -> int:
        return self.states.shape[1]

    @property
    def launch_index(self) -> int:
        return 0 if self.direction == _LEFT else len(self.mesh) - 1

    def cell_of(self, x: float) -> int:
        i = int(np.searchsorted(self.mesh, x, side="right") - 1)
        return min(max(i, 0), len(self.mesh) - 2)

    def value(self, x: float) -> np.ndarray:
        """True-scale state vector at any x in [0, pi] via the in-cell closed form."""
        stored, sig = _eval_in_cell(self, self.cell_of(x), x)
        with np.errstate(over="ignore"):
            return stored * math.exp(sig) if sig != 0.0 else stored

    def y(self, x: float) -> float:
        return float(self.value(x)[0])

    def true_states(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.states * np.exp(self.log_scale)[:, None]


@dataclass(frozen=True)
class PhaseRecord:
    """Continuous polar angle of (y', y) carried to the far endpoint.

    y and yp are the far-end state in its stored scale, and square is the
    integral of y**2 over the whole launch-to-far-end span in the square of
    that scale, so it stays finite however far the log scales run.  Their
    ratio gives the exact mu-derivative of the phase: by the Wronskian
    identity d(theta_terminal)/dmu = +-square / (y**2 + yp**2), positive for
    left launches and negative for right launches.
    """

    mu: float
    theta_terminal: float
    direction: str
    y: float
    yp: float
    square: float


# -- mesh ---------------------------------------------------------------------

@lru_cache(maxsize=128)
def _mesh_data(q: Potential, cells: int):
    if cells < 16:
        raise MeshTooCoarse(f"cells={cells} < 16")
    mesh = np.linspace(0.0, PI, cells + 1)
    if q.singular_at_origin:
        h0 = mesh[1]
        refined = h0 * (1.0 / _SINGULAR_RATIO) ** np.arange(_SINGULAR_EXTRA_CELLS, 0, -1)
        mesh = np.concatenate(([0.0], refined, mesh[1:]))
    qbar = cell_averages(q, mesh)
    widths = np.diff(mesh)
    for arr in (mesh, qbar, widths):
        arr.setflags(write=False)
    return mesh, widths, qbar, float(qbar.min())


def build_mesh(q: Potential, cells: int = DEFAULT_CELLS) -> np.ndarray:
    return _mesh_data(q, cells)[0]


def min_cell_average(q: Potential, cells: int = DEFAULT_CELLS) -> float:
    return _mesh_data(q, cells)[3]


# -- cell coefficients ---------------------------------------------------------

def _sf_series(z):
    return 1.0 + z * (-1.0 / 6.0 + z * (1.0 / 120.0 + z * (-1.0 / 5040.0 + z / 362880.0)))


def _g_series(z):
    return (1.0 / 3.0) + z * (-1.0 / 30.0 + z * (1.0 / 840.0 + z * (-1.0 / 45360.0 + z / 3991680.0)))


def _k_series(z):
    return (2.0 / 3.0) + z * (-2.0 / 15.0 + z * (4.0 / 315.0 + z * (-2.0 / 2835.0 + z * 4.0 / 155925.0)))


def _cell_functions(w: np.ndarray, s: np.ndarray, variational: bool, integrals: bool):
    """Closed-form cell quantities for step s (signed) and coefficient w.

    With z = w s**2 the building blocks are c(z) = cos/cosh and the entire
    function sf(z) = sin(sqrt z)/sqrt z continued through z <= 0; the
    remaining quantities have removable singularities at z = 0 handled by
    short series.
    """
    z = w * s * s
    pos = z >= 0.0
    u = np.sqrt(np.abs(z))
    overflow = (~pos) & (u > 700.0)
    if np.any(overflow):
        raise NonFinite("hyperbolic cell update overflows", cell_index=int(np.argmax(overflow)))
    c = np.empty_like(z)
    c[pos] = np.cos(u[pos])
    c[~pos] = np.cosh(u[~pos])
    small = np.abs(z) < _ZCUT
    circ = np.empty_like(z)
    circ[pos] = np.sin(u[pos])
    circ[~pos] = np.sinh(u[~pos])
    with np.errstate(invalid="ignore", divide="ignore"):
        sf_closed = circ / np.where(u == 0.0, 1.0, u)
    sf = np.where(small, _sf_series(z), sf_closed)
    S = s * sf
    out = {"c": c, "S": S, "sf": sf}
    if variational:
        with np.errstate(invalid="ignore", divide="ignore"):
            g_closed = (sf - c) / np.where(z == 0.0, 1.0, z)
        g = np.where(small, _g_series(z), g_closed)
        out["IC"] = 0.5 * s * S
        out["IS"] = 0.5 * s ** 3 * g
        out["JC"] = 0.5 * s * (c + sf)
    if integrals:
        with np.errstate(invalid="ignore", divide="ignore"):
            k_closed = (1.0 - sf * c) / np.where(z == 0.0, 1.0, z)
        kk = np.where(small, _k_series(z), k_closed)
        out["intC2"] = 0.5 * s * (1.0 + sf * c)
        out["intCS"] = 0.5 * S * S
        out["intS2"] = 0.5 * s ** 3 * kk
    return out


def _cell_matrices(w: np.ndarray, s: np.ndarray, variational: bool) -> np.ndarray:
    f = _cell_functions(w, s, variational, integrals=False)
    c, S = f["c"], f["S"]
    n = len(w)
    k = 4 if variational else 2
    M = np.zeros((n, k, k))
    M[:, 0, 0] = c
    M[:, 0, 1] = S
    M[:, 1, 0] = -w * S
    M[:, 1, 1] = c
    if variational:
        M[:, 2:, 2:] = M[:, :2, :2]
        M[:, 2, 0] = -f["IC"]
        M[:, 2, 1] = -f["IS"]
        M[:, 3, 0] = -f["JC"]
        M[:, 3, 1] = -f["IC"]
    return M


# -- prefix products -----------------------------------------------------------

def _prefix_products(mats: np.ndarray, max_cell_log: float):
    """Running products M_i ... M_0 with per-block log rescaling.

    Returns (P, sig) with true prefix = P[i] * exp(sig[i]).
    """
    n, k, _ = mats.shape
    block = min(64, n)
    if max_cell_log > 1e-9:
        block = max(1, min(block, int(300.0 / max_cell_log)))
    nblocks = -(-n // block)
    npad = nblocks * block
    if npad > n:
        pad = np.broadcast_to(np.eye(k), (npad - n, k, k))
        mats = np.concatenate([mats, pad])
    mb = mats.reshape(nblocks, block, k, k)
    WW = np.empty_like(mb)
    WW[:, 0] = mb[:, 0]
    for j in range(1, block):
        np.matmul(mb[:, j], WW[:, j - 1], out=WW[:, j])
    G = np.empty((nblocks, k, k))
    gs = np.empty(nblocks)
    acc = np.eye(k)
    logsum = 0.0
    for b in range(nblocks):
        acc = WW[b, -1] @ acc
        m = float(np.abs(acc).max())
        if not math.isfinite(m) or m == 0.0:
            raise NonFinite("prefix product degenerated", cell_index=b * block)
        # rescale only when magnitudes threaten the floating-point range, so
        # log scales stay identically zero in ordinary runs
        if m > 1e100 or m < 1e-100:
            acc = acc / m
            logsum += math.log(m)
        G[b] = acc
        gs[b] = logsum
    P = np.empty_like(WW)
    sig = np.empty((nblocks, block))
    P[0] = WW[0]
    sig[0] = 0.0
    if nblocks > 1:
        np.matmul(WW[1:], G[:-1, None], out=P[1:])
        sig[1:] = gs[:-1, None]
    return P.reshape(npad, k, k)[:n], sig.reshape(npad)[:n]


def _normalize_points(states, sig_pts):
    m = np.abs(states).max(axis=1)
    need = (m > 1e100) | ((m < 1e-100) & (m > 0.0))
    if np.any(need):
        scale = np.where(need, m, 1.0)
        states /= scale[:, None]
        sig_pts = sig_pts + np.log(scale)
    return states, sig_pts


def _states_from_prefix(P, sig, v0):
    n = len(P)
    k = len(v0)
    states = np.empty((n + 1, k))
    states[0] = v0
    states[1:] = P @ v0
    sig_pts = np.concatenate(([0.0], sig))
    # cancellation detector: a stored state far smaller than the prefix norm
    # means the launch data sit near the decaying hyperbolic direction and
    # the product lost it to roundoff
    pnorm = np.abs(P).max(axis=(1, 2)) * max(float(np.abs(v0).max()), 1e-300)
    ratio = np.abs(states[1:]).max(axis=1) / pnorm
    healthy = bool(ratio.min() > 1e-12)
    states, sig_pts = _normalize_points(states, sig_pts)
    return states, sig_pts, healthy


def _states_sequential(mats, v0):
    """Reference propagation: one cell at a time, rescaling above 1e150."""
    n, k, _ = mats.shape
    states = np.empty((n + 1, k))
    sig_pts = np.empty(n + 1)
    v = np.array(v0, dtype=float)
    states[0] = v
    sig_pts[0] = 0.0
    logs = 0.0
    for i in range(n):
        v = mats[i] @ v
        m = float(np.abs(v).max())
        if not math.isfinite(m) or m == 0.0:
            raise NonFinite("state became non-finite", cell_index=i)
        if m > 1e150:
            v /= m
            logs += math.log(m)
        states[i + 1] = v
        sig_pts[i + 1] = logs
    return _normalize_points(states, sig_pts)


def _propagate_states(w_visit, s_visit, v0, variational):
    max_cell_log = float(np.max(np.abs(s_visit) * np.sqrt(np.maximum(-w_visit, 0.0))))
    mats = _cell_matrices(w_visit, s_visit, variational)
    P, sig = _prefix_products(mats, max_cell_log)
    states, sig_pts, healthy = _states_from_prefix(P, sig, v0)
    if not healthy:
        # launch data nearly parallel to the decaying hyperbolic direction:
        # prefix products cancel catastrophically, so step cell by cell.
        states, sig_pts = _states_sequential(mats, v0)
    if not np.all(np.isfinite(states)):
        bad = int(np.argmax(~np.isfinite(states).all(axis=1)))
        raise NonFinite("propagated state is not finite", cell_index=max(bad - 1, 0))
    return states, sig_pts


# -- continuous phase ----------------------------------------------------------

def _cmod(x):
    """Residual of an angle centred on the nearest multiple of pi, in [-pi/2, pi/2)."""
    return np.mod(x + 0.5 * np.pi, np.pi) - 0.5 * np.pi


def _phase_profile(states, w_visit, s_visit, launch_angle_raw):
    """Continuous lifting of atan2(y, y') along the visit order.

    Trigonometric cells rotate the sqrt(w)-scaled angle by exactly
    sqrt(w)*s, and the scaled and unscaled angles always share a half-turn,
    which pins the integer part; hyperbolic and degenerate cells cannot
    rotate the state by a half-turn, so the principal difference is exact.
    """
    y = states[:, 0]
    yp = states[:, 1]
    ang = np.arctan2(y, yp)
    u = _cmod(ang)
    delta = ang[1:] - ang[:-1]
    delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    trig = w_visit > 0.0
    if np.any(trig):
        sqw = np.sqrt(w_visit[trig])
        # reduce the scaled angles by the half-turn of the unscaled ones they
        # share: reduced apart, a state with y' ~ 0 can wrap one and not the
        # other, and the terminal phase then jumps by pi
        turn = ang - u
        vs = np.arctan2(y[:-1][trig] * sqw, yp[:-1][trig]) - turn[:-1][trig]
        ve = np.arctan2(y[1:][trig] * sqw, yp[1:][trig]) - turn[1:][trig]
        rot = sqw * s_visit[trig]
        delta[trig] = np.pi * np.round((vs + rot - ve) / np.pi) + (u[1:][trig] - u[:-1][trig])
    theta = np.empty(len(states))
    theta[0] = launch_angle_raw
    theta[1:] = launch_angle_raw + np.cumsum(delta)
    return theta


# -- the propagation entry points ------------------------------------------------

def _visit_arrays(q: Potential, mu: float, ic: EndpointConditions, cells: int):
    mesh, widths, qbar, _ = _mesh_data(q, cells)
    w = mu - qbar
    if ic.side == _LEFT:
        return mesh, w, w, widths.copy()
    return mesh, w, w[::-1], -widths[::-1]


def _square_increments(states, w_visit, s_visit, direction):
    """Per-cell integral of y**2 in each cell's launch-edge stored scale."""
    f = _cell_functions(w_visit, s_visit, variational=False, integrals=True)
    y0 = states[:-1, 0]
    yp0 = states[:-1, 1]
    inc = y0 * y0 * f["intC2"] + 2.0 * y0 * yp0 * f["intCS"] + yp0 * yp0 * f["intS2"]
    return -inc if direction == _RIGHT else inc


def _cum_square_true(states, sig_pts, w_visit, s_visit, direction):
    inc = _square_increments(states, w_visit, s_visit, direction)
    sig_start = sig_pts[:-1]
    smax = float(sig_start.max())
    with np.errstate(over="ignore", under="ignore"):
        if smax == 0.0 and sig_start.min() == 0.0:
            scaled = inc
            factor = 1.0
        else:
            scaled = inc * np.exp(2.0 * (sig_start - smax))
            factor = np.exp(2.0 * smax)
        cum = np.empty(len(states))
        cum[0] = 0.0
        cum[1:] = np.cumsum(scaled) * factor
    return cum


def propagate(q: Potential, mu: float, ic: EndpointConditions,
              cells: int = DEFAULT_CELLS, variational: bool = True) -> SolutionTrajectory:
    """Advance (y, y', dy/dmu, dy'/dmu) across [0, pi] from the given endpoint.

    Set variational=False to propagate only (y, y'); the trajectory then has
    two components and no mu-derivative data, which is enough for zero
    finding and proportionality checks and costs roughly half as much.
    """
    mu = float(mu)
    mesh, w, w_visit, s_visit = _visit_arrays(q, mu, ic, cells)
    y0, yp0 = ic.initial_state()
    v0 = (y0, yp0, 0.0, 0.0) if variational else (y0, yp0)
    states, sig_pts = _propagate_states(w_visit, s_visit, np.array(v0), variational)
    cum = _cum_square_true(states, sig_pts, w_visit, s_visit, ic.side) if variational else None
    if ic.side == _RIGHT:
        states = states[::-1].copy()
        sig_pts = sig_pts[::-1].copy()
        cum = cum[::-1].copy() if cum is not None else None
    return SolutionTrajectory(
        mu=mu, direction=ic.side, ic=ic, mesh=mesh, states=states,
        log_scale=sig_pts, cum_square=cum, w=w,
    )


def terminal_phase(q: Potential, mu: float, ic: EndpointConditions,
                   cells: int = DEFAULT_CELLS) -> PhaseRecord:
    """Terminal continuous phase, with the far-end state and the integral of
    y**2 that give its mu-derivative; the phase increases in mu for left
    launches and decreases for right launches."""
    mu = float(mu)
    _, _, w_visit, s_visit = _visit_arrays(q, mu, ic, cells)
    y0, yp0 = ic.initial_state()
    states, sig_pts = _propagate_states(w_visit, s_visit, np.array([y0, yp0]), False)
    theta = _phase_profile(states, w_visit, s_visit, math.atan2(y0, yp0))
    inc = _square_increments(states, w_visit, s_visit, ic.side)
    with np.errstate(over="ignore", under="ignore"):
        square = float(np.sum(inc * np.exp(2.0 * (sig_pts[:-1] - sig_pts[-1]))))
    return PhaseRecord(mu=mu, theta_terminal=float(theta[-1]), direction=ic.side,
                       y=float(states[-1, 0]), yp=float(states[-1, 1]), square=square)


# the name under which the package exports terminal_phase
phase_at_far_end = terminal_phase


def phase_profile(q: Potential, mu: float, ic: EndpointConditions,
                  cells: int = DEFAULT_CELLS) -> tuple[np.ndarray, np.ndarray]:
    """(mesh positions in visit order, continuous phase there)."""
    mesh, _, w_visit, s_visit = _visit_arrays(q, mu, ic, cells)
    y0, yp0 = ic.initial_state()
    states, _ = _propagate_states(w_visit, s_visit, np.array([y0, yp0]), False)
    theta = _phase_profile(states, w_visit, s_visit, math.atan2(y0, yp0))
    xs = mesh if ic.side == _LEFT else mesh[::-1]
    return xs, theta


# -- dense in-cell evaluation ----------------------------------------------------

def _cell_frame(traj: SolutionTrajectory, i: int):
    """Launch-side edge index and edge abscissa of cell i."""
    edge = i if traj.direction == _LEFT else i + 1
    return edge, float(traj.mesh[edge])


def _eval_in_cell(traj: SolutionTrajectory, i: int, x: float):
    edge, x_edge = _cell_frame(traj, i)
    s = np.array([x - x_edge])
    wv = np.array([traj.w[i]])
    variational = traj.ncomp == 4
    M = _cell_matrices(wv, s, variational)[0]
    return M @ traj.states[edge], float(traj.log_scale[edge])


def square_integral_from_launch(traj: SolutionTrajectory, x: float) -> float:
    """True-scale integral of y**2 from the launch endpoint to x.

    For left launches this is the integral over [0, x]; for right launches
    over [x, pi].
    """
    if traj.cum_square is None:
        raise ValueError("trajectory was propagated without integral data")
    i = traj.cell_of(x)
    edge, x_edge = _cell_frame(traj, i)
    s = np.array([x - x_edge])
    wv = np.array([traj.w[i]])
    f = _cell_functions(wv, s, variational=False, integrals=True)
    y0, yp0 = traj.states[edge, 0], traj.states[edge, 1]
    part = float(y0 * y0 * f["intC2"][0] + 2.0 * y0 * yp0 * f["intCS"][0]
                 + yp0 * yp0 * f["intS2"][0])
    if traj.direction == _RIGHT:
        part = -part
    sig = float(traj.log_scale[edge])
    with np.errstate(over="ignore"):
        scale = math.exp(2.0 * sig) if sig != 0.0 else 1.0
    return float(traj.cum_square[edge] + part * scale)

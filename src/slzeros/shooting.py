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

Cell-to-cell products are accumulated by a struct-of-arrays blocked scan.
The cells are cut into blocks of about sqrt(n)/2; every entry of the
running 2x2 product, or of the M and D blocks of the variational product
[[M, 0], [D, M]], is a separate array with one lane per block, so each
in-block step is a few elementwise operations across all blocks at once.
The prefix entering each block is carried from block to block in Python
floats with running log-scale factors, so deep hyperbolic probes during
eigenvalue bracketing cannot overflow.
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

    def cell_of(self, x: float) -> int:
        i = int(np.searchsorted(self.mesh, x, side="right") - 1)
        return min(max(i, 0), len(self.mesh) - 2)

    def value(self, x: float) -> np.ndarray:
        """True-scale state vector at any x in [0, pi] via the in-cell closed form."""
        stored, sig = _eval_in_cell(self, self.cell_of(x), x)
        with np.errstate(over="ignore"):
            return stored * math.exp(sig) if sig != 0.0 else stored

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
    c = np.cos(u)
    neg = ~pos
    c[neg] = np.cosh(u[neg])
    # the closed forms divide by u or z, so they are evaluated only outside
    # the series window
    big = np.flatnonzero(np.abs(z) >= _ZCUT)
    ub, zb, cb = u[big], z[big], c[big]
    with np.errstate(over="ignore"):
        circ = np.where(pos[big], np.sin(ub), np.sinh(ub))
    sf = _sf_series(z)
    sf[big] = circ / ub
    sfb = sf[big]
    S = s * sf
    out = {"c": c, "S": S, "sf": sf}
    if variational:
        g = _g_series(z)
        g[big] = (sfb - cb) / zb
        out["IC"] = 0.5 * s * S
        out["IS"] = 0.5 * s ** 3 * g
        out["JC"] = 0.5 * s * (c + sf)
    if integrals:
        kk = _k_series(z)
        kk[big] = (1.0 - sfb * cb) / zb
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

def _block_size(n: int, max_cell_log: float) -> int:
    """Cells per block: about sqrt(n)/2 balances the vectorised in-block
    steps against the per-block carry, and 300 / max_cell_log caps the
    growth of any in-block product far below overflow."""
    block = min(n, max(8, math.isqrt(n) // 2))
    if max_cell_log > 1e-9:
        block = max(1, min(block, int(300.0 / max_cell_log)))
    return block


def _cell_entries(f, w, parts: int, block: int, nblocks: int) -> np.ndarray:
    """Cell matrix entries as lanes over the blocks: E[j, e, b] is entry e
    of cell j of block b.

    The entry order serves the in-block step: e = 0-1 is the column
    (c, -wS) that multiplies the top row of the running product, e = 2-3
    the column (S, c) that multiplies its bottom row; with parts == 2,
    e = 4-7 hold the columns (-IC, -JC) and (-IS, -IC) of the D block of
    [[M, 0], [D, M]].  Padding cells past the last one are the identity.
    """
    n = len(w)
    c, S = f["c"], f["S"]
    lanes = [c, -w * S, S, c]
    if parts == 2:
        lanes += [-f["IC"], -f["JC"], -f["IS"], -f["IC"]]
    flat = np.zeros((len(lanes), nblocks * block))
    for row, lane in zip(flat, lanes):
        row[:n] = lane
    flat[[0, 3], n:] = 1.0
    return flat.reshape(len(lanes), nblocks, block).transpose(2, 0, 1).copy()


def _rescaled(acc, b: int, block: int):
    """acc divided by its largest entry m, and log(m); the carry calls this
    only when m leaves [1e-100, 1e100], so log scales stay identically zero
    in ordinary runs."""
    m = max(map(abs, acc))
    if not math.isfinite(m) or m == 0.0:
        raise NonFinite("prefix product degenerated", cell_index=b * block)
    return tuple(a / m for a in acc), math.log(m)


def _block_carry(last, block: int, parts: int):
    """Full prefix entering each block, carried in Python floats.

    last holds each block's complete in-block product, one row of entries
    (M00, M01, [D00, D01,] M10, M11, [D10, D11]) per block.  Returns the
    prefix before every block in the same layout, one row per block, and
    its log scale.
    """
    before = []
    logs = []
    logsum = 0.0
    if parts == 1:
        a00, a01, a10, a11 = 1.0, 0.0, 0.0, 1.0
        for b, (w00, w01, w10, w11) in enumerate(last):
            before += (a00, a01, a10, a11)
            logs.append(logsum)
            a00, a01, a10, a11 = (w00 * a00 + w01 * a10, w00 * a01 + w01 * a11,
                                  w10 * a00 + w11 * a10, w10 * a01 + w11 * a11)
            if not 1e-100 <= max(abs(a00), abs(a01), abs(a10), abs(a11)) <= 1e100:
                (a00, a01, a10, a11), lg = _rescaled((a00, a01, a10, a11), b, block)
                logsum += lg
    else:
        a00, a01, d00, d01, a10, a11, d10, d11 = 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0
        for b, (w00, w01, v00, v01, w10, w11, v10, v11) in enumerate(last):
            before += (a00, a01, d00, d01, a10, a11, d10, d11)
            logs.append(logsum)
            a00, a01, d00, d01, a10, a11, d10, d11 = (
                w00 * a00 + w01 * a10, w00 * a01 + w01 * a11,
                v00 * a00 + v01 * a10 + w00 * d00 + w01 * d10,
                v00 * a01 + v01 * a11 + w00 * d01 + w01 * d11,
                w10 * a00 + w11 * a10, w10 * a01 + w11 * a11,
                v10 * a00 + v11 * a10 + w10 * d00 + w11 * d10,
                v10 * a01 + v11 * a11 + w10 * d01 + w11 * d11)
            if not 1e-100 <= max(abs(a00), abs(a01), abs(d00), abs(d01),
                                 abs(a10), abs(a11), abs(d10), abs(d11)) <= 1e100:
                (a00, a01, d00, d01, a10, a11, d10, d11), lg = _rescaled(
                    (a00, a01, d00, d01, a10, a11, d10, d11), b, block)
                logsum += lg
    return np.fromiter(before, float, len(before)).reshape(len(logs), -1), np.array(logs)


def _normalize_points(states, sig_pts, m):
    """Rescale the states whose largest entry m leaves [1e-100, 1e100]."""
    need = (m > 1e100) | ((m < 1e-100) & (m > 0.0))
    if np.any(need):
        scale = np.where(need, m, 1.0)
        states /= scale[:, None]
        sig_pts = sig_pts + np.log(scale)
    return states, sig_pts


def _scan(f, w, s, v0):
    """Struct-of-arrays blocked prefix scan of the cell matrices.

    The running products of [[M, 0], [D, M]] keep that form, so a plain
    scan carries the 4 entries of M and a variational one the 8 entries of
    M and D, each as a lane over the blocks: array WW[j, r, p, k, b] is
    entry (r, k) of part p (M or D) of the product of the first j + 1 cells
    of block b.  The full prefix entering each block is carried in Python
    floats with log rescaling (_block_carry), and P = WW G_prev is formed
    entry by entry.  Returns the states, their log scales and their largest
    entries.
    """
    n = len(w)
    k = len(v0)
    parts = k // 2
    max_cell_log = float(np.max(np.abs(s) * np.sqrt(np.maximum(-w, 0.0))))
    block = _block_size(n, max_cell_log)
    nblocks = -(-n // block)
    E = _cell_entries(f, w, parts, block, nblocks)
    top = E[:, 0:2, None, None]
    bot = E[:, 2:4, None, None]
    WW = np.empty((block, 2, parts, 2, nblocks))
    prev = np.zeros((2, parts, 2, nblocks))
    prev[0, 0, 0] = prev[1, 0, 1] = 1.0
    tmp = np.empty_like(prev)
    tmp_d = np.empty((2, 2, nblocks))
    for j in range(block):
        cur = WW[j]
        np.multiply(prev[0], top[j], out=cur)
        np.multiply(prev[1], bot[j], out=tmp)
        cur += tmp
        if parts == 2:
            # the D block of a product also takes D_j times the running M
            d = cur[:, 1]
            np.multiply(prev[0, 0], E[j, 4:6, None], out=tmp_d)
            d += tmp_d
            np.multiply(prev[1, 0], E[j, 6:8, None], out=tmp_d)
            d += tmp_d
        prev = cur
    G, gs = _block_carry(WW[-1].reshape(4 * parts, nblocks).T.tolist(), block, parts)
    G = G.T.reshape(2, parts, 2, nblocks).copy()
    P = WW[:, :, :, 0, None] * G[0, 0]
    P += WW[:, :, :, 1, None] * G[1, 0]
    if parts == 2:
        P[:, :, 1] += WW[:, :, 0, 0, None] * G[0, 1]
        P[:, :, 1] += WW[:, :, 0, 1, None] * G[1, 1]
    vals = P[:, :, :, 0] * v0[0] + P[:, :, :, 1] * v0[1]
    if parts == 2:
        vals[:, :, 1] += P[:, :, 0, 0] * v0[2] + P[:, :, 0, 1] * v0[3]
    vmax = np.abs(vals).reshape(block, k, nblocks).max(axis=1)
    states = np.empty((n + 1, k))
    states[0] = v0
    states[1:] = vals.transpose(3, 0, 2, 1).reshape(nblocks * block, k)[:n]
    sig_pts = np.empty(n + 1)
    sig_pts[0] = 0.0
    sig_pts[1:] = np.repeat(gs, block)[:n]
    m = np.empty(n + 1)
    m[0] = float(np.abs(v0).max())
    m[1:] = vmax.T.reshape(-1)[:n]
    return states, sig_pts, m


def _propagate_states(f, w_visit, s_visit, v0):
    """States at the mesh points in visit order from launch data v0, with
    (y, y') or (y, y', dy/dmu, dy'/dmu) by the length of v0; f holds the
    cell functions of (w_visit, s_visit)."""
    states, sig_pts = _normalize_points(*_scan(f, w_visit, s_visit, v0))
    if not np.all(np.isfinite(states)):
        bad = int(np.argmax(~np.isfinite(states).all(axis=1)))
        raise NonFinite("propagated state is not finite", cell_index=max(bad - 1, 0))
    return states, sig_pts


# -- continuous phase ----------------------------------------------------------

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
    # the half-turn of each angle, leaving a residual u in [-pi/2, pi/2)
    turn = np.pi * np.floor(ang / np.pi + 0.5)
    u = ang - turn
    delta = ang[1:] - ang[:-1]
    delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    trig = w_visit > 0.0
    if np.any(trig):
        sqw = np.sqrt(np.maximum(w_visit, 0.0))
        # reduce the scaled angles by the half-turn of the unscaled ones they
        # share: reduced apart, a state with y' ~ 0 can wrap one and not the
        # other, and the terminal phase then jumps by pi
        vs = np.arctan2(y[:-1] * sqw, yp[:-1]) - turn[:-1]
        ve = np.arctan2(y[1:] * sqw, yp[1:]) - turn[1:]
        rot = sqw * s_visit
        delta = np.where(trig, np.pi * np.round((vs + rot - ve) / np.pi) + (u[1:] - u[:-1]), delta)
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


def _square_increments(starts, f, direction):
    """Per-cell integral of y**2 from the cells' launch-edge states, in
    each cell's launch-edge stored scale; f holds the cells' integrals."""
    y0 = starts[:, 0]
    yp0 = starts[:, 1]
    inc = y0 * y0 * f["intC2"] + 2.0 * y0 * yp0 * f["intCS"] + yp0 * yp0 * f["intS2"]
    return -inc if direction == _RIGHT else inc


def _cum_square_true(states, sig_pts, f, direction):
    inc = _square_increments(states[:-1], f, direction)
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
    f = _cell_functions(w_visit, s_visit, variational, integrals=variational)
    states, sig_pts = _propagate_states(f, w_visit, s_visit, np.array(v0))
    cum = _cum_square_true(states, sig_pts, f, ic.side) if variational else None
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
    f = _cell_functions(w_visit, s_visit, variational=False, integrals=True)
    states, sig_pts = _propagate_states(f, w_visit, s_visit, np.array([y0, yp0]))
    theta = _phase_profile(states, w_visit, s_visit, math.atan2(y0, yp0))
    inc = _square_increments(states[:-1], f, ic.side)
    with np.errstate(over="ignore", under="ignore"):
        square = float(np.sum(inc * np.exp(2.0 * (sig_pts[:-1] - sig_pts[-1]))))
    return PhaseRecord(mu=mu, theta_terminal=float(theta[-1]), direction=ic.side,
                       y=float(states[-1, 0]), yp=float(states[-1, 1]), square=square)


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


def _square_integrals_from_launch(traj: SolutionTrajectory, xs: np.ndarray) -> np.ndarray:
    """True-scale integrals of y**2 from the launch endpoint to each of xs:
    the running integral at each point's launch-side cell edge plus the
    closed-form integral over the rest of the way."""
    if traj.cum_square is None:
        raise ValueError("trajectory was propagated without integral data")
    cells = np.clip(np.searchsorted(traj.mesh, xs, side="right") - 1, 0, len(traj.mesh) - 2)
    edges = cells if traj.direction == _LEFT else cells + 1
    f = _cell_functions(traj.w[cells], xs - traj.mesh[edges], variational=False, integrals=True)
    part = _square_increments(traj.states[edges], f, traj.direction)
    with np.errstate(over="ignore"):
        return traj.cum_square[edges] + part * np.exp(2.0 * traj.log_scale[edges])


def square_integral_from_launch(traj: SolutionTrajectory, x: float) -> float:
    """True-scale integral of y**2 from the launch endpoint to x.

    For left launches this is the integral over [0, x]; for right launches
    over [x, pi].
    """
    return float(_square_integrals_from_launch(traj, np.array([float(x)]))[0])

"""Reference values for the benchmark, computed apart from slzeros.

Nothing here imports the library.  Potentials arrive as the JSON documents
the benchmark hands to ``slzeros.parse_potential``, and every quantity is
reached by another route than the library's cell-averaged propagation:

* q = c constant: closed forms.  The characteristic function
  y(pi) cos(beta) + y'(pi) sin(beta) of the left-launched solution is an
  entire function of mu; its n-th sign change is polished with ``brentq``.
  Zeros follow from the exactly rotating scaled phase, and dx/dmu from
  implicit differentiation of y(x, mu) = 0.
* q = cos 2x with Dirichlet or Neumann conditions at both ends: Mathieu
  characteristic values b_{n+1}(0.5) and a_n(0.5) from ``scipy.special``.
* everything else: the scaled Pruefer phase ODE
  theta' = S cos^2 theta + ((mu - q)/S) sin^2 theta  (S > 0 constant)
  and its mu-derivative, integrated with ``scipy.integrate.solve_ivp``
  piece by piece between the breakpoints of q; for an eigenvalue, from both
  ends to a matching point.  A power law a x^p with p < 0 is integrated in
  t = x^(1+p), where q dx = a dt/(1+p) is smooth.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

PI = math.pi

ODE_RTOL = 1e-10
ODE_ATOL = 1e-11


def constant_level(spec: dict) -> float | None:
    """c for q = c (zero included), None for every other kind."""
    if spec["kind"] == "zero":
        return 0.0
    if spec["kind"] == "constant":
        return float(spec["c"])
    return None


# -- constant potentials: closed forms ------------------------------------------

def _cs(w, x):
    """(C, S) = (cos(sqrt(w) x), sin(sqrt(w) x)/sqrt(w)), continued to w <= 0."""
    w = np.asarray(w, dtype=float)
    r = np.sqrt(np.abs(w))
    rx = r * x
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = np.where(w >= 0.0, np.cos(rx), np.cosh(rx))
        s = np.where(w > 0.0, np.sin(rx) / np.where(r > 0, r, 1.0),
                     np.where(w < 0.0, np.sinh(rx) / np.where(r > 0, r, 1.0), x))
    return c, s


def _launch(angle: float) -> tuple[float, float]:
    # y(0) = sin(alpha), y'(0) = -cos(alpha); alpha = pi is the exact
    # Dirichlet launch (0, 1)
    if angle == PI:
        return 0.0, 1.0
    return math.sin(angle), -math.cos(angle)


def flat_characteristic(w, alpha: float, beta: float):
    """Boundary determinant at pi for q = c, as a function of w = mu - c."""
    y0, yp0 = _launch(alpha)
    c, s = _cs(w, PI)
    y = y0 * c + yp0 * s
    yp = -y0 * np.asarray(w) * s + yp0 * c
    if beta == 0.0:
        return y
    return y * math.cos(beta) + yp * math.sin(beta)


def flat_eigenvalue(n: int, alpha: float, beta: float, c: float = 0.0) -> float:
    """n-th eigenvalue of -y'' + c y = mu y by a sign-change scan of the
    closed-form characteristic function and a scalar root polish."""
    # a Robin end with y'/y pointing into the interior binds one state at
    # about -cot(angle)**2; the scan starts well below both
    floor = 0.0
    if alpha < PI / 2:
        floor += 1.0 / math.tan(alpha) ** 2
    if beta > PI / 2:
        floor += 1.0 / math.tan(beta) ** 2
    w_lo = -floor - 60.0 - math.sqrt(2.0) * 1e-4
    w_hi = (n + 3.0) ** 2 + 10.0
    # fine steps below w = 1, where two end-bound states can nearly coincide
    grid = np.concatenate((np.linspace(w_lo, 1.0, int(1000 * (1.0 - w_lo)) + 1),
                           np.linspace(1.0, w_hi, int(40 * (w_hi - 1.0)) + 1)[1:]))
    vals = flat_characteristic(grid, alpha, beta)
    hits = np.nonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))[0]
    if len(hits) <= n:
        raise ValueError(f"characteristic scan found {len(hits)} roots, need {n + 1}")
    i = int(hits[n])
    if vals[i] == 0.0:
        return float(grid[i]) + c
    return brentq(lambda v: float(flat_characteristic(v, alpha, beta)), grid[i], grid[i + 1],
                  xtol=1e-14, rtol=1e-15, maxiter=200) + c


def flat_zeros(w: float, angle: float) -> list[tuple[float, float]]:
    """[(x, dx/dmu)] for every zero in (0, pi] of the solution of
    -y'' + c y = mu y launched from 0 with angle ``angle``, w = mu - c."""
    y0, yp0 = _launch(angle)
    xs: list[float] = []
    if w > 0.0:
        om = math.sqrt(w)
        # the scaled phase atan2(om y, y') rotates by exactly om x; y = 0
        # where it crosses a multiple of pi
        t0 = math.atan2(om * y0, yp0)
        j = math.floor(t0 / PI) + 1
        while (j * PI - t0) / om <= PI:
            xs.append((j * PI - t0) / om)
            j += 1
    elif w < 0.0 and y0 != 0.0:
        ka = math.sqrt(-w)
        r = -ka * y0 / yp0 if yp0 != 0.0 else math.inf
        if 0.0 < r < 1.0:
            x = math.atanh(r) / ka
            if x <= PI:
                xs.append(x)
    elif w == 0.0 and yp0 != 0.0 and 0.0 < -y0 / yp0 <= PI:
        xs.append(-y0 / yp0)
    out = []
    for x in xs:
        c, s = (float(v) for v in _cs(w, x))
        # y = y0 C + yp0 S;  dC/dmu = -x S/2,  dS/dmu = (x C - S)/(2 w)
        y_x = -y0 * w * s + yp0 * c
        y_mu = -y0 * 0.5 * x * s + yp0 * (x * c - s) / (2.0 * w)
        out.append((x, -y_mu / y_x))
    return out


# -- cos 2x: Mathieu characteristic values ---------------------------------------

def mathieu_eigenvalue(spec: dict, n: int, alpha: float, beta: float) -> float | None:
    """mu_n for q = cos 2x with Dirichlet or Neumann conditions at both ends.

    -y'' + cos(2x) y = mu y is Mathieu's equation y'' + (a - 2 q cos 2x) y = 0
    with a = mu, q = 1/2.
    """
    if spec["kind"] != "cosine" or (float(spec["a"]), float(spec["f"])) != (1.0, 2.0):
        return None
    if alpha == PI and beta == 0.0:
        return float(mathieu_b(n + 1, 0.5))
    if alpha == PI / 2 and beta == PI / 2:
        return float(mathieu_a(n, 0.5))
    return None


# -- the Pruefer phase ODE ------------------------------------------------------------

def _singular_power(spec: dict) -> bool:
    return spec["kind"] == "power" and float(spec["p"]) < 0.0


def _t_of(spec: dict, x: float) -> float:
    """Integration variable at x: x itself, or x^(1+p) for a singular power."""
    return x ** (1.0 + float(spec["p"])) if _singular_power(spec) else x


def _q_at(spec: dict, x: float) -> float:
    kind = spec["kind"]
    if kind in ("zero", "constant"):
        return constant_level(spec)
    if kind == "cosine":
        return float(spec["a"]) * math.cos(float(spec["f"]) * x)
    if kind == "step":
        return float(spec["v"]) if float(spec["l"]) <= x <= float(spec["r"]) else 0.0
    if kind == "power":
        return float(spec["a"]) * x ** float(spec["p"])
    xs = [float(px) for px, _ in spec["points"]]
    qs = [float(pq) for _, pq in spec["points"]]
    return float(np.interp(x, xs, qs))


def _pieces(spec: dict):
    """[(t_lo, t_hi, dx/dt, q(x(t)) dx/dt)] covering [0, pi], split where q
    jumps or kinks, so that the integrator only sees smooth pieces."""
    kind = spec["kind"]
    one = lambda t: 1.0  # noqa: E731
    if _singular_power(spec):
        # q dx = a x^p dx = a m dt with x = t^m, m = 1/(1+p)
        a, m = float(spec["a"]), 1.0 / (1.0 + float(spec["p"]))
        return [(0.0, _t_of(spec, PI), lambda t: m * t ** (m - 1.0), lambda t: a * m)]
    if kind in ("zero", "constant"):
        c = constant_level(spec)
        return [(0.0, PI, one, lambda t: c)]
    if kind == "cosine":
        a, f = float(spec["a"]), float(spec["f"])
        return [(0.0, PI, one, lambda t: a * math.cos(f * t))]
    if kind == "power":
        a, p = float(spec["a"]), float(spec["p"])
        return [(0.0, PI, one, lambda t: a * t ** p)]
    if kind == "step":
        cuts = [0.0, float(spec["l"]), float(spec["r"]), PI]
    else:
        cuts = [float(x) for x, _ in spec["points"]]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            # constant (step) or linear (table) inside the piece
            if kind == "step":
                q_lo = q_hi = _q_at(spec, 0.5 * (lo + hi))
            else:
                q_lo, q_hi = _q_at(spec, lo), _q_at(spec, hi)
            slope = (q_hi - q_lo) / (hi - lo)
            out.append((lo, hi, one, lambda t, lo=lo, q_lo=q_lo, slope=slope:
                        q_lo + slope * (t - lo)))
    return out


class PhaseSolution:
    """Scaled Pruefer phase of a solution launched from one end, at one mu.

    theta(x) is the continuous angle of (S y, y'); y vanishes exactly where
    theta crosses a multiple of pi, and theta rises through it as x grows.
    A left launch starts at x = 0 from y = sin(alpha), y' = -cos(alpha); a
    right launch starts at x = pi from y = sin(beta), y' = -cos(beta) and is
    integrated towards 0.  Integration stops at ``stop`` (default: the far
    end); ``theta_start``/``theta_stop`` are theta at the launch end and at
    the stop, and ``dtheta_dmu`` is the mu-derivative of theta at the stop.
    """

    def __init__(self, spec: dict, mu: float, angle: float, side: str = "left",
                 dense: bool = False, stop: float | None = None):
        self.spec = spec
        self.mu = float(mu)
        self.scale = S = math.sqrt(max(abs(self.mu), 1.0))
        if side == "left":
            y0, yp0 = _launch(angle)
            stop = PI if stop is None else stop
        else:
            y0, yp0 = (0.0, -1.0) if angle == 0.0 else (math.sin(angle), -math.cos(angle))
            stop = 0.0 if stop is None else stop
        self.theta_start = math.atan2(S * y0, yp0)
        t_stop = _t_of(spec, stop)
        spans = []
        for t_lo, t_hi, jac, qjac in _pieces(spec):
            if side == "left" and t_lo < t_stop:
                spans.append((t_lo, min(t_hi, t_stop), jac, qjac))
            elif side == "right" and t_hi > t_stop:
                spans.append((t_hi, max(t_lo, t_stop), jac, qjac))
        if side == "right":
            spans.reverse()
        state = [self.theta_start, 0.0]
        self._segments = []
        for t_a, t_b, jac, qjac in spans:
            def rhs(t, y, jac=jac, qjac=qjac):
                c, s = math.cos(y[0]), math.sin(y[0])
                j = jac(t)
                wj = self.mu * j - qjac(t)
                return [S * j * c * c + wj / S * s * s,
                        2.0 * s * c * (wj / S - S * j) * y[1] + j * s * s / S]

            sol = solve_ivp(rhs, (t_a, t_b), state, method="DOP853", rtol=ODE_RTOL,
                            atol=ODE_ATOL, dense_output=dense)
            if not sol.success:
                raise RuntimeError(f"phase ODE failed: {sol.message}")
            state = sol.y[:, -1]
            if dense:
                self._segments.append((min(t_a, t_b), max(t_a, t_b), sol.sol))
        self._segments.sort(key=lambda seg: seg[0])
        self.theta_stop = float(state[0])
        self.dtheta_dmu = float(state[1])
        self.side = side

    def theta(self, x: float) -> float:
        """theta at x inside the integrated range (needs ``dense=True``)."""
        if not self._segments:
            return self.theta_start
        t = _t_of(self.spec, x)
        for k, (t_lo, t_hi, interp) in enumerate(self._segments):
            if t <= t_hi or k == len(self._segments) - 1:
                return float(interp(min(max(t, t_lo), t_hi))[0])
        raise AssertionError("unreachable")

    def interior_zero_phases(self) -> list[float] | None:
        """theta at each zero of y in (0, pi), ascending in x, for a solution
        integrated over all of [0, pi]; None when a zero sits within roundoff
        of an end that does not pin one."""
        lo, hi = ((self.theta_start, self.theta_stop) if self.side == "left"
                  else (self.theta_stop, self.theta_start))
        for v, pinned in ((lo, lo == 0.0 and self.side == "left"),
                          (hi, hi == PI and self.side == "right")):
            if not pinned and abs(v / PI - round(v / PI)) < 1e-7:
                return None
        return [j * PI for j in range(math.floor(lo / PI) + 1, math.ceil(hi / PI))]


def matching_point(spec: dict) -> float:
    """Where q is lowest, so mu - q is largest: the eigenfunction oscillates
    or decays least there, and the left and right phases meeting there fix
    mu well."""
    xs = np.linspace(0.0, PI, 257)[1:]
    return float(xs[int(np.argmin([_q_at(spec, x) for x in xs]))])


class EigenMatch:
    """The n-th eigenproblem's left and right phases, met at a matching point.

    At the eigenvalue theta_left(x_m) - theta_right(x_m) = n pi; the
    mismatch rises strictly with mu.  Shooting from one end alone is badly
    conditioned when the far end lies in a region where the solution
    grows, so both sides stop at x_m.
    """

    def __init__(self, spec: dict, mu: float, n: int, alpha: float, beta: float,
                 dense: bool = False):
        self.mu, self.n = float(mu), n
        self.xm = matching_point(spec)
        self.left = PhaseSolution(spec, mu, alpha, "left", dense=dense, stop=self.xm)
        self.right = PhaseSolution(spec, mu, beta, "right", dense=dense, stop=self.xm)
        self.mismatch = self.left.theta_stop - self.right.theta_stop - n * PI
        self.slope = self.left.dtheta_dmu - self.right.dtheta_dmu

    def newton_mu(self) -> float:
        """One Newton step on the mismatch from this mu: the reference
        eigenvalue to second order in the program's error when mu is close,
        a step of the order of the eigenvalue gap when mu is not."""
        return self.mu - self.mismatch / self.slope

    def zero_offsets(self, interior: list[float]) -> list[float]:
        """|x - reference zero| for sorted interior zeros (needs ``dense``):
        left of x_m the j-th zero has theta_left = j pi, right of it the
        i-th zero counted from pi has theta_right = -i pi (i = 0, 1, ...).

        Build this at the reference eigenvalue, not at the program's: past a
        barrier a launched solution picks up the growing solution in
        proportion to the error in mu, which moves its zeros.
        """
        S = self.left.scale
        left = [x for x in interior if x <= self.xm]
        right = [x for x in interior if x > self.xm]
        offs = [abs(self.left.theta(x) - j * PI) / S for j, x in enumerate(left, 1)]
        offs += [abs(self.right.theta(x) + i * PI) / S for i, x in enumerate(reversed(right))]
        return offs


def eigenvalue_near(spec: dict, mu: float, n: int, alpha: float, beta: float,
                    iterations: int = 8) -> float:
    """Newton on the phase mismatch from mu until the step is below 1e-13
    relative.  Where the matching point lies across a barrier from most of
    the eigenfunction the mismatch bends sharply, and one step falls short."""
    for _ in range(iterations):
        nxt = EigenMatch(spec, mu, n, alpha, beta).newton_mu()
        if abs(nxt - mu) <= 1e-13 * max(1.0, abs(nxt)):
            return nxt
        mu = nxt
    raise RuntimeError(f"phase mismatch Newton did not settle near mu={mu!r}")

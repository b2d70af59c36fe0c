"""Integrable potentials q on [0, pi].

A potential is one of six kinds: the zero function, a constant, a cosine
``a*cos(f*x)``, a step of height v supported on a subinterval, a power law
``a*x**p`` with p > -1 (integrable even when unbounded at the origin), or a
table of breakpoints interpolated piecewise-linearly.

Every kind carries an exact antiderivative, so cell averages
``(1/(b-a)) * integral(q, a, b)`` are computed in closed form.  Nothing in
this module ever samples q pointwise; that is what keeps singular-but-
integrable potentials such as x**(-1/2) usable by the propagation code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DomainMismatch,
    NonIntegrableExponent,
    NonMonotoneTable,
    UnknownKind,
)

PI = math.pi

KINDS = ("zero", "constant", "cosine", "step", "power", "table")


@dataclass(frozen=True)
class Potential:
    """Immutable, hashable representation of q in L1[0, pi].

    ``params`` is kind-specific:
        zero      ()
        constant  (c,)
        cosine    (a, f)          a*cos(f*x)
        step      (v, lo, hi)     v on [lo, hi], 0 elsewhere
        power     (a, p)          a*x**p, p > -1
        table     ()              breakpoints live in ``points``
    """

    kind: str
    params: tuple[float, ...] = ()
    points: tuple[tuple[float, float], ...] = ()
    l1_norm: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnknownKind(f"unknown potential kind {self.kind!r}")
        _validate(self)
        object.__setattr__(self, "l1_norm", _l1_norm(self))
        if not math.isfinite(self.l1_norm):
            raise NonIntegrableExponent(f"L1 norm of {self.kind} potential is not finite")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Breakpoints, values and the exact integral up to each breakpoint
        of a table potential."""
        xs = np.array([x for x, _ in self.points])
        qs = np.array([v for _, v in self.points])
        areas = 0.5 * (qs[:-1] + qs[1:]) * np.diff(xs)
        return xs, qs, np.concatenate(([0.0], np.cumsum(areas)))

    @property
    def singular_at_origin(self) -> bool:
        return self.kind == "power" and self.params[1] < 0

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return f"constant c={self.params[0]:g}"
        if self.kind == "cosine":
            return f"{self.params[0]:g}*cos({self.params[1]:g}x)"
        if self.kind == "step":
            v, lo, hi = self.params
            return f"step v={v:g} on [{lo:g},{hi:g}]"
        if self.kind == "power":
            return f"{self.params[0]:g}*x^{self.params[1]:g}"
        return f"table({len(self.points)} pts)"


def zero() -> Potential:
    return Potential("zero")


def constant(c: float) -> Potential:
    return Potential("constant", (float(c),))


def cosine(a: float, f: float) -> Potential:
    return Potential("cosine", (float(a), float(f)))


def step(v: float, lo: float, hi: float) -> Potential:
    return Potential("step", (float(v), float(lo), float(hi)))


def power(a: float, p: float) -> Potential:
    return Potential("power", (float(a), float(p)))


def table(points) -> Potential:
    pts = tuple((float(x), float(qx)) for x, qx in points)
    return Potential("table", (), pts)


def _validate(q: Potential) -> None:
    if q.kind == "power":
        _, p = q.params
        if p <= -1.0:
            raise NonIntegrableExponent(f"power exponent p={p} <= -1 is not integrable on [0, pi]")
    elif q.kind == "step":
        _, lo, hi = q.params
        if not (0.0 <= lo < hi <= PI):
            raise DomainMismatch(f"step support [{lo}, {hi}] must satisfy 0 <= lo < hi <= pi")
    elif q.kind == "table":
        if len(q.points) < 2:
            raise DomainMismatch("table needs at least two breakpoints")
        xs = [x for x, _ in q.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise NonMonotoneTable("table breakpoints must be strictly increasing")
        if xs[0] != 0.0 or abs(xs[-1] - PI) > 1e-12:
            raise DomainMismatch("table must span exactly [0, pi]")


def parse_potential(doc) -> Potential:
    """Build a Potential from a JSON document (string or already-parsed dict).

    Raises UnknownKind / NonIntegrableExponent / NonMonotoneTable /
    DomainMismatch for invalid specs.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise UnknownKind(f"potential spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise UnknownKind("potential spec must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "zero":
            return zero()
        if kind == "constant":
            return constant(doc["c"])
        if kind == "cosine":
            return cosine(doc["a"], doc["f"])
        if kind == "step":
            return step(doc["v"], doc["l"], doc["r"])
        if kind == "power":
            return power(doc["a"], doc["p"])
        if kind == "table":
            return table(doc["points"])
    except KeyError as exc:
        raise DomainMismatch(f"potential kind {kind!r} is missing parameter {exc}") from exc
    raise UnknownKind(f"unknown potential kind {kind!r}")


# -- exact integration --------------------------------------------------------

def _antiderivative(q: Potential, x: np.ndarray) -> np.ndarray:
    """F(x) = integral of q from 0 to x, exact for every kind."""
    x = np.asarray(x, dtype=float)
    if q.kind == "zero":
        return np.zeros_like(x)
    if q.kind == "constant":
        return q.params[0] * x
    if q.kind == "cosine":
        a, f = q.params
        if f == 0.0:
            return a * x
        return (a / f) * np.sin(f * x)
    if q.kind == "step":
        v, lo, hi = q.params
        return v * np.clip(x - lo, 0.0, hi - lo)
    if q.kind == "power":
        a, p = q.params
        return a * np.power(x, p + 1.0) / (p + 1.0)
    # table: piecewise-quadratic cumulative of the linear interpolant
    xs, qs, cum = q._table
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    x0 = xs[idx]
    dx = x - x0
    seg = xs[idx + 1] - x0
    slope = (qs[idx + 1] - qs[idx]) / seg
    return cum[idx] + qs[idx] * dx + 0.5 * slope * dx * dx


def cell_averages(q: Potential, mesh: np.ndarray) -> np.ndarray:
    """Vector of exact cell averages over consecutive mesh intervals."""
    f = _antiderivative(q, mesh)
    return np.diff(f) / np.diff(mesh)


# -- L1 norms -----------------------------------------------------------------

def _abs_cos_integral(t: float) -> float:
    # integral of |cos u| over [0, t], t >= 0
    k = math.floor(t / PI)
    r = t - k * PI
    partial = math.sin(r) if r <= PI / 2 else 2.0 - math.sin(r)
    return 2.0 * k + partial


def _l1_norm(q: Potential) -> float:
    if q.kind == "zero":
        return 0.0
    if q.kind == "constant":
        return abs(q.params[0]) * PI
    if q.kind == "cosine":
        a, f = q.params
        if f == 0.0:
            return abs(a) * PI
        return abs(a) / abs(f) * _abs_cos_integral(abs(f) * PI)
    if q.kind == "step":
        v, lo, hi = q.params
        return abs(v) * (hi - lo)
    if q.kind == "power":
        a, p = q.params
        return abs(a) * PI ** (p + 1.0) / (p + 1.0)
    # table: per-segment integral of |linear|, splitting at sign changes
    total = 0.0
    for (x0, q0), (x1, q1) in zip(q.points, q.points[1:]):
        seg = x1 - x0
        if q0 * q1 >= 0.0:
            total += 0.5 * abs(q0 + q1) * seg
        else:
            xc = seg * q0 / (q0 - q1)
            total += 0.5 * (abs(q0) * xc + abs(q1) * (seg - xc))
    return total

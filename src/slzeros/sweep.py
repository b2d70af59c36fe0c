"""Zero trajectories and eigenvalue paths under boundary-angle sweeps.

As beta rises from 0 the n-th eigenvalue decreases and every zero of the
left-launched eigenfunction moves right; the zero pinned at pi when
beta = 0 leaves the segment immediately and nothing re-enters until the
chart seam.  As alpha rises toward pi the eigenvalue increases, the
right-launched eigenfunction's zeros move right, and a new zero enters
through x = 0 exactly at alpha = pi.  The sweep engine solves the
eigenpair at every grid angle and links zeros between neighbouring angles
by nearest-neighbour matching with a displacement guard; endpoint entry and
exit events are recorded with the grid bracket in which they happened.
When there are events, a second pass adds angles inside their brackets and
re-links the whole grid, solving only the new angles.  detect_transition
narrows a bracket to width 1e-8: the theorem places the event at the
pinning angle (beta = 0, alpha = pi), so the bracket is halved toward it
without solving; the sweep's own solve at the pinning angle and one new
solve at the other end of the final bracket confirm that the watched
endpoint value changes state across it.

Per-angle solves reuse the trusted spectrum/oscillation machinery, so the
analytic velocity formulas stay available as independent cross-checks
instead of being integrated for continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainMismatch, EventNotFound, LinkAmbiguity, MonotonicityViolation
from .oscillation import canonical_zero_records
from .potential import PI, Potential
from .shooting import left_conditions, propagate, right_conditions
from .spectrum import BoundaryParams, _locate_mu

DEFAULT_SWEEP_CELLS = 2048
_EVENT_WIDTH = 1e-8
_ENDPOINT_REL = 1e-9

VARY_BETA = "beta"
VARY_ALPHA = "alpha"

ENTERED_LEFT = "entered_at_left"
ENTERED_RIGHT = "entered_at_right"
EXITED_LEFT = "exited_at_left"
EXITED_RIGHT = "exited_at_right"


@dataclass(frozen=True)
class SweepPlan:
    """One-parameter sweep: vary one boundary angle over a grid, track the
    n-th eigenfunction's zeros."""

    q: Potential
    n: int
    vary: str
    fixed_angle: float
    grid: tuple[float, ...]
    cells: int = DEFAULT_SWEEP_CELLS

    def __post_init__(self):
        if self.vary not in (VARY_BETA, VARY_ALPHA):
            raise DomainMismatch(f"vary must be 'beta' or 'alpha', got {self.vary!r}")
        grid = tuple(float(a) for a in self.grid)
        object.__setattr__(self, "grid", grid)
        if len(grid) < 8:
            raise DomainMismatch(f"sweep grid needs at least 8 angles, got {len(grid)}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainMismatch("sweep grid must be strictly increasing")
        lo, hi = grid[0], grid[-1]
        if self.vary == VARY_BETA and not (0.0 <= lo and hi < PI):
            raise DomainMismatch("beta grid must lie in [0, pi)")
        if self.vary == VARY_ALPHA and not (0.0 < lo and hi <= PI):
            raise DomainMismatch("alpha grid must lie in (0, pi]")
        # the fixed angle must be legal for its own slot
        if self.vary == VARY_BETA:
            BoundaryParams(self.fixed_angle, grid[0])
        else:
            BoundaryParams(grid[0], self.fixed_angle)

    def boundary(self, angle: float) -> BoundaryParams:
        if self.vary == VARY_BETA:
            return BoundaryParams(self.fixed_angle, angle)
        return BoundaryParams(angle, self.fixed_angle)

    @property
    def side(self) -> str:
        # beta sweeps watch the left-launched solution, alpha sweeps the
        # right-launched one: the launch data of that side do not move with
        # the swept angle, so its endpoint bookkeeping is exact.
        return "left" if self.vary == VARY_BETA else "right"


def uniform_grid(vary: str, count: int = 64, lo: float | None = None,
                 hi: float | None = None) -> tuple[float, ...]:
    """Default sweep grid: uniform angles inside the legal range."""
    if count < 2:
        raise DomainMismatch(f"sweep grid needs at least 2 angles, got {count}")
    if vary == VARY_BETA:
        lo = 0.0 if lo is None else lo
        hi = 0.95 * PI if hi is None else hi
    else:
        lo = 0.05 * PI if lo is None else lo
        hi = PI if hi is None else hi
    step = (hi - lo) / (count - 1)
    pts = [lo + i * step for i in range(count)]
    pts[-1] = hi
    return tuple(pts)


@dataclass
class ZeroTrajectory:
    """Path of one tracked zero across the sweep."""

    identity: int
    points: list[tuple[float, float]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)


@dataclass
class SweepResult:
    trajectories: list[ZeroTrajectory]
    eigenvalue_path: list[tuple[float, float]]

    @property
    def events(self) -> list[dict]:
        out = []
        for t in self.trajectories:
            for e in t.events:
                out.append({**e, "zero_id": t.identity})
        out.sort(key=lambda e: e["angle_hi"])
        return out


def _solve_angle(plan: SweepPlan, angle: float):
    bc = plan.boundary(angle)
    mu = _locate_mu(plan.q, plan.n, bc.alpha, bc.beta, plan.cells)
    records = canonical_zero_records(plan.q, mu, bc, plan.cells, side=plan.side)
    return mu, [r.x for r in records]


def link_zeros(prev: list[float], new: list[float], guard: float):
    """Match new zeros to previous ones by proximity.

    Zeros only move right along a sweep (the angle grid increases, and both
    sweep kinds watch an eigenfunction whose zeros move right), so a new
    zero can only descend from a previous zero at or to the left of it.
    Returns (matches old_index -> new_index, entered new indices, exited
    old indices).  Raises LinkAmbiguity when two new zeros claim the same
    ancestor, which signals a grid too coarse for the motion.
    """
    matches: dict[int, int] = {}
    claimed: dict[int, int] = {}
    for j, x in enumerate(new):
        best, best_d = None, guard
        for i, xp in enumerate(prev):
            d = x - xp
            if 0.0 <= d < best_d:
                best, best_d = i, d
        if best is None:
            continue
        if best in claimed:
            raise LinkAmbiguity(
                f"zeros at x={new[claimed[best]]:.6f} and x={x:.6f} both claim "
                f"ancestor x={prev[best]:.6f}; refine the sweep grid",
                refine_factor=4)
        claimed[best] = j
        matches[best] = j
    entered = [j for j in range(len(new)) if j not in matches.values()]
    exited = [i for i in range(len(prev)) if i not in matches]
    return matches, entered, exited


def _min_gap(xs: list[float]) -> float:
    if len(xs) < 2:
        return PI
    return min(b - a for a, b in zip(xs, xs[1:]))


def _classify(x: float, kind_enter: bool) -> str:
    if x < PI / 2:
        return ENTERED_LEFT if kind_enter else EXITED_LEFT
    return ENTERED_RIGHT if kind_enter else EXITED_RIGHT


def _sweep_pass(plan: SweepPlan, angles: list[float], solved: dict) -> SweepResult:
    """Link the zeros over the angles.  solved is the sweep's table
    {angle: (mu, zeros)}; an angle it lacks is solved in turn and added."""
    trajectories: list[ZeroTrajectory] = []
    path: list[tuple[float, float]] = []
    active: dict[int, ZeroTrajectory] = {}  # index within current zero list -> traj
    next_id = 0

    for step, angle in enumerate(angles):
        if angle not in solved:
            solved[angle] = _solve_angle(plan, angle)
        mu, xs = solved[angle]
        path.append((angle, mu))
        if step == 0:
            for x in xs:
                t = ZeroTrajectory(identity=next_id, points=[(angle, x)])
                trajectories.append(t)
                active[len(active)] = t
                next_id += 1
            prev_xs = xs
            prev_angle = angle
            continue
        guard = 0.5 * _min_gap(prev_xs)
        matches, entered, exited = link_zeros(prev_xs, xs, guard)
        new_active: dict[int, ZeroTrajectory] = {}
        for i, t in active.items():
            if i in matches:
                j = matches[i]
                t.points.append((angle, xs[j]))
                new_active[j] = t
            else:
                t.events.append({
                    "event": _classify(t.points[-1][1], kind_enter=False),
                    "angle_lo": prev_angle, "angle_hi": angle,
                })
        for j in entered:
            t = ZeroTrajectory(identity=next_id, points=[(angle, xs[j])])
            t.events.append({
                "event": _classify(xs[j], kind_enter=True),
                "angle_lo": prev_angle, "angle_hi": angle,
            })
            trajectories.append(t)
            new_active[j] = t
            next_id += 1
        active = new_active
        prev_xs = xs
        prev_angle = angle

    mus = [m for _, m in path]
    diffs = [b - a for a, b in zip(mus, mus[1:])]
    if plan.vary == VARY_BETA and any(d >= 0.0 for d in diffs):
        i = next(i for i, d in enumerate(diffs) if d >= 0.0)
        raise MonotonicityViolation(
            f"eigenvalue path not strictly decreasing in beta at step {i}", indices=(i,))
    if plan.vary == VARY_ALPHA and any(d <= 0.0 for d in diffs):
        i = next(i for i, d in enumerate(diffs) if d <= 0.0)
        raise MonotonicityViolation(
            f"eigenvalue path not strictly increasing in alpha at step {i}", indices=(i,))
    return SweepResult(trajectories=trajectories, eigenvalue_path=path)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Trace zero trajectories and the eigenvalue path over the plan's grid.

    When events are detected the grid is densified once (x4) inside each
    event bracket and the zeros re-linked over the union grid, so event
    brackets come out at the refined resolution; only the new angles are
    solved.
    """
    solved: dict[float, tuple[float, list[float]]] = {}
    result = _sweep_pass(plan, list(plan.grid), solved)
    extra: list[float] = []
    for e in result.events:
        lo, hi = e["angle_lo"], e["angle_hi"]
        extra.extend(lo + (hi - lo) * f for f in (0.25, 0.5, 0.75))
    if not extra:
        return result
    angles = sorted(set(list(plan.grid) + extra))
    return _sweep_pass(plan, angles, solved)


def _endpoint_pinned(plan: SweepPlan, angle: float, mu: float) -> bool:
    """Whether the watched endpoint value of the eigenfunction at the
    eigenvalue mu of the given angle vanishes.

    Right-side events watch the left-launched solution at pi; left-side
    events watch the right-launched solution at 0.  The value is compared
    against the solution's own scale.
    """
    bc = plan.boundary(angle)
    if plan.side == "left":
        traj = propagate(plan.q, mu, left_conditions(bc.alpha), plan.cells, variational=False)
        endpoint = abs(float(traj.states[-1, 0]))
    else:
        traj = propagate(plan.q, mu, right_conditions(bc.beta), plan.cells, variational=False)
        endpoint = abs(float(traj.states[0, 0]))
    scale = float(abs(traj.states[:, 0]).max())
    return endpoint <= _ENDPOINT_REL * scale


def detect_transition(plan: SweepPlan, event: str, zero_id: int | None = None,
                      result: SweepResult | None = None) -> tuple[float, float]:
    """Refine an endpoint event's angle bracket to width 1e-8.

    ``event`` is one of the entered/exited kinds; ``zero_id`` restricts the
    search to one tracked zero.  By the oscillation theorem the watched
    endpoint value vanishes only at the pinning angle (beta = 0 for beta
    sweeps, alpha = pi for alpha sweeps), so the bracket is halved toward
    that angle without solving.  The endpoint state is then confirmed at
    each end of the final bracket: at the pinning angle with the sweep's
    eigenvalue there, at the other end by one new solve.  Raises
    EventNotFound if the sweep contains no matching event, if its bracket
    does not reach the pinning angle, or if the two ends do not differ in
    state.
    """
    if result is None:
        result = run_sweep(plan)
    found = None
    for e in result.events:
        if e["event"] != event:
            continue
        if zero_id is not None and e["zero_id"] != zero_id:
            continue
        found = e
        break
    if found is None:
        raise EventNotFound(f"no {event!r} event"
                            + (f" for zero {zero_id}" if zero_id is not None else ""))
    lo, hi = found["angle_lo"], found["angle_hi"]
    pin = 0.0 if plan.vary == VARY_BETA else PI
    if pin not in (lo, hi):
        raise EventNotFound(
            f"event bracket [{lo}, {hi}] does not reach the pinning angle {pin}")
    while hi - lo > _EVENT_WIDTH:
        mid = 0.5 * (lo + hi)
        if pin == lo:
            hi = mid
        else:
            lo = mid
    path_mu = dict(result.eigenvalue_path)

    def mu_at(angle):
        if angle == pin:
            return path_mu[pin]
        bc = plan.boundary(angle)
        return _locate_mu(plan.q, plan.n, bc.alpha, bc.beta, plan.cells)

    if _endpoint_pinned(plan, lo, mu_at(lo)) == _endpoint_pinned(plan, hi, mu_at(hi)):
        raise EventNotFound(
            f"endpoint value does not change state across [{lo}, {hi}]")
    return lo, hi

import math

import pytest

from slzeros import potential, spectrum, sweep
from slzeros.errors import DomainMismatch, EventNotFound, LinkAmbiguity
from slzeros.sweep import (
    _EVENT_WIDTH,
    SweepPlan,
    SweepResult,
    ZeroTrajectory,
    detect_transition,
    link_zeros,
    run_sweep,
    uniform_grid,
)

from .oracles import flat_eigenvalue

PI = math.pi


def _beta_plan(q, n, count=16, cells=512, hi=None):
    return SweepPlan(q, n, "beta", PI, uniform_grid("beta", count, hi=hi), cells)


def test_plan_validation(q_zero):
    with pytest.raises(DomainMismatch):
        SweepPlan(q_zero, 1, "beta", PI, (0.0, 0.1, 0.2, 0.3), 512)
    with pytest.raises(DomainMismatch):
        SweepPlan(q_zero, 1, "gamma", PI, uniform_grid("beta", 8), 512)
    with pytest.raises(DomainMismatch):
        SweepPlan(q_zero, 1, "beta", PI, tuple(reversed(uniform_grid("beta", 8))), 512)
    with pytest.raises(DomainMismatch):
        SweepPlan(q_zero, 1, "alpha", 0.0, uniform_grid("beta", 8), 512)  # grid hits 0


def test_beta_sweep_against_flat_oracle(q_zero):
    plan = _beta_plan(q_zero, 1)
    res = run_sweep(plan)
    for angle, mu in res.eigenvalue_path:
        assert mu == pytest.approx(flat_eigenvalue(1, PI, angle), rel=1e-8, abs=1e-8)
    # the tracked interior zero sits at pi/sqrt(mu) for the flat potential
    interior = [t for t in res.trajectories if 0.0 < t.points[0][1] < PI]
    assert len(interior) == 1
    mu_at = dict(res.eigenvalue_path)
    for angle, x in interior[0].points:
        assert x == pytest.approx(PI / math.sqrt(mu_at[angle]), abs=1e-8)


def test_beta_sweep_monotone_paths(q_zero):
    res = run_sweep(_beta_plan(q_zero, 1))
    mus = [m for _, m in res.eigenvalue_path]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert mus[0] == pytest.approx(4.0, rel=1e-10)
    for t in res.trajectories:
        xs = [x for _, x in t.points]
        assert all(b >= a - 1e-10 for a, b in zip(xs, xs[1:]))


def test_beta_sweep_exit_event(q_zero):
    plan = _beta_plan(q_zero, 1)
    res = run_sweep(plan)
    events = res.events
    assert len(events) == 1
    assert events[0]["event"] == "exited_at_right"
    lo, hi = detect_transition(plan, "exited_at_right", result=res)
    assert hi - lo <= 1e-8
    assert 0.0 <= lo and hi < plan.grid[1]


def test_beta_sweep_ground_state(q_zero):
    # n = 0: the pinned zero at 0 stays, the pi zero leaves immediately, and
    # no interior zero exists at any angle
    res = run_sweep(_beta_plan(q_zero, 0))
    assert all(not (0.0 < t.points[-1][1] < PI) for t in res.trajectories)
    pinned = [t for t in res.trajectories if t.points[0][1] == 0.0]
    assert len(pinned) == 1
    assert all(x == 0.0 for _, x in pinned[0].points)


def test_alpha_sweep_entry_event(q_zero):
    plan = SweepPlan(q_zero, 2, "alpha", 0.0, uniform_grid("alpha", 16), 512)
    res = run_sweep(plan)
    mus = [m for _, m in res.eigenvalue_path]
    assert all(b > a for a, b in zip(mus, mus[1:]))
    assert mus[-1] == pytest.approx(9.0, rel=1e-10)
    entries = [e for e in res.events if e["event"] == "entered_at_left"]
    assert len(entries) == 1
    lo, hi = detect_transition(plan, "entered_at_left", result=res)
    assert hi - lo <= 1e-8 and abs(hi - PI) < 1e-7


def test_alpha_sweep_entry_beside_lone_zero(q_zero):
    # n = 1 with the interior zero left of pi/2: the zero entering at x = 0
    # lies within the lone zero's guard but to its left, so it cannot be
    # that zero's continuation
    plan = SweepPlan(q_zero, 1, "alpha", 0.3, uniform_grid("alpha", 10, lo=0.05 * PI), 512)
    res = run_sweep(plan)
    assert [e["event"] for e in res.events] == ["entered_at_left"]
    assert res.events[0]["angle_hi"] == PI
    assert sorted(t.points[-1][1] for t in res.trajectories)[0] == 0.0


def test_interior_count_preserved(q_cos2x):
    plan = SweepPlan(q_cos2x, 2, "beta", PI, uniform_grid("beta", 12, hi=0.9 * PI), 512)
    res = run_sweep(plan)
    per_angle = {}
    for t in res.trajectories:
        for angle, x in t.points:
            if 0.0 < x < PI:
                per_angle[angle] = per_angle.get(angle, 0) + 1
    for angle, _ in res.eigenvalue_path:
        assert per_angle.get(angle, 0) == 2


def test_event_not_found(q_zero):
    plan = _beta_plan(q_zero, 1)
    res = run_sweep(plan)
    with pytest.raises(EventNotFound):
        detect_transition(plan, "entered_at_left", result=res)
    with pytest.raises(EventNotFound):
        detect_transition(plan, "exited_at_right", zero_id=1, result=res)


# -- events placed by the theorem against the bisection they replaced ----------

def _bisection_transition(plan, result, lo, hi):
    """Bisection on the watched endpoint state, one eigen-solve per probe:
    the event search as it was before the pinning angle was taken from the
    oscillation theorem.  The bracket ends are sweep angles, whose
    eigenvalues the sweep's path holds."""
    path_mu = dict(result.eigenvalue_path)

    def pinned(angle):
        bc = plan.boundary(angle)
        mu = spectrum._locate_mu(plan.q, plan.n, bc.alpha, bc.beta, plan.cells)
        return sweep._endpoint_pinned(plan, angle, mu)

    p_lo = sweep._endpoint_pinned(plan, lo, path_mu[lo])
    p_hi = sweep._endpoint_pinned(plan, hi, path_mu[hi])
    if p_lo == p_hi:
        raise EventNotFound(f"endpoint value does not change state across [{lo}, {hi}]")
    while hi - lo > _EVENT_WIDTH:
        mid = 0.5 * (lo + hi)
        if pinned(mid) == p_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("qname", ["q_zero", "q_cos2x", "q_singular"])
def test_transition_matches_bisection_reference(qname, request, monkeypatch):
    q = request.getfixturevalue(qname)
    scans, solves = [], []
    scan, pinned = spectrum.terminal_phase, sweep._endpoint_pinned
    monkeypatch.setattr(spectrum, "terminal_phase",
                        lambda *args, **kwargs: scans.append(1) or scan(*args, **kwargs))
    monkeypatch.setattr(sweep, "_endpoint_pinned",
                        lambda *args: solves.append(1) or pinned(*args))
    per_event = []
    for vary, fixed in [("beta", PI), ("beta", 0.51), ("beta", 2.0),
                        ("alpha", 0.3), ("alpha", 2.5)]:
        for n in (1, 2, 3):
            plan = SweepPlan(q, n, vary, fixed, uniform_grid(vary, 16), 512)
            res = run_sweep(plan)
            assert res.events
            for e in res.events:
                scans.clear()
                solves.clear()
                got = detect_transition(plan, e["event"], e["zero_id"], res)
                assert len(solves) == 2
                per_event.append(len(scans))
                want = _bisection_transition(plan, res, e["angle_lo"], e["angle_hi"])
                assert got == want, (vary, fixed, n, e)
    # the traced benchmark's sweep.phase_evals_per_event is this mean; one
    # call alone can take a cold solve of 11 scans (cos2x, alpha sweep at
    # beta = 2.5, n = 1)
    assert sum(per_event) / len(per_event) <= 10


@pytest.mark.parametrize("vary, fixed", [("beta", PI), ("alpha", 0.3)])
def test_sweep_solves_each_angle_once(q_cos2x, monkeypatch, vary, fixed):
    # the refinement pass re-links the grid angles from the sweep's own
    # solves, and an event's pinning end reads its eigenvalue off the path
    located = []
    locate = sweep._locate_mu
    monkeypatch.setattr(sweep, "_locate_mu",
                        lambda *args: located.append(args[2:4]) or locate(*args))
    plan = SweepPlan(q_cos2x, 2, vary, fixed, uniform_grid(vary, 12), 512)
    res = run_sweep(plan)
    assert res.events and len(res.eigenvalue_path) > len(plan.grid)
    for e in res.events:
        detect_transition(plan, e["event"], e["zero_id"], res)
    assert len(set(located)) == len(located) == len(res.eigenvalue_path) + len(res.events)


@pytest.mark.parametrize("vary, event, bracket", [("beta", "exited_at_right", (0.5, 0.7)),
                                                  ("alpha", "entered_at_left", (2.0, 2.2))])
def test_event_off_the_pinning_angle_is_refused_without_solving(q_zero, monkeypatch, vary,
                                                                event, bracket):
    plan = SweepPlan(q_zero, 1, vary, PI if vary == "beta" else 0.3, uniform_grid(vary, 8), 512)
    lo, hi = bracket
    fake = SweepResult([ZeroTrajectory(0, [(lo, 1.0)],
                                       [{"event": event, "angle_lo": lo, "angle_hi": hi}])], [])

    def no_solve(*args):
        raise AssertionError("detect_transition solved an eigenproblem")

    monkeypatch.setattr(sweep, "_endpoint_pinned", no_solve)
    with pytest.raises(EventNotFound):
        detect_transition(plan, event, result=fake)


def test_link_zeros_matching():
    matches, entered, exited = link_zeros([0.0, 1.0, 2.0], [0.05, 1.05, 2.05], 0.5)
    assert matches == {0: 0, 1: 1, 2: 2}
    assert entered == [] and exited == []


def test_link_zeros_entry_exit():
    matches, entered, exited = link_zeros([0.0, 1.0, 3.0], [1.02, 2.0], 0.4)
    assert matches == {1: 0}
    assert entered == [1]
    assert exited == [0, 2]


def test_link_zeros_ambiguity():
    with pytest.raises(LinkAmbiguity):
        link_zeros([1.0], [1.05, 1.1], 0.5)


def test_link_zeros_rightward_only():
    # zeros move right along a sweep: a new zero left of every previous one
    # has entered, however close it is
    matches, entered, exited = link_zeros([1.0], [0.9, 1.1], 0.5)
    assert matches == {0: 1}
    assert entered == [0] and exited == []

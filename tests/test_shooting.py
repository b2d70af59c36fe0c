import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzeros import potential
from slzeros.errors import DomainMismatch, MeshTooCoarse, NonFinite
from slzeros.shooting import (
    EndpointConditions,
    _cell_functions,
    _cell_matrices,
    _normalize_points,
    _phase_profile,
    _propagate_states,
    _visit_arrays,
    left_conditions,
    propagate,
    right_conditions,
    terminal_phase,
)

from .oracles import phase_ode_terminal

PI = math.pi


def test_endpoint_conditions_ranges():
    with pytest.raises(DomainMismatch):
        EndpointConditions("left", 0.0)
    with pytest.raises(DomainMismatch):
        EndpointConditions("right", PI)
    with pytest.raises(DomainMismatch):
        EndpointConditions("top", 1.0)


def test_dirichlet_launch_is_exact_zero():
    assert left_conditions(PI).initial_state() == (0.0, 1.0)
    assert right_conditions(0.0).initial_state() == (0.0, -1.0)


@pytest.mark.parametrize("cells", [16, 64, 1024])
def test_flat_left_launch_reproduces_sine(q_zero, cells):
    traj = propagate(q_zero, 1.0, left_conditions(PI), cells)
    for x in np.linspace(0.0, PI, 17):
        v = traj.value(x)
        assert v[0] == pytest.approx(math.sin(x), abs=1e-12)
        assert v[1] == pytest.approx(math.cos(x), abs=1e-12)


def test_flat_right_launch_mirror(q_zero):
    traj = propagate(q_zero, 1.0, right_conditions(0.0), 64)
    for x in np.linspace(0.0, PI, 17):
        assert traj.value(x)[0] == pytest.approx(math.sin(PI - x), abs=1e-12)


@pytest.mark.parametrize("cells", [16, 256, 4096])
def test_constant_potential_exact_any_cells(q_const5, cells):
    # mu - q = 4 everywhere: y = sin(2x)/2 for Dirichlet launch data
    traj = propagate(q_const5, 9.0, left_conditions(PI), cells)
    states = traj.true_states()
    ys = np.sin(2.0 * traj.mesh) / 2.0
    yps = np.cos(2.0 * traj.mesh)
    assert np.abs(states[:, 0] - ys).max() < 1e-12
    assert np.abs(states[:, 1] - yps).max() < 1e-12


def test_hyperbolic_regime_exact(q_zero):
    # mu = -4: y(0)=0, y'(0)=1 -> sinh(2x)/2
    traj = propagate(q_zero, -4.0, left_conditions(PI), 256)
    x = 2.0
    v = traj.value(x)
    assert v[0] == pytest.approx(math.sinh(2 * x) / 2.0, rel=1e-13)
    assert v[1] == pytest.approx(math.cosh(2 * x), rel=1e-13)


def test_variational_against_finite_difference(q_cos2x):
    # dy/dmu at pi versus a central difference on the same propagator
    mu, h = 1.0, 1e-5
    ic = left_conditions(PI)
    traj = propagate(q_cos2x, mu, ic, 2048)
    plus = propagate(q_cos2x, mu + h, ic, 2048, variational=False)
    minus = propagate(q_cos2x, mu - h, ic, 2048, variational=False)
    fd = (plus.true_states()[-1, 0] - minus.true_states()[-1, 0]) / (2 * h)
    assert traj.true_states()[-1, 2] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("side,angle", [("left", PI), ("left", PI / 3), ("right", 0.0),
                                        ("right", 2 * PI / 3)])
def test_wronskian_identity_along_mesh(q_cos2x, side, angle):
    ic = EndpointConditions(side, angle)
    traj = propagate(q_cos2x, 7.0, ic, 512)
    st_ = traj.true_states()
    wr = st_[:, 1] * st_[:, 2] - st_[:, 3] * st_[:, 0]
    if side == "right":
        wr = -wr
    ref = np.maximum(1.0, traj.cum_square)
    assert np.abs(wr - traj.cum_square).max() / ref.max() < 1e-10


def test_phase_flat_against_ode_oracle(q_zero):
    got = terminal_phase(q_zero, 1.0, left_conditions(PI), 256).theta_terminal
    want = phase_ode_terminal(lambda x: 0.0, 1.0, PI)
    assert got == pytest.approx(want, abs=1e-8)
    assert got == pytest.approx(PI, abs=1e-12)
    got4 = terminal_phase(q_zero, 4.0, left_conditions(PI), 256).theta_terminal
    assert got4 == pytest.approx(2 * PI, abs=1e-12)


def test_phase_cosine_against_ode_oracle(q_cos2x):
    # the propagated phase is exact for the cell-averaged potential, which
    # differs from the true one by O(cells**-2)
    for mu in (0.7, 5.0, 26.0):
        got = terminal_phase(q_cos2x, mu, left_conditions(2.0), 2048).theta_terminal
        want = phase_ode_terminal(lambda x: math.cos(2 * x), mu, 2.0)
        assert got == pytest.approx(want, abs=2e-6)


def test_phase_spectral_shift(q_const5, q_zero):
    for mu in (-3.0, 2.0, 17.0):
        a = terminal_phase(q_const5, mu, left_conditions(1.0), 128).theta_terminal
        b = terminal_phase(q_zero, mu - 5.0, left_conditions(1.0), 128).theta_terminal
        assert a == pytest.approx(b, abs=1e-12)


def test_phase_monotone_in_mu(q_step):
    mus = np.linspace(-8.0, 40.0, 60)
    thetas = [terminal_phase(q_step, m, left_conditions(3 * PI / 4), 256).theta_terminal
              for m in mus]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    # right-launched phase decreases in mu
    thetas_r = [terminal_phase(q_step, m, right_conditions(PI / 4), 256).theta_terminal
                for m in mus]
    assert all(b < a for a, b in zip(thetas_r, thetas_r[1:]))


def test_phase_record_and_profile(q_zero):
    ic = left_conditions(PI)
    rec = terminal_phase(q_zero, 4.0, ic, 64)
    assert rec.direction == "left"
    assert rec.theta_terminal == pytest.approx(2 * PI, abs=1e-12)
    _, _, w_visit, s_visit = _visit_arrays(q_zero, 4.0, ic, 64)
    v0 = ic.initial_state()
    f = _cell_functions(w_visit, s_visit, False, False)
    states, _ = _propagate_states(f, w_visit, s_visit, np.array(v0))
    theta = _phase_profile(states, w_visit, s_visit, math.atan2(*v0))
    # lifting never jumps by more than pi between mesh neighbours
    assert np.abs(np.diff(theta)).max() < PI
    assert theta[-1] == rec.theta_terminal


def _phase_slope(rec):
    # Wronskian identity: d(theta)/dmu = +-int y^2 / (y^2 + y'^2) at the far end
    sign = 1.0 if rec.direction == "left" else -1.0
    return sign * rec.square / (rec.y ** 2 + rec.yp ** 2)


@pytest.mark.parametrize("name", ["q_zero", "q_const5", "q_cos2x", "q_step", "q_singular"])
def test_phase_slope_matches_central_difference(request, name):
    q = request.getfixturevalue(name)
    for ic in (left_conditions(2.0), right_conditions(1.0)):
        for mu in (-6.0, 7.3, 60.0):
            h = 1e-5 * max(1.0, abs(mu))
            fd = (terminal_phase(q, mu + h, ic, 512).theta_terminal
                  - terminal_phase(q, mu - h, ic, 512).theta_terminal) / (2 * h)
            assert _phase_slope(terminal_phase(q, mu, ic, 512)) == pytest.approx(fd, rel=1e-6)


def test_phase_slope_finite_under_log_scales(q_zero):
    # deep enough that the running integral in the true scale overflows; the
    # far-end scale keeps the slope finite
    ic = left_conditions(0.002)
    rec = terminal_phase(q_zero, -30000.0, ic, 4096)
    slope = _phase_slope(rec)
    assert math.isfinite(slope) and slope > 0.0
    fd = (terminal_phase(q_zero, -29999.7, ic, 4096).theta_terminal
          - terminal_phase(q_zero, -30000.3, ic, 4096).theta_terminal) / 0.6
    assert slope == pytest.approx(fd, rel=1e-6)


def test_phase_continuous_where_y_prime_vanishes(q_const5):
    # mu = 105 is the n = 10 Neumann level of q = 5, so y'(pi) is at roundoff
    # level there; the lifted phase must not jump by pi on either side
    ic = left_conditions(PI / 2)
    for mu in (105.0 - 1.4e-14, 105.0, 105.0 + 1.4e-14):
        theta = terminal_phase(q_const5, mu, ic, 1024).theta_terminal
        assert theta == pytest.approx(10.5 * PI, abs=1e-9)


@given(mu=st.floats(-20.0, 60.0), angle=st.floats(0.05, PI))
@settings(max_examples=30, deadline=None)
def test_phase_matches_sign_structure(q_cos2x, mu, angle):
    # the number of sign changes of y equals the number of half-turns the
    # lifted phase completes
    ic = left_conditions(angle)
    traj = propagate(q_cos2x, mu, ic, 512, variational=False)
    theta_end = terminal_phase(q_cos2x, mu, ic, 512).theta_terminal
    y = traj.true_states()[:, 0]
    sign_changes = int(np.sum(y[:-1] * y[1:] < 0))
    k0 = math.floor(math.atan2(*ic.initial_state()) / PI)
    crossings = math.floor(theta_end / PI) - k0
    assert abs(crossings - sign_changes) <= 1


def test_refinement_convergence_second_order(q_cos2x):
    ref = propagate(q_cos2x, 11.0, left_conditions(2.0), 16384, variational=False)
    ref_end = ref.true_states()[-1]
    errs = []
    for cells in (512, 1024, 2048):
        t = propagate(q_cos2x, 11.0, left_conditions(2.0), cells, variational=False)
        end = t.true_states()[-1]
        errs.append(float(np.hypot(*(end - ref_end))))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def _scan_cases(q_cos2x, q_zero, q_singular):
    """(label, w, s) runs for the scan: the visit arrays of a launch, or
    hand-made cells."""
    def visit(q, mu, ic, cells):
        _, _, w, s = _visit_arrays(q, mu, ic, cells)
        return w, s

    yield "mixed, 300 cells (padded blocks)", 7.0 - np.linspace(-3, 9, 300), \
        np.diff(np.linspace(0.0, PI, 301))
    yield "trigonometric", *visit(q_cos2x, 50.0, left_conditions(2.0), 4096)
    yield "right launch", *visit(q_cos2x, 7.0, right_conditions(1.0), 1000)
    yield "log scales", *visit(q_zero, -9000.0, left_conditions(PI), 4096)
    yield "x^-0.5 refined mesh", *visit(q_singular, 20.0, left_conditions(1.2), 2048)
    yield "fewer cells than the smallest block", np.array([3.0, -2.0, 5.0, 0.0, 1.0]), \
        np.full(5, 0.3)
    # sqrt(1e6) * 0.2 = 200 per cell, so 300 / max_cell_log allows one cell a block
    yield "block of one", np.full(20, -1e6), np.full(20, 0.2)


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
    return _normalize_points(states, sig_pts, np.abs(states).max(axis=1))


def test_scan_matches_sequential_reference(q_cos2x, q_zero, q_singular):
    # the blocked struct-of-arrays scan against one-cell-at-a-time products of
    # the (n, k, k) cell matrices, plain and variational, state by state in
    # the true scale
    for label, w, s in _scan_cases(q_cos2x, q_zero, q_singular):
        for v0 in (np.array([0.5, -0.8]), np.array([0.5, -0.8, 0.3, -0.1])):
            variational = len(v0) == 4
            f = _cell_functions(w, s, variational, False)
            fast, sig_f = _propagate_states(f, w, s, v0)
            slow, sig_s = _states_sequential(_cell_matrices(w, s, variational), v0)
            a = fast * np.exp(sig_f - sig_s)[:, None]
            err = np.abs(a - slow).max(axis=1) / np.abs(slow).max(axis=1)
            assert err.max() < 1e-10, (label, variational)
            if label in ("log scales", "block of one"):
                assert sig_f[-1] > 200.0


def test_deep_hyperbolic_probe_no_overflow(q_zero):
    # the launch direction sits near the decaying one; the block carry's log
    # rescaling keeps the phase finite and small
    th = terminal_phase(q_zero, -4000.0, left_conditions(PI / 4 + 1e-3), 64).theta_terminal
    assert math.isfinite(th)
    assert 0.0 < th < PI


@pytest.mark.parametrize("side,angle", [("left", 2.0), ("right", 1.0)])
def test_square_integral_against_quadrature(q_step, side, angle):
    # the cell-exact running integral of y^2 must agree with brute-force
    # quadrature of the densely evaluated solution
    ic = EndpointConditions(side, angle)
    traj = propagate(q_step, 6.5, ic, 256)
    from slzeros.shooting import square_integral_from_launch
    for a in (0.7, 1.9, 2.8):
        lo, hi = (0.0, a) if side == "left" else (a, PI)
        xs = np.linspace(lo, hi, 20001)
        ys = np.array([traj.value(x)[0] for x in xs])
        quad = np.trapezoid(ys ** 2, xs)
        assert square_integral_from_launch(traj, a) == pytest.approx(quad, rel=1e-6)


def test_dense_eval_matches_finer_mesh(q_cos2x):
    coarse = propagate(q_cos2x, 13.0, left_conditions(2.5), 256, variational=False)
    fine = propagate(q_cos2x, 13.0, left_conditions(2.5), 8192, variational=False)
    for x in (0.123, 1.0, 2.2, 3.0):
        a = coarse.value(x)
        b = fine.value(x)
        assert a[0] == pytest.approx(b[0], abs=5e-5)
        assert a[1] == pytest.approx(b[1], abs=5e-4)


def test_mesh_too_coarse(q_zero):
    with pytest.raises(MeshTooCoarse):
        propagate(q_zero, 1.0, left_conditions(PI), 8)


def test_nonfinite_reports_cell(q_zero):
    with pytest.raises(NonFinite):
        propagate(q_zero, -1.6e7, left_conditions(PI), 16, variational=False)


def test_singular_mesh_refined(q_singular):
    traj = propagate(q_singular, 1.0, left_conditions(PI), 64, variational=False)
    assert len(traj.mesh) == 64 + 32 + 1
    assert traj.mesh[1] < 1e-9  # geometric refinement reaches the origin

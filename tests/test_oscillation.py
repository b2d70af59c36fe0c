import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slzeros import oscillation, potential, spectrum
from slzeros.errors import CountMismatch, SlopeUnderflow
from slzeros.oscillation import (
    _DEDUP,
    _END_FUZZ,
    _SLOPE_FLOOR,
    _ZERO_TOL,
    ZeroRecord,
    _cell_root_candidates,
    _polish,
    _scalar_basis,
    canonical_zero_records,
    find_zeros,
    identity_residual,
    pair_velocity_records,
    proportionality_residual,
    velocity_records,
)
from slzeros.shooting import (
    _cell_frame,
    left_conditions,
    propagate,
    right_conditions,
    square_integral_from_launch,
    terminal_phase,
)
from slzeros.spectrum import BoundaryParams, find_eigenvalue

from .oracles import dirichlet_matrix_eigenvector

PI = math.pi
DD = BoundaryParams(PI, 0.0)


@pytest.mark.parametrize("n", range(6))
def test_flat_dirichlet_zeros(q_zero, n):
    traj = propagate(q_zero, (n + 1) ** 2, left_conditions(PI), 512, variational=False)
    records = find_zeros(traj)
    want = [PI * k / (n + 1) for k in range(n + 2)]
    assert len(records) == len(want)
    for r, x in zip(records, want):
        assert r.x == pytest.approx(x, abs=1e-10)
    assert [r.k for r in records] == list(range(n + 2))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_flat_neumann_zeros(q_zero, n):
    traj = propagate(q_zero, float(n * n), left_conditions(PI / 2), 512, variational=False)
    records = find_zeros(traj)
    want = [(k + 0.5) * PI / n for k in range(n)]
    assert len(records) == len(want)
    for r, x in zip(records, want):
        assert r.x == pytest.approx(x, abs=1e-10)


def test_cosine_zero_count_matches_matrix_eigenvector(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 3, DD, 2048)
    records = canonical_zero_records(q_cos2x, pair.mu, DD, 2048)
    interior = [r for r in records if 0.0 < r.x < PI]
    assert len(interior) == 3
    assert records[0].x == 0.0 and records[-1].x == PI
    xs, vec = dirichlet_matrix_eigenvector(lambda x: math.cos(2 * x), 3)
    oracle_changes = int(np.sum(vec[:-1] * vec[1:] < 0))
    assert oracle_changes == 3


def test_count_examples(q_zero, q_singular, q_step):
    for q, n, bc in [(q_zero, 4, DD), (q_singular, 4, BoundaryParams(PI / 3, PI / 5)),
                     (q_step, 0, BoundaryParams(PI / 2, PI / 2))]:
        zeros = find_eigenvalue(q, n, bc, 512).zeros
        assert sum(1 for x in zeros if 0.0 < x < PI) == n


def test_slopes_are_simple(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 5, DD, 1024)
    for r in canonical_zero_records(q_cos2x, pair.mu, DD, 1024):
        assert abs(r.slope) > 1e-6


def _velocity(q, pair, k, cells, side):
    """dx/dmu of the k-th zero of the eigenpair's launch on side: ordinals
    ascend from 0 for the left launch and descend from pi for the right."""
    return next(r.velocity for r in pair_velocity_records(q, pair, cells, side) if r.k == k)


@pytest.mark.parametrize("n", range(4))
def test_flat_velocity_closed_form(q_zero, n):
    pair = find_eigenvalue(q_zero, n, DD, 1024)
    for k in range(n + 2):
        got = _velocity(q_zero, pair, k, 1024, "left")
        want = -PI * k / (2.0 * (n + 1) ** 3)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_pinned_zero_has_zero_velocity(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 2, DD, 1024)
    assert _velocity(q_cos2x, pair, 0, 1024, "left") == 0.0
    assert _velocity(q_cos2x, pair, 0, 1024, "right") == 0.0  # k=0 is the zero at pi


def test_flat_psi_velocity_mirror(q_zero):
    pair = find_eigenvalue(q_zero, 0, DD, 1024)
    # rightmost zero (k=0) sits at pi and is pinned; the k=1 zero at 0 moves
    assert _velocity(q_zero, pair, 0, 1024, "right") == 0.0
    assert _velocity(q_zero, pair, 1, 1024, "right") == pytest.approx(PI / 2, rel=1e-10)


def test_velocity_signs(q_cos2x):
    bc = BoundaryParams(PI / 2, PI / 3)
    pair = find_eigenvalue(q_cos2x, 3, bc, 1024)
    for r in velocity_records(q_cos2x, pair.mu, bc, 1024, side="left"):
        assert r.velocity < 0.0
    for r in velocity_records(q_cos2x, pair.mu, bc, 1024, side="right"):
        assert r.velocity > 0.0


def test_velocity_fd_oracle_spot(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 2, DD, 2048)
    h = 1e-6
    v = _velocity(q_cos2x, pair, 1, 2048, "left")
    zs = {}
    for sgn in (-1, 1):
        t = propagate(q_cos2x, pair.mu + sgn * h, left_conditions(PI), 2048,
                      variational=False)
        zs[sgn] = [r.x for r in find_zeros(t)]
    x0 = pair.zeros[1]
    xp = min(zs[1], key=lambda x: abs(x - x0))
    xm = min(zs[-1], key=lambda x: abs(x - x0))
    fd = (xp - xm) / (2 * h)
    assert v == pytest.approx(fd, rel=1e-4)


def test_velocities_of_a_launch_with_a_spurious_zero_are_refused():
    # on this deep well each launch alone has a fifth interior zero past the
    # far barrier, which the n = 4 eigenpair does not contain
    q = potential.step(-3000.0, 1.0, 2.0)
    pair = find_eigenvalue(q, 4, BoundaryParams(PI / 2, 0.3), 4096)
    assert sum(1 for x in pair.zeros if 0.0 < x < PI) == 4
    for side in ("left", "right"):
        with pytest.raises(CountMismatch) as info:
            pair_velocity_records(q, pair, 4096, side)
        assert (info.value.expected, info.value.found) == (4, 5)


def test_proportionality_flat(q_zero):
    p0 = find_eigenvalue(q_zero, 0, DD, 512)
    p1 = find_eigenvalue(q_zero, 1, DD, 512)
    assert p0.c_n == pytest.approx(1.0, rel=1e-9)
    assert p1.c_n == pytest.approx(-1.0, rel=1e-9)


def test_proportionality_residual(q_cos2x):
    bc = BoundaryParams(PI / 2, PI / 4)
    pair = find_eigenvalue(q_cos2x, 3, bc, 2048)
    c, resid, scale = proportionality_residual(q_cos2x, pair, 2048)
    assert c != 0.0
    assert resid <= 1e-8 * scale


def test_identity_residual_examples(q_zero, q_cos2x):
    traj = propagate(q_zero, 1.0, left_conditions(PI), 512)
    assert identity_residual(traj, PI) < 1e-12
    traj2 = propagate(q_cos2x, 7.0, left_conditions(PI), 512)
    assert identity_residual(traj2, PI / 2) < 1e-8
    # at the launch endpoint both sides vanish identically
    assert identity_residual(traj2, 0.0) == 0.0
    traj3 = propagate(q_cos2x, 7.0, right_conditions(1.0), 512)
    assert identity_residual(traj3, PI) == 0.0
    assert identity_residual(traj3, 0.3) < 1e-8


def test_count_mismatch_payload():
    err = CountMismatch("detector", expected=3, found=2)
    assert err.expected == 3 and err.found == 2


def test_identity_requires_variational_data(q_zero):
    traj = propagate(q_zero, 1.0, left_conditions(PI), 64, variational=False)
    with pytest.raises(ValueError):
        identity_residual(traj, 1.0)


@given(mu=st.floats(0.5, 80.0), angle=st.floats(0.3, PI - 0.3))
@settings(max_examples=40, deadline=None)
def test_zero_count_matches_phase_lifting(q_step, mu, angle):
    # zeros in (0, pi] correspond one-to-one to multiples of pi crossed by
    # the continuous phase; stay away from grazing configurations
    theta_end = terminal_phase(q_step, mu, left_conditions(angle), 256).theta_terminal
    assume(abs(theta_end / PI - round(theta_end / PI)) > 1e-3)
    traj = propagate(q_step, mu, left_conditions(angle), 256, variational=False)
    records = find_zeros(traj)
    assert len(records) == math.floor(theta_end / PI)


# -- the sign-change candidate rule against the near-edge rule it replaced -------

def _near_edge_reference(traj):
    """find_zeros with the near-edge candidate rule: every cell with a sign
    change, a half turn, or an end value within 1e-9 of the largest stored
    |y| is searched.  The rule compares stored values across log scales, so
    on deep hyperbolic solutions it searches most of the mesh; kept as the
    reference the exact rule must reproduce record for record."""
    mesh, states = traj.mesh, traj.states
    ym = states[:, 0]
    near_edge = np.abs(ym) <= max(float(np.abs(ym).max()), 1e-300) * 1e-9
    widths = np.diff(mesh)
    candidates = ym[:-1] * ym[1:] < 0.0
    candidates |= near_edge[:-1] | near_edge[1:]
    candidates |= np.sqrt(np.maximum(traj.w, 0.0)) * widths > math.pi
    left = traj.direction == "left"
    found = []
    for i in np.nonzero(candidates)[0]:
        edge, x_edge = _cell_frame(traj, int(i))
        y0, yp0 = float(states[edge, 0]), float(states[edge, 1])
        h = float(widths[i])
        s_lo, s_hi = (-_END_FUZZ, h + _END_FUZZ) if left else (-h - _END_FUZZ, _END_FUZZ)
        amp = max(abs(y0), abs(yp0) * h, abs(float(states[edge + (1 if left else -1), 0])))
        w = float(traj.w[i])
        for s in _cell_root_candidates(y0, yp0, w, s_lo, s_hi):
            s = _polish(y0, yp0, w, s, s_lo, s_hi)
            c, S, cp = _scalar_basis(w, s)
            if abs(y0 * c + yp0 * S) > _ZERO_TOL * max(amp, 1e-300):
                continue
            found.append((min(max(x_edge + s, 0.0), PI), y0 * cp + yp0 * c,
                          float(traj.log_scale[edge])))
    found.sort(key=lambda t: t[0])
    dedup = []
    for item in found:
        if not dedup or item[0] - dedup[-1][0] >= _DEDUP:
            dedup.append(item)
    if left and traj.ic.angle == PI:
        dedup = [z for z in dedup if z[0] >= _DEDUP]
        dedup.insert(0, (0.0, float(states[0, 1]), float(traj.log_scale[0])))
    if not left and traj.ic.angle == 0.0:
        dedup = [z for z in dedup if z[0] <= PI - _DEDUP]
        dedup.append((PI, float(states[-1, 1]), float(traj.log_scale[-1])))
    records = []
    for idx, (x, slope, sigma) in enumerate(dedup):
        with np.errstate(over="ignore"):
            slope = slope * math.exp(sigma) if sigma != 0.0 else slope
        if abs(slope) < _SLOPE_FLOOR:
            raise SlopeUnderflow(f"zero at x={x} has |slope|={abs(slope):.3e}")
        k = idx if left else len(dedup) - 1 - idx
        records.append(ZeroRecord(x=x, k=k, slope=float(slope), side=traj.direction))
    return records


# one spectral parameter in each of the trajectory workload's bands: deep
# hyperbolic (log scales engaged), shallow hyperbolic, then up to about 40
# oscillations
BAND_MUS = (-9137.25, -17.5, 43.125, 318.75, 1207.5)
LAUNCHES = (("left", PI), ("left", 1.3), ("right", 0.0), ("right", 2.1))


@pytest.mark.parametrize("qname", ["q_zero", "q_const5", "q_cos2x", "q_step", "q_singular"])
def test_sign_change_rule_matches_near_edge_reference(qname, request):
    q = request.getfixturevalue(qname)
    for cells in (4096, 16384):
        for mu in BAND_MUS:
            for side, angle in LAUNCHES:
                ic = left_conditions(angle) if side == "left" else right_conditions(angle)
                traj = propagate(q, mu, ic, cells, variational=False)
                assert find_zeros(traj) == _near_edge_reference(traj), (cells, mu, side, angle)


def test_deep_hyperbolic_solution_searches_end_cells_only(q_cos2x, monkeypatch):
    # 15,245 of the 16,385 stored |y| lie within 1e-9 of the largest, which
    # the near-edge rule took for zeros about to happen
    searched = []

    def counted(*args):
        searched.append(args)
        return _cell_root_candidates(*args)

    monkeypatch.setattr(oscillation, "_cell_root_candidates", counted)
    for ic in (left_conditions(PI / 2), right_conditions(PI / 2)):
        traj = propagate(q_cos2x, -9000.0, ic, 16384, variational=False)
        searched.clear()
        assert find_zeros(traj) == [] == _near_edge_reference(traj)
        assert len(searched) == 2, ic  # the first and the last cell


@pytest.mark.parametrize("qname", ["q_zero", "q_const5", "q_cos2x", "q_step", "q_singular"])
def test_zero_at_pi_of_beta_zero_eigenfunctions(qname, request):
    # the left launch at an eigenvalue with beta = 0 has its last root at pi
    # up to roundoff, possibly just past it, where only the last cell sees it
    q = request.getfixturevalue(qname)
    for alpha in (PI, PI / 2, 2.3):
        for n in (0, 1, 4, 9):
            mu = find_eigenvalue(q, n, BoundaryParams(alpha, 0.0), 4096).mu
            traj = propagate(q, mu, left_conditions(alpha), 4096, variational=False)
            assert find_zeros(traj) == _near_edge_reference(traj), (alpha, n)


@pytest.mark.parametrize("r", [0, 14])
def test_deep_well_left_launches_match_reference(r):
    q = potential.step(-3000.0, 1.0, 2.0)
    beta = 0.3 + r * 1e-9
    for n in range(5):
        mu = spectrum._locate_mu(q, n, PI / 2, beta, 4096)
        traj = propagate(q, mu, left_conditions(PI / 2), 4096, variational=False)
        assert find_zeros(traj) == _near_edge_reference(traj), n


@pytest.mark.parametrize("qname", ["q_zero", "q_const5", "q_cos2x", "q_step", "q_singular"])
def test_velocity_records_use_the_per_zero_integral(qname, request):
    q = request.getfixturevalue(qname)
    for mu in BAND_MUS:
        for side, angle in LAUNCHES:
            bc = BoundaryParams(angle, 1.0) if side == "left" else BoundaryParams(1.0, angle)
            ic = left_conditions(angle) if side == "left" else right_conditions(angle)
            traj = propagate(q, mu, ic, 4096, variational=True)
            want = []
            for r in canonical_zero_records(q, mu, bc, 4096, side=side, traj=traj):
                integral = square_integral_from_launch(traj, r.x)
                v = -integral / (r.slope * r.slope) if side == "left" else integral / r.slope ** 2
                want.append(replace(r, velocity=v))
            assert velocity_records(q, mu, bc, 4096, side=side) == want, (mu, side, angle)

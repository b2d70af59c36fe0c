import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzeros import potential, spectrum
from slzeros.errors import BracketFailure, DomainMismatch
from slzeros.shooting import left_conditions, min_cell_average, terminal_phase
from slzeros.spectrum import (
    BoundaryParams,
    EvfCoordinates,
    _characteristic_and_derivative,
    characteristic,
    characteristic_with_scale,
    eigenvalue_bracket,
    evf,
    evf_grid,
    find_eigenvalue,
)

from .oracles import dirichlet_matrix_eigenvalues, flat_eigenvalue

PI = math.pi
DD = BoundaryParams(PI, 0.0)


def test_boundary_params_validation():
    with pytest.raises(DomainMismatch):
        BoundaryParams(0.0, 0.0)
    with pytest.raises(DomainMismatch):
        BoundaryParams(PI, PI)
    BoundaryParams(PI, 0.0)


def test_characteristic_closed_forms(q_zero):
    assert characteristic(q_zero, 1.0, DD, 256) == pytest.approx(0.0, abs=1e-12)
    dn = BoundaryParams(PI, PI / 2)
    assert characteristic(q_zero, 2.25, dn, 256) == pytest.approx(0.0, abs=1e-12)
    want = -math.sin(math.sqrt(2.0) * PI) / math.sqrt(2.0)
    assert characteristic(q_zero, 2.0, DD, 256) == pytest.approx(want, abs=1e-9)


def test_characteristic_scale_is_zero_at_moderate_mu(q_zero):
    _, logscale = characteristic_with_scale(q_zero, 2.0, DD, 256)
    assert logscale == 0.0


def test_flat_dirichlet_spectrum(q_zero):
    for n in range(9):
        pair = find_eigenvalue(q_zero, n, DD, 1024)
        assert pair.mu == pytest.approx((n + 1) ** 2, rel=1e-10)


def test_flat_neumann_spectrum(q_zero):
    nn = BoundaryParams(PI / 2, PI / 2)
    for n in range(6):
        pair = find_eigenvalue(q_zero, n, nn, 1024)
        assert pair.mu == pytest.approx(n * n, rel=1e-9, abs=1e-9)


def test_constant_shift(q_const5):
    for n in range(4):
        pair = find_eigenvalue(q_const5, n, DD, 1024)
        assert pair.mu == pytest.approx((n + 1) ** 2 + 5.0, rel=1e-10)


def test_cosine_ground_state_against_matrix_oracle(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 0, DD, 4096)
    want = dirichlet_matrix_eigenvalues(lambda x: math.cos(2 * x), 1, m=20000)[0]
    assert pair.mu == pytest.approx(float(want), rel=1e-5)


def test_general_bc_against_flat_oracle(q_zero):
    for alpha, beta, n in [(PI / 4, PI / 2, 2), (3 * PI / 4, 3 * PI / 4, 0),
                           (PI / 2, 3 * PI / 4, 4), (PI, 3 * PI / 4, 1)]:
        pair = find_eigenvalue(q_zero, n, BoundaryParams(alpha, beta), 1024)
        want = flat_eigenvalue(n, alpha, beta)
        assert pair.mu == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_eigenvalue_ordering(q_step):
    bc = BoundaryParams(3 * PI / 4, PI / 4)
    mus = [find_eigenvalue(q_step, n, bc, 512).mu for n in range(11)]
    assert all(b > a for a, b in zip(mus, mus[1:]))


def test_characteristic_changes_sign_across_bracket(q_cos2x):
    bc = BoundaryParams(2.0, 1.0)
    for n in range(5):
        lo, hi = eigenvalue_bracket(q_cos2x, n, bc, 512)
        assert characteristic(q_cos2x, lo, bc, 512) * characteristic(q_cos2x, hi, bc, 512) < 0


def test_newton_stays_inside_bracket(q_cos2x):
    bc = BoundaryParams(2.0, 1.0)
    pair = find_eigenvalue(q_cos2x, 3, bc, 512)
    lo, hi = eigenvalue_bracket(q_cos2x, 3, bc, 512)
    assert lo <= pair.mu <= hi


# -- the Newton search against the bisection it replaced ----------------------

SEARCH_BCS = [(PI, 0.0), (PI / 2, PI / 2), (2.0, 1.0), (0.6, 2.5)]
SEARCH_NS = (0, 1, 2, 5, 10, 20, 39)
SEARCH_CELLS = 1024


def _bisection_reference(q, n, alpha, beta, cells):
    """Phase bracketing, bisection to a 1e-12 relative width and a Newton
    polish on the characteristic function: the eigenvalue search as it was
    before the phase slope was used."""
    bc = BoundaryParams(alpha, beta)
    ic = left_conditions(alpha)
    target = (n + 1) * PI - beta

    def phase(mu):
        return terminal_phase(q, mu, ic, cells).theta_terminal

    lo = min_cell_average(q, cells) - 1.0
    hi = (n + 2) ** 2 + q.l1_norm + 1.0
    th_lo, th_hi = phase(lo), phase(hi)
    for _ in range(8):
        if th_lo < target < th_hi:
            break
        width = hi - lo
        if th_lo >= target:
            lo -= width
            th_lo = phase(lo)
        if th_hi <= target:
            hi += width
            th_hi = phase(hi)
    assert th_lo < target < th_hi
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-12 * max(1.0, abs(mid)):
        mid = 0.5 * (lo + hi)
        if phase(mid) < target:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    for _ in range(5):
        psi, dpsi = _characteristic_and_derivative(q, mu, bc, cells)
        if dpsi == 0.0:
            break
        mu_new = min(max(mu - psi / dpsi, lo), hi)
        done = abs(mu_new - mu) <= 1e-13 * max(1.0, abs(mu_new))
        mu = mu_new
        if done:
            break
    return mu


@pytest.fixture(scope="module")
def newton_solves(q_zero, q_const5, q_cos2x, q_step, q_singular):
    """(q, n, alpha, beta, mu, phase evaluations) for every solve of the matrix."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return terminal_phase(*args, **kwargs)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "terminal_phase", counted)
        for q in (q_zero, q_const5, q_cos2x, q_step, q_singular):
            for alpha, beta in SEARCH_BCS:
                for n in SEARCH_NS:
                    spectrum._locate_mu.cache_clear()
                    calls.clear()
                    mu = spectrum._locate_mu(q, n, alpha, beta, SEARCH_CELLS)
                    out.append((q, n, alpha, beta, mu, len(calls)))
    spectrum._locate_mu.cache_clear()
    return out


def test_newton_matches_bisection_reference(newton_solves):
    for q, n, alpha, beta, mu, _ in newton_solves:
        want = _bisection_reference(q, n, alpha, beta, SEARCH_CELLS)
        assert abs(mu - want) <= 1e-12 * max(1.0, abs(want)), (q, n, alpha, beta)


def test_newton_phase_evaluations(newton_solves):
    evals = [e for *_, e in newton_solves]
    assert np.mean(evals) <= 10.0
    assert max(evals) <= 30


def test_bracket_failure_for_extreme_boundary(q_zero):
    # alpha near 0 puts the ground state around -cot(alpha)**2 ~ -1e18,
    # far outside any probe expansion
    with pytest.raises(BracketFailure):
        find_eigenvalue(q_zero, 0, BoundaryParams(1e-9, 0.0), 64)


# -- eigenvalues function ---------------------------------------------------


def test_evf_coordinate_validation():
    with pytest.raises(DomainMismatch):
        EvfCoordinates(1e-9, 0.0)
    with pytest.raises(DomainMismatch):
        EvfCoordinates(1.0, PI)


def test_evf_decomposition_examples():
    alpha, n, beta, m = EvfCoordinates(2 * PI, 0.0).decompose()
    assert (alpha, n, beta, m) == (PI, 1, 0.0, 0)
    alpha, n, beta, m = EvfCoordinates(PI, -PI).decompose()
    assert (alpha, n, beta, m) == (PI, 0, 0.0, 1)
    alpha, n, beta, m = EvfCoordinates(PI / 2, PI / 2).decompose()
    assert (alpha, n, beta, m) == (PI / 2, 0, PI / 2, 0)


@given(st.floats(0.01, 4 * PI), st.floats(-4 * PI, PI - 0.01))
@settings(max_examples=100, deadline=None)
def test_evf_decomposition_roundtrip(gamma, delta):
    alpha, n, beta, m = EvfCoordinates(gamma, delta).decompose()
    assert 0.0 < alpha <= PI and n >= 0
    assert 0.0 <= beta < PI and m >= 0
    assert alpha + PI * n == pytest.approx(gamma, rel=1e-12, abs=1e-12)
    assert beta - PI * m == pytest.approx(delta, rel=1e-12, abs=1e-12)


def test_evf_values(q_zero):
    assert evf(q_zero, EvfCoordinates(2 * PI, 0.0), 512) == pytest.approx(4.0, rel=1e-10)
    assert evf(q_zero, EvfCoordinates(PI, -PI), 512) == pytest.approx(4.0, rel=1e-10)
    assert evf(q_zero, EvfCoordinates(PI / 2, PI / 2), 512) == pytest.approx(0.0, abs=1e-9)


def test_evf_grid_column_and_row(q_zero):
    col = evf_grid(q_zero, [PI / 2, PI, 3 * PI / 2], [0.0], 512)[:, 0]
    assert col[0] < col[1] < col[2]
    row = evf_grid(q_zero, [PI], [-PI, -PI / 2, 0.0], 512)[0, :]
    assert row[0] == pytest.approx(4.0, rel=1e-10)
    assert row[1] == pytest.approx(2.25, rel=1e-10)  # Dirichlet-Neumann level
    assert row[2] == pytest.approx(1.0, rel=1e-10)
    assert row[0] > row[1] > row[2]


def test_evf_grid_singular_potential(q_singular):
    grid = evf_grid(q_singular, [PI, 2 * PI], [-PI, 0.0], 512)
    assert np.all(np.isfinite(grid))
    assert grid[1, 0] > grid[0, 0] and grid[0, 1] < grid[0, 0]


def test_evf_grid_rejects_bad_grid(q_zero):
    with pytest.raises(DomainMismatch):
        evf_grid(q_zero, [2.0, 1.0], [0.0], 256)


def test_table_potential_tracks_smooth_counterpart(q_cos2x):
    # a fine piecewise-linear table of cos(2x) must give nearly the same
    # ground state and the same zero counts
    xs = np.linspace(0.0, PI, 201)
    qtab = potential.table([(x, math.cos(2 * x)) for x in xs])
    mu_tab = find_eigenvalue(qtab, 0, DD, 1024).mu
    mu_smooth = find_eigenvalue(q_cos2x, 0, DD, 1024).mu
    assert mu_tab == pytest.approx(mu_smooth, abs=1e-3)
    from slzeros.oscillation import count_interior_zeros
    assert count_interior_zeros(qtab, 3, DD, 1024) == 3


def test_reflection_symmetry_of_symmetric_potential(q_cos2x):
    # cos(2x) is symmetric about pi/2, so swapping the boundary roles via
    # (alpha, beta) -> (pi - beta, pi - alpha) must preserve the spectrum
    for n, alpha, beta in [(0, PI / 3, PI / 5), (3, 2.0, 0.7), (5, PI, 0.4)]:
        a = find_eigenvalue(q_cos2x, n, BoundaryParams(alpha, beta), 1024).mu
        b = find_eigenvalue(q_cos2x, n, BoundaryParams(PI - beta, PI - alpha), 1024).mu
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_attractive_singularity_full_pipeline():
    # negative-amplitude integrable singularity: ground state goes negative,
    # counts, velocity signs, and identities must all still hold
    from slzeros.oscillation import (
        count_interior_zeros,
        identity_residual,
        velocity_records,
    )
    from slzeros.shooting import left_conditions, propagate

    q = potential.power(-5.0, -0.5)
    pair = find_eigenvalue(q, 0, DD, 2048)
    assert pair.mu < 0.0
    for n in (0, 3):
        assert count_interior_zeros(q, n, DD, 2048) == n
    bc = BoundaryParams(2.8, 0.4)
    pair = find_eigenvalue(q, 2, bc, 2048)
    assert all(r.velocity < 0 for r in velocity_records(q, pair.mu, bc, 2048, "left"))
    assert all(r.velocity > 0 for r in velocity_records(q, pair.mu, bc, 2048, "right"))
    traj = propagate(q, pair.mu, left_conditions(2.8), 2048)
    assert identity_residual(traj, 0.5) < 1e-8


def test_gamma_seam_continuity(q_cos2x):
    a = evf(q_cos2x, EvfCoordinates(PI + 1e-6, -1.0), 1024)
    b = evf(q_cos2x, EvfCoordinates(PI, -1.0), 1024)
    assert abs(a - b) < 1e-4


def test_beta_seam_identity(q_cos2x):
    hi = find_eigenvalue(q_cos2x, 3, BoundaryParams(PI, PI - 1e-4), 1024).mu
    lo = find_eigenvalue(q_cos2x, 2, BoundaryParams(PI, 0.0), 1024).mu
    assert abs(hi - lo) / max(1.0, abs(lo)) < 1e-3

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slzeros.errors import CountMismatch, IndexOutOfRange
from slzeros.oscillation import (
    canonical_zero_records,
    count_interior_zeros,
    find_zeros,
    identity_residual,
    proportionality_constant,
    proportionality_residual,
    velocity_records,
    zero_velocity_phi,
    zero_velocity_psi,
)
from slzeros.shooting import left_conditions, propagate, right_conditions, terminal_phase
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
    assert count_interior_zeros(q_zero, 4, DD, 512) == 4
    assert count_interior_zeros(q_singular, 4, BoundaryParams(PI / 3, PI / 5), 512) == 4
    assert count_interior_zeros(q_step, 0, BoundaryParams(PI / 2, PI / 2), 512) == 0


def test_slopes_are_simple(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 5, DD, 1024)
    for r in canonical_zero_records(q_cos2x, pair.mu, DD, 1024):
        assert abs(r.slope) > 1e-6


@pytest.mark.parametrize("n", range(4))
def test_flat_velocity_closed_form(q_zero, n):
    pair = find_eigenvalue(q_zero, n, DD, 1024)
    for k in range(n + 2):
        got = zero_velocity_phi(q_zero, pair, k, 1024)
        want = -PI * k / (2.0 * (n + 1) ** 3)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_pinned_zero_has_zero_velocity(q_cos2x):
    pair = find_eigenvalue(q_cos2x, 2, DD, 1024)
    assert zero_velocity_phi(q_cos2x, pair, 0, 1024) == 0.0
    assert zero_velocity_psi(q_cos2x, pair, 0, 1024) == 0.0  # k=0 is the zero at pi


def test_flat_psi_velocity_mirror(q_zero):
    pair = find_eigenvalue(q_zero, 0, DD, 1024)
    # rightmost zero (k=0) sits at pi and is pinned; the k=1 zero at 0 moves
    assert zero_velocity_psi(q_zero, pair, 0, 1024) == 0.0
    assert zero_velocity_psi(q_zero, pair, 1, 1024) == pytest.approx(PI / 2, rel=1e-10)


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
    v = zero_velocity_phi(q_cos2x, pair, 1, 2048)
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


def test_velocity_index_out_of_range(q_zero):
    pair = find_eigenvalue(q_zero, 1, DD, 512)
    with pytest.raises(IndexOutOfRange):
        zero_velocity_phi(q_zero, pair, 99, 512)


def test_proportionality_flat(q_zero):
    p0 = find_eigenvalue(q_zero, 0, DD, 512)
    p1 = find_eigenvalue(q_zero, 1, DD, 512)
    assert proportionality_constant(q_zero, p0, 512) == pytest.approx(1.0, rel=1e-9)
    assert proportionality_constant(q_zero, p1, 512) == pytest.approx(-1.0, rel=1e-9)


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

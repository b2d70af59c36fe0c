"""The benchmark's checks pass real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from slzeros import oscillation, parse_potential, spectrum  # noqa: E402
from slzeros.spectrum import BoundaryParams  # noqa: E402

PI = math.pi

EIGEN_CASES = [
    ({"kind": "zero"}, 3, 1.1, 2.3),                                # closed form
    ({"kind": "constant", "c": 5.0}, 2, PI, 0.0),                    # shifted closed form
    ({"kind": "cosine", "a": 1.0, "f": 2.0}, 4, PI / 2, PI / 2),     # Mathieu a_n(0.5)
    ({"kind": "step", "v": 10.0, "l": 1.0, "r": 2.0}, 3, PI, 0.7),   # phase ODE
    ({"kind": "power", "a": 1.0, "p": -0.5}, 2, 0.9, 0.0),           # phase ODE in t = x^(1/2)
]

TRAJECTORY_CASES = [
    ({"kind": "zero"}, 60.0, PI, 1.0, "left"),
    ({"kind": "cosine", "a": 1.0, "f": 2.0}, 150.0, 0.8, 0.0, "right"),
]


def _pair(spec, n, alpha, beta):
    return spectrum.find_eigenvalue(parse_potential(spec), n, BoundaryParams(alpha, beta))


def _trajectory(spec, mu, alpha, beta, side):
    q = parse_potential(spec)
    data = {"spec": spec, "q": q, "mu": mu, "alpha": alpha, "beta": beta,
            "cells": 4096, "side": side}
    return data, oscillation.velocity_records(q, mu, BoundaryParams(alpha, beta), 4096, side)


@pytest.mark.parametrize("spec,n,alpha,beta", EIGEN_CASES)
def test_eigen_check_accepts_program_and_rejects_perturbed_mu(spec, n, alpha, beta):
    pair = _pair(spec, n, alpha, beta)
    assert checks.eigenpair(spec, n, alpha, beta, pair) == []
    for rel in (1e-3, -1e-3):
        bad = replace(pair, mu=pair.mu + rel * max(1.0, abs(pair.mu)))
        assert checks.eigenpair(spec, n, alpha, beta, bad)


@pytest.mark.parametrize("spec,n,alpha,beta", EIGEN_CASES)
def test_eigen_check_rejects_dropped_zero(spec, n, alpha, beta):
    pair = _pair(spec, n, alpha, beta)
    zeros = list(pair.zeros)
    k = next(i for i, x in enumerate(zeros) if 0.0 < x < PI)
    bad = replace(pair, zeros=tuple(zeros[:k] + zeros[k + 1:]))
    assert checks.eigenpair(spec, n, alpha, beta, bad)


def test_increasing_in_n_rejects_a_swap():
    assert checks.increasing_in_n([(0, 1.0), (3, 16.0), (7, 64.0)]) == []
    assert checks.increasing_in_n([(0, 1.0), (3, 70.0), (7, 64.0)])


@pytest.mark.parametrize("spec,mu,alpha,beta,side", TRAJECTORY_CASES)
def test_velocity_check_accepts_program_and_rejects_flipped_sign(spec, mu, alpha, beta, side):
    data, records = _trajectory(spec, mu, alpha, beta, side)
    assert checks.velocity_records(data, records, full=True) == []
    k = next(i for i, r in enumerate(records) if 0.0 < r.x < PI)
    flipped = list(records)
    flipped[k] = replace(records[k], velocity=-records[k].velocity)
    assert checks.velocity_records(data, flipped, full=False)


@pytest.mark.parametrize("spec,mu,alpha,beta,side", TRAJECTORY_CASES)
def test_velocity_check_rejects_dropped_zero(spec, mu, alpha, beta, side):
    data, records = _trajectory(spec, mu, alpha, beta, side)
    k = next(i for i, r in enumerate(records) if 0.0 < r.x < PI)
    dropped = records[:k] + records[k + 1:]
    assert checks.velocity_records(data, dropped, full=True)


def test_identity_check_rejects_non_finite_integral():
    # below mu of about -12,700 the library's running integral of y^2 is nan
    data, _ = _trajectory({"kind": "zero"}, -30000.0, PI, 1.0, "left")
    assert any("non-finite" in e for e in checks._identity(data))
    data, _ = _trajectory({"kind": "zero"}, -9000.0, PI, 1.0, "left")
    assert checks._identity(data) == []

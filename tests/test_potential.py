import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzeros import potential
from slzeros.errors import (
    DomainMismatch,
    NonIntegrableExponent,
    NonMonotoneTable,
    UnknownKind,
)
from slzeros.potential import cell_averages, parse_potential

PI = math.pi


def test_parse_zero():
    q = parse_potential({"kind": "zero"})
    assert q.l1_norm == 0.0


def test_parse_power_l1():
    q = parse_potential({"kind": "power", "a": 1, "p": -0.5})
    assert q.l1_norm == pytest.approx(2.0 * math.sqrt(PI), rel=1e-14)


def test_parse_power_divergent():
    with pytest.raises(NonIntegrableExponent):
        parse_potential({"kind": "power", "a": 1, "p": -1})


def test_parse_json_string():
    q = parse_potential(json.dumps({"kind": "cosine", "a": 1.0, "f": 2.0}))
    assert q.kind == "cosine"


def test_parse_unknown_kind():
    with pytest.raises(UnknownKind):
        parse_potential({"kind": "gaussian"})


def test_parse_missing_param():
    with pytest.raises(DomainMismatch):
        parse_potential({"kind": "constant"})


def test_table_validation():
    with pytest.raises(NonMonotoneTable):
        potential.table([(0.0, 1.0), (2.0, 1.0), (1.0, 1.0), (PI, 1.0)])
    with pytest.raises(DomainMismatch):
        potential.table([(0.1, 1.0), (PI, 1.0)])
    with pytest.raises(DomainMismatch):
        potential.table([(0.0, 1.0), (3.0, 1.0)])


def test_step_validation():
    with pytest.raises(DomainMismatch):
        potential.step(1.0, 2.0, 1.0)


def _cell_average(q, a, b):
    return float(cell_averages(q, np.array([a, b]))[0])


def test_cell_average_examples(q_zero):
    assert _cell_average(q_zero, 0.0, PI) == 0.0
    assert _cell_average(potential.constant(3.0), 0.2, 0.9) == pytest.approx(3.0, abs=1e-14)
    q = potential.power(1.0, -0.5)
    assert _cell_average(q, 0.0, 0.25) == pytest.approx(4.0, rel=1e-14)


_KINDS = st.sampled_from([
    potential.constant(2.5),
    potential.cosine(1.0, 2.0),
    potential.cosine(-0.7, 3.3),
    potential.step(10.0, 1.0, 2.0),
    potential.power(1.0, -0.5),
    potential.power(2.0, 1.5),
    potential.table([(0.0, 1.0), (1.0, -2.0), (2.5, 0.5), (PI, 3.0)]),
])


@given(q=_KINDS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_cell_average_additive(q, data):
    a = data.draw(st.floats(0.0, PI - 1e-3))
    b = data.draw(st.floats(a + 1e-6, PI))
    m = data.draw(st.floats(a + 1e-9, b - 1e-9))
    whole = (b - a) * _cell_average(q, a, b)
    left, right = cell_averages(q, np.array([a, m, b]))
    parts = (m - a) * left + (b - m) * right
    assert whole == pytest.approx(parts, abs=1e-12)


@pytest.mark.parametrize("q", [
    potential.zero(),
    potential.constant(-4.0),
    potential.step(10.0, 1.0, 2.0),
    potential.power(1.0, -0.5),
    potential.power(-3.0, 2.0),
])
def test_l1_matches_telescoped_cell_averages(q):
    # for single-signed potentials the L1 norm telescopes exactly
    mesh = np.linspace(0.0, PI, 2049)
    qbar = cell_averages(q, mesh)
    total = float(np.sum(np.abs(qbar) * np.diff(mesh)))
    assert total == pytest.approx(q.l1_norm, rel=1e-10, abs=1e-12)


def test_cosine_l1_against_riemann():
    q = potential.cosine(1.5, 2.0)
    xs = np.linspace(0.0, PI, 2_000_001)
    mid = 0.5 * (xs[:-1] + xs[1:])
    riemann = float(np.sum(np.abs(1.5 * np.cos(2.0 * mid))) * (xs[1] - xs[0]))
    assert q.l1_norm == pytest.approx(riemann, rel=1e-9)


def test_table_cell_average_exact():
    q = potential.table([(0.0, 0.0), (1.0, 2.0), (PI, 2.0)])
    # integral over [0.5, 1.5]: rising part 0.5*(1+2)/2... piecewise linear
    # segment [0,1]: q = 2x -> integral over [0.5,1] = x^2 | = 0.75
    # segment [1, 1.5]: q = 2 -> 1.0
    assert _cell_average(q, 0.5, 1.5) == pytest.approx(1.75, rel=1e-14)


def test_potential_is_hashable_and_frozen(q_cos2x):
    d = {q_cos2x: 1}
    assert d[potential.cosine(1.0, 2.0)] == 1
    with pytest.raises(Exception):
        q_cos2x.kind = "zero"

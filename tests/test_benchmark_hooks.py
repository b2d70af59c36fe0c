"""The benchmark's layer tracer still finds every hook it wraps and yields
every per-layer metric, and the package exports a pinned set of names."""

import inspect
import math
import sys
from pathlib import Path

import pytest

import slzeros
from slzeros import oscillation, potential, spectrum, sweep
from slzeros.spectrum import BoundaryParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layertrace  # noqa: E402

PI = math.pi
CELLS = 256


@pytest.fixture(scope="module")
def traced():
    # a potential no other test uses, so the mesh is built inside the trace
    # rather than found in its cache
    q = potential.cosine(0.75, 3.0)
    bc = BoundaryParams(PI / 2, 0.7)
    tracer = layertrace.Tracer().install()
    try:
        spectrum.find_eigenvalue(q, 2, bc, CELLS)
        spectrum.find_eigenvalue(q, 3, bc, CELLS)
        oscillation.velocity_records(q, 40.0, bc, CELLS, "left")
        plan = sweep.SweepPlan(q, 1, "beta", PI, sweep.uniform_grid("beta", 8), CELLS)
        result = sweep.run_sweep(plan)
        event = result.events[0]
        sweep.detect_transition(plan, event["event"], event["zero_id"], result)
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_yields_every_per_layer_metric(traced):
    metrics = traced.metrics()
    assert [name for name, _ in layertrace.PER_LAYER] == list(metrics)
    # no solve is served from a cache
    assert metrics.pop("spectrum.cache_hit_ratio")["value"] == 0
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
    # the event is placed by the theorem: only its confirmation solves scan
    assert metrics["sweep.phase_evals_per_event"]["value"] <= 10


def test_every_solve_propagates_twice(traced):
    # each solve scans its own phases, then makes one plain left and one
    # plain right launch
    spans = traced.spans
    solves = [i for i, s in enumerate(spans) if s.name == "spectrum.find_eigenvalue"]
    assert len(solves) == 2

    def under(i, parent):
        while i >= 0 and i != parent:
            i = spans[i].parent
        return i == parent

    for solve in solves:
        inside = [s.name for i, s in enumerate(spans) if i != solve and under(i, solve)]
        assert "shooting.terminal_phase" in inside
        assert inside.count("shooting.propagate_plain") == 2


def test_exported_names():
    exported = {name for name, value in vars(slzeros).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {
        "BoundaryParams", "BracketFailure", "ConfigError", "CountMismatch",
        "DEFAULT_CELLS", "DegenerateRatio", "DomainMismatch", "Eigenpair",
        "EndpointConditions", "EventNotFound", "EvfCoordinates",
        "LinkAmbiguity", "MeshTooCoarse", "MonotonicityViolation",
        "NonFinite", "NonIntegrableExponent", "NonMonotoneTable", "PhaseRecord",
        "Potential", "SLZerosError", "SlopeUnderflow", "SolutionTrajectory",
        "SolverFault", "SweepPlan", "SweepResult", "UnknownKind", "ZeroRecord",
        "ZeroTrajectory", "detect_transition",
        "evf", "evf_grid", "find_eigenvalue", "find_zeros", "identity_residual",
        "left_conditions", "parse_potential", "propagate", "right_conditions",
        "run_sweep",
    }

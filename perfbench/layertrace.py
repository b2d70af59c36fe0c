"""Spans around every call into a layer's public functions.

The tracer wraps each public function at the module attribute through which
its caller looks it up (``spectrum.terminal_phase``, ``propagate`` in
``spectrum``, ``oscillation`` and ``sweep``, ...), so the library runs
unchanged.  Spans stay in memory; ``metrics()`` turns them into the
per-layer figures once the run is over.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

from slzeros import oscillation, shooting, spectrum, sweep

# (module, attribute, span name): every place a layer function is looked up
SITES = (
    (shooting, "cell_averages", "potential.cell_averages"),
    (spectrum, "terminal_phase", "shooting.terminal_phase"),
    (spectrum, "propagate", "shooting.propagate"),
    (oscillation, "propagate", "shooting.propagate"),
    (sweep, "propagate", "shooting.propagate"),
    (spectrum, "find_eigenvalue", "spectrum.find_eigenvalue"),
    (oscillation, "find_zeros", "oscillation.find_zeros"),
    (oscillation, "velocity_records", "oscillation.velocity_records"),
    (oscillation, "proportionality_constant_at", "oscillation.proportionality_constant_at"),
    (sweep, "canonical_zero_records", "oscillation.canonical_zero_records"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "detect_transition", "sweep.detect_transition"),
    (sweep, "link_zeros", "sweep.link_zeros"),
)

# the per-layer metrics, by name and unit, as BENCHMARK.json lists them
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


@dataclass
class Span:
    name: str
    site: str
    parent: int
    start: float
    end: float = 0.0
    cells: int = 0   # cells advanced, for shooting spans
    zeros: int = 0   # zeros returned, for find_zeros


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._mesh_cells: dict = {}

    def install(self) -> "Tracer":
        for module, attr, name in SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module.__name__.split(".")[-1]))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, site: str):
        spans, stack = self.spans, self._open
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, site, stack[-1] if stack else -1, time.perf_counter())
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self._annotate(span, signature, args, kwargs, result)
            return result

        return traced

    def _annotate(self, span: Span, signature, args, kwargs, result) -> None:
        if span.name == "shooting.propagate":
            span.name += "_variational" if result.ncomp == 4 else "_plain"
            span.cells = len(result.mesh) - 1
        elif span.name == "shooting.terminal_phase":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (bound.arguments["q"], bound.arguments["cells"])
            if key not in self._mesh_cells:
                self._mesh_cells[key] = len(shooting.build_mesh(*key)) - 1
            span.cells = self._mesh_cells[key]
        elif span.name == "oscillation.find_zeros":
            span.zeros = len(result)

    def metrics(self) -> dict:
        spans = self.spans
        self_s = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent >= 0:
                self_s[s.parent] -= s.end - s.start

        def enclosing(i: int, name: str) -> int:
            p = spans[i].parent
            while p >= 0 and spans[p].name != name:
                p = spans[p].parent
            return p

        calls: dict[str, int] = {}
        selft: dict[str, float] = {}
        for s, t in zip(spans, self_s):
            calls[s.name] = calls.get(s.name, 0) + 1
            selft[s.name] = selft.get(s.name, 0.0) + t

        shooting_names = ("shooting.terminal_phase", "shooting.propagate_plain",
                          "shooting.propagate_variational")
        cells = sum(s.cells for s in spans if s.name in shooting_names)
        shooting_self = sum(selft.get(n, 0.0) for n in shooting_names)

        solve_phase: dict[int, int] = {}
        solve_prop: dict[int, int] = {}
        under_sweep = under_event = angle_solves = 0
        for i, s in enumerate(spans):
            if s.name == "spectrum.find_eigenvalue":
                solve_phase.setdefault(i, 0)
            elif s.name == "shooting.terminal_phase":
                fe = enclosing(i, "spectrum.find_eigenvalue")
                if fe >= 0:
                    solve_phase[fe] = solve_phase.get(fe, 0) + 1
                under_sweep += enclosing(i, "sweep.run_sweep") >= 0
                under_event += enclosing(i, "sweep.detect_transition") >= 0
            if s.name.startswith("shooting.propagate"):
                fe = enclosing(i, "spectrum.find_eigenvalue")
                if fe >= 0:
                    solve_prop[fe] = solve_prop.get(fe, 0) + 1
            if s.site == "sweep" and s.name in ("oscillation.canonical_zero_records",
                                                "shooting.propagate_plain"):
                angle_solves += 1
        sweep_angles = sum(1 for i, s in enumerate(spans)
                           if s.name == "oscillation.canonical_zero_records" and s.site == "sweep"
                           and enclosing(i, "sweep.run_sweep") >= 0)

        def ratio(a, b):
            # a ratio whose base is zero reads 0: the layer did no such work
            return a / b if b else 0.0

        solves = calls.get("spectrum.find_eigenvalue", 0)
        zeros = sum(s.zeros for s in spans if s.name == "oscillation.find_zeros")
        values = {
            "shooting.cells_per_s": ratio(cells, shooting_self),
            "spectrum.phase_evals_per_solve": ratio(sum(solve_phase.values()), solves),
            "spectrum.propagations_per_solve": ratio(sum(solve_prop.values()), solves),
            "spectrum.cache_hit_ratio":
                ratio(sum(1 for v in solve_phase.values() if v == 0), solves),
            "oscillation.zeros_found": zeros,
            "oscillation.find_zeros.us_per_zero":
                ratio(selft.get("oscillation.find_zeros", 0.0) * 1e6, zeros),
            "sweep.angles_solved": angle_solves,
            "sweep.phase_evals_per_angle": ratio(under_sweep, sweep_angles),
            "sweep.phase_evals_per_event":
                ratio(under_event, calls.get("sweep.detect_transition", 0)),
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls.get(name[:-len(".calls")], 0)
            else:
                value = selft.get(name[:-len(".self_s")], 0.0)
            out[name] = {"value": value, "unit": unit}
        return out

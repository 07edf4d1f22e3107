"""Spans and counts around the public functions of each package module.

``Tracer.installed()`` replaces module attributes with wrappers that
record a span (name, start, end, parent, item) and the layer's counts,
and restores the originals on exit.  Wrappers are installed on the name
a caller looks up, so ``spaceform.match_outer_radius`` is timed through
the name ``domains`` binds.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from spaceform_spectra import cli, domains, fem2d, slsolver, spectrum

MODULES = ("cli", "fem2d", "slsolver", "spectrum", "domains", "spaceform")
FEM_STAGES = ("generate_mesh", "assemble", "eigensolve")   # leaf spans of verify

# per-layer metric name -> unit, in the order the benchmark reports them
PER_LAYER = {
    "fem2d.verify_theorem.s": "s",
    "fem2d.generate_mesh.s": "s",
    "fem2d.generate_mesh.calls": "count",
    "fem2d.assemble.s": "s",
    "fem2d.eigensolve.s": "s",
    "fem2d.unknowns": "count",
    "fem2d.stiffness_nnz": "count",
    "slsolver.solve.s": "s",
    "slsolver.solve.calls": "count",
    "slsolver.solve.grid_points": "count",
    "slsolver.solve.degeneracy_warnings": "count",
    "spectrum.assemble.s": "s",
    "spectrum.certify_lemmas.s": "s",
    "spectrum.certify_lemmas.failed_checks": "count",
    "domains.QuadratureGrid.for_spec.s": "s",
    "domains.quadrature_nodes": "count",
    "domains.matched_annulus.s": "s",
    "domains.rayleigh_gk.s": "s",
    "domains.integrate_moment.s": "s",
    "domains.integrate_moment.calls": "count",
    "spaceform.match_outer_radius.s": "s",
    "spaceform.match_outer_radius.calls": "count",
    **{f"fem2d.{stage}.share": "ratio" for stage in FEM_STAGES},
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.share": "ratio" for m in MODULES},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    parent: int | None
    item: int
    name: str
    start: float
    end: float = 0.0


def _solve_cells(args, kwargs) -> int:
    config = kwargs.get("config", args[1] if len(args) > 1 else None) or slsolver.SolverConfig()
    return config.grid_points * (3 if config.richardson else 1)   # grids N and 2N


# (owner, attribute, span name, count hook(counts, args, kwargs, result))
def _targets():
    return [
        (cli, "main", "cli.main", None),
        (fem2d, "verify_theorem", "fem2d.verify_theorem", None),
        (fem2d, "generate_mesh", "fem2d.generate_mesh",
         lambda c, a, k, r: c.update({"fem2d.generate_mesh.calls": 1})),
        (fem2d, "assemble", "fem2d.assemble",
         lambda c, a, k, r: c.update({"fem2d.unknowns": r.n_unknowns,
                                      "fem2d.stiffness_nnz": r.stiffness.nnz})),
        (fem2d, "eigensolve", "fem2d.eigensolve", None),
        (slsolver, "solve", "slsolver.solve",
         lambda c, a, k, r: c.update({"slsolver.solve.calls": 1,
                                      "slsolver.solve.grid_points": _solve_cells(a, k)})),
        (spectrum, "assemble", "spectrum.assemble", None),
        (spectrum, "certify_lemmas", "spectrum.certify_lemmas",
         lambda c, a, k, r: c.update({"spectrum.certify_lemmas.failed_checks":
                                      sum(not chk.passed for chk in r.checks)})),
        (domains.QuadratureGrid, "for_spec", "domains.QuadratureGrid.for_spec",
         lambda c, a, k, r: c.update({"domains.quadrature_nodes": r.weight.size})),
        (domains, "matched_annulus", "domains.matched_annulus", None),
        (domains, "rayleigh_gk", "domains.rayleigh_gk", None),
        (domains, "integrate_moment", "domains.integrate_moment",
         lambda c, a, k, r: c.update({"domains.integrate_moment.calls": 1})),
        (domains, "match_outer_radius", "spaceform.match_outer_radius",
         lambda c, a, k, r: c.update({"spaceform.match_outer_radius.calls": 1})),
    ]


def _count_degeneracy_warnings(fn, counts: Counter):
    """Count NearDegeneracyWarnings of ``fn`` and pass every warning on."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, slsolver.NearDegeneracyWarning):
                counts["slsolver.solve.degeneracy_warnings"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result
    return call


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item = 0
        self._stack: list[Span] = []

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                        self.item, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                original = inspect.getattr_static(owner, attr)
                fn = getattr(owner, attr)
                if name == "slsolver.solve":
                    fn = _count_degeneracy_warnings(fn, self.counts)
                wrapper = self._wrap(fn, name, hook)
                saved.append((owner, attr, original))
                setattr(owner, attr, staticmethod(wrapper)
                        if isinstance(original, staticmethod) else wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Inclusive time per span name, self time per module, and counts."""
        child_time = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = Counter(self.counts)
        for span in self.spans:
            duration = span.end - span.start
            totals[f"{span.name}.s"] += duration
            totals[f"{span.name.split('.')[0]}.self_s"] += duration - child_time[span.id]
        return dict(totals)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"spans": [vars(s) for s in self.spans], "counts": dict(self.counts)}) + "\n")


def per_layer_metrics(totals: dict, traced_walls: list[float],
                      untraced_walls: list[float]) -> dict:
    """Per-pass layer metrics from ``Tracer.layer_totals`` over the traced passes."""
    passes = len(traced_walls)
    wall = sum(traced_walls) / passes
    values = {name: totals.get(name, 0.0) / passes
              for name in PER_LAYER if not name.startswith("trace.")}
    for stage in FEM_STAGES:
        values[f"fem2d.{stage}.share"] = values[f"fem2d.{stage}.s"] / wall
    for module in MODULES:
        values[f"{module}.share"] = values[f"{module}.self_s"] / wall
    values["trace.coverage"] = sum(values[f"{m}.self_s"] for m in MODULES) / wall
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, untraced_walls))
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}

"""Span tracing of acgeom's layers, installed from outside the package.

The tracer wraps public functions and methods of the ``acgeom`` modules and
records one span per call: name, start, end, parent span and task id.  Spans
are kept in flat in-memory arrays and written out once, at the end of a run.
A layer's self time is its span's duration minus the durations of its direct
child spans; calls are strictly nested, so children never overlap.

Functions are re-bound by name in the modules that import them (for example
``normal.transform_structure`` or ``chern.normalize_to_order``), so a
function is patched in every module namespace that holds it.  Methods are
patched on their class, including aliases such as ``Jet.__rmul__``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (layer span name, module, attribute path).  A dotted path names a method.
SPAN_TARGETS = (
    ("jets.mul", "acgeom.jets", "Jet.__mul__"),
    ("jets.compose", "acgeom.jets", "Jet.compose"),
    ("jets.matmul", "acgeom.jets", "JetMatrix.__matmul__"),
    ("jets.inverse", "acgeom.jets", "JetMatrix.inverse"),
    ("jets.series_inverse", "acgeom.jets", "series_inverse"),
    ("structure.transform_structure", "acgeom.structure", "transform_structure"),
    ("structure.frame_and_dual", "acgeom.structure", "frame_and_dual"),
    ("structure.bracket_coefficients", "acgeom.structure",
     "bracket_coefficients"),
    ("structure.dual_pair", "acgeom.structure", "Frame.dual_pair"),
    ("normal.stage_change", "acgeom.normal", "stage_change"),
    ("normal.normalize_to_order", "acgeom.normal", "normalize_to_order"),
    ("normal.a_from_b_closed_form", "acgeom.normal", "a_from_b_closed_form"),
    ("normal.solve_a_degree_by_degree", "acgeom.normal",
     "solve_a_degree_by_degree"),
    ("forms.FrameCalculus", "acgeom.forms", "FrameCalculus.__init__"),
    ("forms.apply_operator", "acgeom.forms", "apply_operator"),
    ("forms.PQForm.evaluate", "acgeom.forms", "PQForm.evaluate"),
    ("chern.chern_connection", "acgeom.chern", "chern_connection"),
    ("chern.curvature", "acgeom.chern", "curvature"),
    ("chern.ChernLeviCivita.gamma", "acgeom.chern", "ChernLeviCivita.gamma"),
    ("chern.decomposition_residual", "acgeom.chern",
     "ChernLeviCivita.decomposition_residual"),
    ("chern.torsion_formula_residual", "acgeom.chern",
     "ChernLeviCivita.torsion_formula_residual"),
    ("geodesic.acceleration", "acgeom.geodesic", "PackedConnection.acceleration"),
    ("geodesic.integrate", "acgeom.geodesic", "integrate_geodesic"),
    ("cli.parse", "acgeom.cli", "parse_manifold_spec"),
    ("cli.run_command", "acgeom.cli", "run_command"),
)

# Jet-level spans whose operands may be exact (rational) jets; an exact call
# is recorded under "<name>[exact]" so that exact mode gets its own total.
EXACT_AWARE = ("jets.mul", "jets.compose", "jets.matmul", "jets.inverse")

# Counters kept next to the spans, by metric name.
COUNTERS = ("jets.mul.pairs", "jets.mul.terms_out", "jets.construct.calls",
            "normal.stage_change.changed", "geodesic.rk4_steps")

TASK_SPAN = "bench.task"
EMIT_SPAN = "cli.emit"


def _resolve(module_name, path):
    """(owner, original object) for a SPAN_TARGETS entry."""
    owner = sys.modules[module_name]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, vars(owner)[attr]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.counters = defaultdict(int)
        self.task_id = -1
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given name."""
        idx = self.open(self.intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name, fn):
        from acgeom.jets import Jet

        nid = self.intern(name)
        exact_nid = self.intern(name + "[exact]") if name in EXACT_AWARE else None
        counters = self.counters
        tracer = self

        if name == "jets.mul":
            def wrapper(a, b):
                if not isinstance(b, Jet):
                    return fn(a, b)           # scalar scaling, not a product
                idx = tracer.open(exact_nid if a.exact else nid)
                try:
                    out = fn(a, b)
                finally:
                    tracer.close(idx)
                counters["jets.mul.pairs"] += len(a.terms) * len(b.terms)
                counters["jets.mul.terms_out"] += len(out.terms)
                return out
        elif name == "normal.stage_change":
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                counters["normal.stage_change.changed"] += int(bool(out[1]))
                return out
        elif name == "geodesic.integrate":
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counters["geodesic.rk4_steps"] += int(bound.arguments["steps"])
                idx = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        elif exact_nid is not None:
            def wrapper(obj, *args, **kwargs):
                idx = tracer.open(exact_nid if obj.exact else nid)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return functools.wraps(fn)(wrapper)

    def _count_constructions(self, init):
        counters = self.counters

        def wrapper(obj, *args, **kwargs):
            counters["jets.construct.calls"] += 1
            init(obj, *args, **kwargs)
        return functools.wraps(init)(wrapper)

    def _patch_everywhere(self, owner, original, replacement):
        """Replace ``original`` wherever the acgeom namespaces hold it."""
        if isinstance(owner, type):
            spaces = [owner]
        else:
            spaces = [m for key, m in list(sys.modules.items())
                      if key == "acgeom" or key.startswith("acgeom.")]
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    self._patches.append((space, attr, original))
                    setattr(space, attr, replacement)

    def install(self):
        if self._patches:
            return
        from acgeom.jets import Jet

        for name, module_name, path in SPAN_TARGETS:
            owner, original = _resolve(module_name, path)
            self._patch_everywhere(owner, original,
                                   self._wrapper(name, original))
        self._patch_everywhere(Jet, Jet.__init__,
                               self._count_constructions(Jet.__init__))

    def uninstall(self):
        for space, attr, original in reversed(self._patches):
            setattr(space, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.task, dtype=np.int32))

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        start, end, _, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        return dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))

    def totals(self):
        """{span name: (calls, self seconds)} summed over every span."""
        self_s = self.self_times()
        nid = self.arrays()[2]
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=self_s, minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        start, end, nid, parent, task = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=nid,
                            parent=parent, task=task,
                            names=np.array(self.names))

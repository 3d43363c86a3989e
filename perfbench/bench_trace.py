"""Span tracing of the program's layers, installed from the benchmark.

``Tracer.install()`` replaces the public functions of ``rng``,
``convex_geometry``, ``wos_engine``, ``hh_verifier`` and ``brownian_1d``,
and the body-class methods, constructors and lazy tables, by wrappers that
record one span per call: [name, start, end, parent index, rows, note].
Rows are the row count passed in (points, walks, paths); the note is a
value read from the result, or the exception name when the call raised.
The program looks these names up at call time (module globals and class
attributes), so its internal calls are traced too.

``layer_metrics(spans)`` turns one round's spans into the per-layer
figures; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import time
from functools import cached_property

from torsion_bound import brownian_1d as b1
from torsion_bound import convex_geometry as cg
from torsion_bound import hh_verifier as hh
from torsion_bound import rng
from torsion_bound import wos_engine as wos

FAMILIES = {cg.Ball: "ball", cg.Ellipsoid: "ellipsoid", cg.Box: "box",
            cg.Polytope: "polytope", cg.Intersection: "intersection"}
CONSTRUCT = "convex_geometry.construct"
DISTANCES = "convex_geometry.distances_many."
TORSION = "wos_engine.torsion_value"
LIFETIME = "wos_engine.lifetime_bound_check"
MAX_GRAD = "wos_engine.max_normal_derivative"
NORMAL_DERIV = "wos_engine.normal_derivative"

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("rng.unit_vectors.rows_per_s", "rows/s", "higher"),
    ("rng.unit_vectors.self_s", "s", "lower"),
    ("rng.uniforms.rows_per_s", "rows/s", "higher"),
    ("rng.uniforms.self_s", "s", "lower"),
    ("rng.path_generator.self_s", "s", "lower"),
    *[(f"{DISTANCES}{f}.pts_per_s", "points/s", "higher")
      for f in ("ball", "ellipsoid", "box", "polytope", "intersection")],
    (f"{DISTANCES}self_s", "s", "lower"),
    ("convex_geometry.boundary_arrays.self_s", "s", "lower"),
    ("convex_geometry.interior_points.self_s", "s", "lower"),
    ("convex_geometry.volume.self_s", "s", "lower"),
    ("convex_geometry.construct.self_s", "s", "lower"),
    ("wos_engine.max_normal_derivative.probe_s", "s", "lower"),
    ("wos_engine.max_normal_derivative.sampling_s", "s", "lower"),
    ("wos_engine.normal_derivative.rejected", "count", "lower"),
    ("wos_engine.torsion_value.walks_per_s", "walks/s", "higher"),
    ("wos_engine.torsion_value.self_s", "s", "lower"),
    ("wos_engine.torsion_value.distance_evals_per_walk", "count", "lower"),
    ("wos_engine.exit_time_mean.walks_per_s", "walks/s", "higher"),
    ("wos_engine.lifetime_bound_check.walks_per_s", "walks/s", "higher"),
    ("wos_engine.truncated_fraction", "1", "lower"),
    ("hh_verifier.verify_theorem1.pairs_per_s", "pairs/s", "higher"),
    ("hh_verifier.certify.self_s", "s", "lower"),
    ("hh_verifier.volume_integral.self_s", "s", "lower"),
    ("hh_verifier.boundary_integral.self_s", "s", "lower"),
    ("brownian_1d.simulate_hitting_times.paths_per_s", "paths/s", "higher"),
    ("brownian_1d.truncated_mean.calls_per_s", "calls/s", "higher"),
]


def _rows(index: int, name: str, attr: str | None = None, size: bool = True):
    """Row count from positional argument ``index`` or keyword ``name``:
    its length, its value, or one of its attributes."""
    def get(args, kwargs):
        value = args[index] if len(args) > index else kwargs[name]
        if attr is not None:
            return getattr(value, attr)
        return len(value) if size else int(value)
    return get


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def take(self) -> list[list]:
        """Spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, rows=None, note=None):
        spans, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rows(args, kwargs) if rows else 0, None]
            stack.append(len(spans.spans))
            spans.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(out)
            return out
        return traced

    def _patch(self, owner, attr, name, rows=None, note=None):
        orig = owner.__dict__[attr]
        if isinstance(orig, cached_property):
            new = cached_property(self._wrap(name, orig.func))
            new.__set_name__(owner, attr)
        else:
            new = self._wrap(name, orig, rows, note)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def install(self) -> "Tracer":
        p = self._patch
        p(rng, "uniforms", "rng.uniforms", _rows(1, "units"))
        p(rng, "unit_vectors", "rng.unit_vectors", _rows(1, "units"))
        p(rng, "path_generator", "rng.path_generator")
        for cls, family in FAMILIES.items():
            p(cls, "distances_many", DISTANCES + family, _rows(1, "points"))
            p(cls, "__init__", CONSTRUCT)
        for cls, attr in ((cg.ConvexBody, "diameter"), (cg.Ball, "diameter"),
                          (cg.Ellipsoid, "diameter"), (cg.Intersection, "diameter"),
                          (cg.Box, "_face_table"), (cg.Polytope, "faces"),
                          (cg.Polytope, "_face_cum"), (cg._ClippedPolytope, "faces"),
                          (cg.Intersection, "_mixture")):
            p(cls, attr, CONSTRUCT)
        p(cg.ConvexBody, "boundary_arrays", "convex_geometry.boundary_arrays",
          _rows(1, "count", size=False))
        p(cg, "interior_points", "convex_geometry.interior_points",
          _rows(1, "count", size=False))
        p(cg, "volume", "convex_geometry.volume")
        p(cg, "surface_area", "convex_geometry.volume")
        p(wos, "torsion_value", TORSION, _rows(2, "cfg", "samples"),
          note=lambda est: est.truncated_fraction)
        p(wos, "exit_time_mean", "wos_engine.exit_time_mean",
          _rows(2, "cfg", "samples"))
        p(wos, "normal_derivative", NORMAL_DERIV)
        p(wos, "max_normal_derivative", MAX_GRAD,
          note=lambda res: res.evaluations)
        p(wos, "lifetime_bound_check", LIFETIME)
        p(hh, "verify_theorem1", "hh_verifier.verify_theorem1")
        p(hh, "certify_subharmonic", "hh_verifier.certify")
        p(hh, "certify_boundary_nonnegative", "hh_verifier.certify")
        p(hh, "volume_integral", "hh_verifier.volume_integral")
        p(hh, "boundary_integral", "hh_verifier.boundary_integral")
        p(b1, "simulate_hitting_times", "brownian_1d.simulate_hitting_times",
          _rows(1, "count", size=False))
        p(b1, "truncated_mean", "brownian_1d.truncated_mean")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one round; a layer the round never called
    reads 0."""
    count = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * count
    under_torsion = [False] * count
    under_lifetime = [False] * count
    for i, (name, _s, _e, parent, _r, _n) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            pname = spans[parent][0]
            under_torsion[i] = pname == TORSION or under_torsion[parent]
            under_lifetime[i] = pname == LIFETIME or under_lifetime[parent]

    calls, rows, total, own = {}, {}, {}, {}
    for i, (name, _s, _e, _p, r, _n) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        rows[name] = rows.get(name, 0) + r
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]

    def rate(name):
        return _ratio(rows.get(name, 0), total.get(name, 0.0))

    def self_s(*names):
        return sum(own.get(n, 0.0) for n in names)

    walks = evals = truncated = life_walks = 0.0
    grad_evals, grad_sampling, rejected = 0, 0.0, 0
    for i, (name, _s, _e, parent, r, note) in enumerate(spans):
        pname = spans[parent][0] if parent >= 0 else ""
        if name == TORSION:
            walks += r
            truncated += r * note if isinstance(note, float) else 0.0
            if under_lifetime[i]:
                life_walks += r
        elif name.startswith(DISTANCES) and under_torsion[i] \
                and not pname.startswith(DISTANCES):
            evals += r
        elif name == MAX_GRAD:
            grad_evals += note if isinstance(note, int) else 0
            grad_sampling += dur[i]
        elif name == NORMAL_DERIV:
            rejected += note == "ValueError"
            if pname == MAX_GRAD:
                grad_sampling -= dur[i]

    out = {
        "rng.unit_vectors.rows_per_s": rate("rng.unit_vectors"),
        "rng.unit_vectors.self_s": self_s("rng.unit_vectors"),
        "rng.uniforms.rows_per_s": rate("rng.uniforms"),
        "rng.uniforms.self_s": self_s("rng.uniforms"),
        "rng.path_generator.self_s": self_s("rng.path_generator"),
    }
    for family in FAMILIES.values():
        out[f"{DISTANCES}{family}.pts_per_s"] = rate(DISTANCES + family)
    out.update({
        f"{DISTANCES}self_s": self_s(*(DISTANCES + f for f in FAMILIES.values())),
        "convex_geometry.boundary_arrays.self_s": self_s("convex_geometry.boundary_arrays"),
        "convex_geometry.interior_points.self_s": self_s("convex_geometry.interior_points"),
        "convex_geometry.volume.self_s": self_s("convex_geometry.volume"),
        "convex_geometry.construct.self_s": self_s(CONSTRUCT),
        "wos_engine.max_normal_derivative.probe_s":
            _ratio(total.get(MAX_GRAD, 0.0), grad_evals),
        "wos_engine.max_normal_derivative.sampling_s": grad_sampling,
        "wos_engine.normal_derivative.rejected": rejected,
        "wos_engine.torsion_value.walks_per_s": rate(TORSION),
        "wos_engine.torsion_value.self_s": self_s(TORSION),
        "wos_engine.torsion_value.distance_evals_per_walk": _ratio(evals, walks),
        "wos_engine.exit_time_mean.walks_per_s": rate("wos_engine.exit_time_mean"),
        "wos_engine.lifetime_bound_check.walks_per_s":
            _ratio(life_walks, total.get(LIFETIME, 0.0)),
        "wos_engine.truncated_fraction": _ratio(truncated, walks),
        "hh_verifier.verify_theorem1.pairs_per_s":
            _ratio(calls.get("hh_verifier.verify_theorem1", 0),
                   total.get("hh_verifier.verify_theorem1", 0.0)),
        "hh_verifier.certify.self_s": self_s("hh_verifier.certify"),
        "hh_verifier.volume_integral.self_s": self_s("hh_verifier.volume_integral"),
        "hh_verifier.boundary_integral.self_s": self_s("hh_verifier.boundary_integral"),
        "brownian_1d.simulate_hitting_times.paths_per_s":
            rate("brownian_1d.simulate_hitting_times"),
        "brownian_1d.truncated_mean.calls_per_s":
            _ratio(calls.get("brownian_1d.truncated_mean", 0),
                   total.get("brownian_1d.truncated_mean", 0.0)),
    })
    return out

"""Per-layer spans recorded from outside the program.

While a ``Tracer`` is installed, each traced function of ``freeset`` is
replaced, in every loaded ``freeset`` module that binds it, by a wrapper
that counts calls and self time: the span's duration minus the time of the
traced calls made inside it.  Wrappers record only between ``begin_op`` and
``end_op``, so the benchmark's own checks are not counted.  ``uninstall``
puts the original objects back and ``leftover`` lists any wrapper still
reachable, which must be none.

``orient``, ``segments_intersect`` and ``on_segment`` are deliberately not
wrapped: they run millions of times and the wrapper would swamp them.
"""

from __future__ import annotations

import sys
from functools import update_wrapper
from time import perf_counter

LAYERS = {
    "embedding": ("triangulate", "build_embedded", "subdivide"),
    "canonical": ("canonical_order", "chain_or_antichain"),
    "curves": ("validate_curve", "analyze_curve", "side_partition"),
    "extractors": ("planar_freeset", "chain_freeset", "antichain_freeset"),
    "realize": ("free_realize", "realize_collinear", "perturb_scale",
                "verify_drawing", "tutte_solve"),
    "rational": ("integer_grid", "FractionFreeSolver.factor",
                 "FractionFreeSolver.solve"),
    "applications": ("untangle", "psge_two", "lis_lds"),
    "textio": ("parse_graph", "serialize_freeset", "serialize_drawing"),
}

# class methods are traced under the names above; ``factor`` is the
# constructor, which does the factorization
_METHOD_ATTR = {"factor": "__init__", "solve": "solve"}

# verify_drawing calls a traced function makes when nothing is retried:
# realize_collinear verifies each half once and the merged drawing once,
# perturb_scale verifies one candidate per epsilon
_VERIFY_BASE = {"realize.realize_collinear": ("realize.halfplane.retries", 3),
                "realize.perturb_scale": ("realize.perturb_scale.halvings", 1)}

_MARK = "__perfbench_wrapped__"

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)
# counts derived at the span boundaries, with their units
DERIVED = {"realize.verify_drawing.segments": "count",
           "realize.collinear_cache.hit_ratio": "ratio",
           "realize.collinear_cache.lookups": "count",
           "realize.halfplane.retries": "count",
           "realize.perturb_scale.halvings": "count",
           "rational.FractionFreeSolver.dim_max": "rows"}


def _freeset_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "freeset" or name.startswith("freeset."))]


def collinear_cache():
    """The program's collinear-system cache, if it still has one."""
    realize = sys.modules.get("freeset.realize")
    fn = getattr(realize, "_collinear_system", None)
    return fn if hasattr(fn, "cache_info") else None


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.counters = {name: 0 for name in DERIVED
                         if not name.endswith("hit_ratio")}
        self._stack: list[list] = []   # [name, child seconds, verify calls]
        self._restore: list[tuple] = []
        self._cache_at_begin = None
        self._cache_hits = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _freeset_modules()
        for layer, names in LAYERS.items():
            mod = sys.modules[f"freeset.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(mod, cls_name)
                    attr = _METHOD_ATTR[method]
                    orig = cls.__dict__[attr]
                    self._replace(cls, attr, orig, self._wrap(span, orig))
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(span, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._replace(m, key, orig, wrapper)

    def _replace(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def leftover() -> list[str]:
        """Names under which a wrapper is still reachable."""
        found = []
        for m in _freeset_modules():
            for key, value in vars(m).items():
                if getattr(value, _MARK, False):
                    found.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == m.__name__:
                    found += [f"{m.__name__}.{key}.{a}"
                              for a, v in vars(value).items()
                              if getattr(v, _MARK, False)]
        return found

    # -- recording --------------------------------------------------------

    def begin_op(self) -> None:
        cache = collinear_cache()
        self._cache_at_begin = cache.cache_info() if cache else None
        self.active = True

    def end_op(self) -> None:
        self.active = False
        if self._cache_at_begin is not None:
            info = collinear_cache().cache_info()
            hits = info.hits - self._cache_at_begin.hits
            misses = info.misses - self._cache_at_begin.misses
            self.counters["realize.collinear_cache.lookups"] += hits + misses
            self._cache_hits += hits
        self._stack.clear()

    def _on_enter(self, span: str, args) -> None:
        if span == "realize.verify_drawing":
            g, d = args[0], args[1]
            self.counters["realize.verify_drawing.segments"] += (
                len(g.edges) + d.bend_count())
        elif span == "rational.FractionFreeSolver.factor":
            key = "rational.FractionFreeSolver.dim_max"
            self.counters[key] = max(self.counters[key], len(args[1]))

    def _wrap(self, span: str, fn):
        tracer = self
        calls, self_s, stack = self.calls, self.self_s, self._stack
        base = _VERIFY_BASE.get(span)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._on_enter(span, args)
            parent = stack[-1] if stack else None
            frame = [span, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    if span == "realize.verify_drawing":
                        parent[2] += 1
                if base is not None:
                    counter, expected = base
                    tracer.counters[counter] += max(0, frame[2] - expected)

        update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counters)
        lookups = self.counters["realize.collinear_cache.lookups"]
        out["realize.collinear_cache.hit_ratio"] = (
            self._cache_hits / lookups if lookups else 0.0)
        return out

"""Span tracing of ``conedec`` from outside the package.

Every public function of every ``conedec`` module is wrapped, in every
module namespace that holds a reference to it (``conedec.cli.brion_gf`` as
well as ``conedec.genfunc.brion_gf``), so calls between modules go through
the wrappers.  Private helpers, methods and the vector arithmetic helpers
in ``INLINE`` are not wrapped: their time is self time of the function that
called them.

A span is (name, start, end, parent, op).  Spans stay in memory and are
written out when the run ends; self time (a span's duration minus the part
covered by its child spans) and call counts are accumulated as spans close,
so they stay exact even past the cap on stored spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

MAX_STORED_SPANS = 200_000

# linalg's per-vector arithmetic is not a layer boundary: it runs inside
# every layer's inner loops (a count op makes ~24,000 such calls), so a span
# per call would charge each layer's arithmetic to linalg and cost more
# than the call itself.  linalg's spans are its elimination routines.
INLINE = {f"linalg.{name}" for name in (
    "frac", "vec", "dot", "idot", "vadd", "vsub", "vneg", "vscale",
    "is_zero_vector", "mat", "identity_matrix", "transpose", "mat_vec",
    "mat_mul")}


def _inputs_list(args, kwargs, key):
    """Materialise the first argument (an iterable of points or halfspaces)
    so the hook can size it without consuming it."""
    if args:
        items = list(args[0])
        return (items,) + tuple(args[1:]), kwargs, items
    items = list(kwargs[key])
    return args, dict(kwargs, **{key: items}), items


def _vh_post(counts, items, args, kwargs, result):
    d = len(items[0])
    tried = comb(len(items), d)
    counts["polyhedra.subsets"] += tried
    counts["polyhedra.vh_subsets"] += tried
    counts["polyhedra.facets_found"] += len(result.facets)


def _hv_post(counts, items, args, kwargs, result):
    d = len(items[0].normal)
    m = len(items)
    counts["polyhedra.subsets"] += comb(m, d) + comb(m, d - 1)
    counts["polyhedra.hv_subsets"] += comb(m, d)
    counts["polyhedra.vertices_found"] += len(result.vertices)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _pieces_post(counts, _items, args, kwargs, _result):
    lhs, rhs = _arg(args, kwargs, 0, "lhs"), _arg(args, kwargs, 1, "rhs")
    counts["indicators.pieces"] += len(lhs.terms) + len(rhs.terms)


def _exact_post(counts, items, args, kwargs, result):
    _pieces_post(counts, items, args, kwargs, result)
    counts["indicators.exact_cells"] += result.points_checked


def _counter(key, size=len):
    def post(counts, _items, _args, _kwargs, result):
        counts[key] += size(result)
    return post


def _specialize_post(counts, _items, args, kwargs, result):
    counts["genfunc.terms"] += len(_arg(args, kwargs, 0, "gf").terms)


def _feasible_post(counts, _items, _args, _kwargs, result):
    counts["feasibility.feasible"] += result is not None


# Work counters taken at layer boundaries: name -> (pre, post).  ``pre``
# may rewrite the arguments; ``post`` sees the result.
HOOKS = {
    "polyhedra.polytope_from_vertices":
        (lambda a, k: _inputs_list(a, k, "points"), _vh_post),
    "polyhedra.polytope_from_halfspaces":
        (lambda a, k: _inputs_list(a, k, "halfspaces"), _hv_post),
    "genfunc.enumerate_parallelepiped":
        (None, _counter("genfunc.parallelepiped_points")),
    "genfunc.specialize": (None, _specialize_post),
    "genfunc.count_lattice_points":
        (None, _counter("genfunc.lattice_points", size=int)),
    "indicators.verify_identity": (None, _pieces_post),
    "indicators.verify_identity_exact": (None, _exact_post),
    "feasibility.feasible_point": (None, _feasible_post),
    "deform.vertex_triangulation":
        (None, _counter("deform.cells", size=lambda t: len(t.cells))),
    "triangulation.regular_triangulation":
        (None, _counter("triangulation.cells", size=lambda t: len(t.cells))),
}

# Generators return at once; their work shows as items yielded, not spans.
YIELD_COUNTERS = {
    "indicators.grid_points": "indicators.grid_points",
    "indicators.random_rational_points": "indicators.grid_points",
}


def conedec_modules():
    return sorted((name, mod) for name, mod in sys.modules.items()
                  if (name == "conedec" or name.startswith("conedec."))
                  and mod is not None)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_time: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._originals: list[tuple] = []
        self._wrappers: dict | None = None
        self._op_wrappers: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        if name in YIELD_COUNTERS:
            key = YIELD_COUNTERS[name]
            counts = self.counts

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item
            return gen_wrapper

        name_id = len(self.names)
        self.names.append(name)
        pre, post = HOOKS.get(name, (None, None))
        stack, spans, active = self._stack, self.spans, self._active
        self_time, inclusive, calls = self.self_time, self.inclusive, self.calls
        counts = self.counts

        def wrapper(*args, **kwargs):
            items = None
            if pre is not None:
                args, kwargs, items = pre(args, kwargs)
            if len(spans) < MAX_STORED_SPANS:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            outermost = active[name] == 0
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                self_time[name] += dur - frame[1]
                if outermost:
                    inclusive[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    spans[idx] = (name_id, t0, t1, parent, self.op)
            if post is not None:
                post(counts, items, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _targets(self):
        """{function: "layer.name"} for every public conedec function."""
        out = {}
        for modname, mod in conedec_modules():
            if modname == "conedec" or modname.endswith("__main__"):
                continue
            layer = modname.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == modname and name not in INLINE):
                    out[val] = name
        return out

    def install(self):
        if self._wrappers is None:
            self._wrappers = {fn: self._wrap(fn, name)
                              for fn, name in self._targets().items()}
        for _modname, mod in conedec_modules():
            ns = vars(mod)
            for attr, val in list(ns.items()):
                try:
                    wrapped = self._wrappers.get(val)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    self._originals.append((ns, attr, val))
                    ns[attr] = wrapped

    def uninstall(self):
        for ns, attr, val in self._originals:
            ns[attr] = val
        self._originals.clear()

    def span(self, name, fn):
        """Run fn() as a span of the benchmark's own (the op boundary)."""
        key = f"bench.{name}"
        if key not in self._op_wrappers:
            self._op_wrappers[key] = self._wrap(lambda f: f(), key)
        return self._op_wrappers[key](fn)

    # -- results ------------------------------------------------------------

    def layer_self(self):
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def layer_calls(self):
        out: Counter = Counter()
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return out

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "dropped": self.dropped,
                       "spans": [s for s in self.spans if s is not None]}, fh)

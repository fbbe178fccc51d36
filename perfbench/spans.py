"""Per-module spans for the traced run, installed from outside the library.

``Tracer.install`` wraps the listed functions and methods of the six layer
modules (``scalars``, ``fusion``, ``cayley``, ``qctree``, ``aunitary``,
``estimates``) in place, and ``uninstall`` puts the originals back.  A
module-level function is replaced in every ``qcayley`` module that imported
it, so calls between modules are traced too.

Spans are not stored one by one: each call adds its count and self time
(its duration minus that of its traced children) to an aggregate keyed by
(caller span, span).  That keeps the ~10^6 scalar ops of a pass in constant
memory while still recording which span caused which.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

ROOT_SPAN = "<workload>"

# span name -> (module, targets); a target is "function" or "Class.attribute"
SPANS = {
    "scalars.Radical.mul": ("scalars", ("Radical.__mul__", "Radical.__rmul__")),
    "scalars.Radical.add": ("scalars", ("Radical.__add__", "Radical.__radd__")),
    "scalars.Radical.sqrt_of": ("scalars", ("Radical.sqrt_of",)),
    "scalars.Radical.eq": ("scalars", ("Radical.__eq__",)),
    "scalars.Radical.sign": ("scalars", ("Radical.sign",)),
    "scalars.Interval.mul": ("scalars", ("Interval.__mul__", "Interval.__rmul__")),
    "scalars.Interval.add": ("scalars", ("Interval.__add__", "Interval.__radd__")),
    "scalars.Interval.inverse": ("scalars", ("Interval.inverse",)),
    "fusion.fuse_generator": ("fusion", ("fuse_generator",)),
    "fusion.quantum_dim": ("fusion", ("quantum_dim",)),
    "fusion.a_param": ("fusion", ("a_param",)),
    "fusion.growth_floor": ("fusion", ("growth_floor",)),
    "fusion.ao_dims": ("fusion", ("ao_dims",)),
    "cayley.build_tree": ("cayley", ("build_tree",)),
    "cayley.validate": ("cayley", ("validate",)),
    "cayley.geodesic": ("cayley", ("geodesic",)),
    "cayley.CayleyTree.word": ("cayley", ("CayleyTree.word",)),
    "cayley.GeodesicRay": ("cayley", ("GeodesicRay.__init__",)),
    "qctree.e2": ("qctree", ("e2",)),
    "qctree.path_target": ("qctree", ("path_target",)),
    "qctree.VertexVector.eq": ("qctree", ("VertexVector.__eq__",)),
    "qctree.path_vector": ("qctree", ("path_vector",)),
    "qctree.path_norm_sq": ("qctree", ("path_norm_sq",)),
    "qctree.gram": ("qctree", ("gram",)),
    "qctree.gram_bound": ("qctree", ("gram_bound",)),
    "qctree.fixed_vector": ("qctree", ("fixed_vector",)),
    "qctree.e2_inverse_ao": ("qctree", ("e2_inverse_ao",)),
    "aunitary.parseval_violations": ("aunitary", ("parseval_violations",)),
    "aunitary.cn_lower": ("aunitary", ("cn_lower",)),
    "aunitary.ql_norm_sq": ("aunitary", ("ql_norm_sq",)),
    "aunitary.ql_sums": ("aunitary", ("ql_sums",)),
    "aunitary.check_index_independence": ("aunitary", ("check_index_independence",)),
    "estimates.orientation_chain_check": ("estimates", ("orientation_chain_check",)),
    "estimates.toeplitz_schur_bound": ("estimates", ("toeplitz_schur_bound",)),
    "estimates.truncated_toeplitz_norm": ("estimates", ("truncated_toeplitz_norm",)),
    "estimates.rd_norm_sq": ("estimates", ("rd_norm_sq",)),
    "estimates.nonuni_norm_sq": ("estimates", ("nonuni_norm_sq",)),
    "estimates.dim_ratio_domination": ("estimates", ("dim_ratio_domination",)),
}

_MISSING = object()


def _cn_lower_span(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "enumerate")
    return f"aunitary.cn_lower.{method}"


class Tracer:
    """Aggregated spans and work counters for one pass at a time."""

    def __init__(self, lib):
        self.lib = lib
        self.cells: dict = {}  # (caller span, span) -> [calls, self ns]
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack = [[ROOT_SPAN, 0]]
        self._restore: list = []
        counters, distinct = self.counters, self.distinct

        def rational_product(args, result):
            counters["scalars.Radical.mul.rational"] += result.is_rational

        def growth_floor_arg(args, result):
            distinct["fusion.growth_floor"].add(args[0])

        def vertices(args, result):
            counters["cayley.build_tree.vertices"] += result.n_vertices

        def edges(args, result):
            counters["cayley.validate.edges"] += result.n_geometric_edges

        self._hooks = {
            "scalars.Radical.mul": rational_product,
            "fusion.growth_floor": growth_floor_arg,
            "cayley.build_tree": vertices,
            "cayley.validate": edges,
        }

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, span, fn):
        cells, stack, clock = self.cells, self._stack, perf_counter_ns
        hook = self._hooks.get(span)
        namer = _cn_lower_span if span == "aunitary.cn_lower" else None

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else span
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller = stack[-1]
                caller[1] += dt
                key = (caller[0], name)
                cell = cells.get(key)
                if cell is None:
                    cells[key] = cell = [0, 0]
                cell[0] += 1
                cell[1] += dt - frame[1]
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qcayley" or name.startswith("qcayley.")]
        for span, (module, targets) in SPANS.items():
            mod = getattr(self.lib, module)
            for target in targets:
                if "." in target:
                    self._install_attr(span, getattr(mod, target.split(".")[0]),
                                       target.split(".")[1])
                else:
                    self._install_function(span, getattr(mod, target), modules)

    def _install_attr(self, span, cls, attr):
        own = cls.__dict__.get(attr, _MISSING)
        if isinstance(own, classmethod):
            replacement = classmethod(self._wrap(span, own.__func__))
        else:
            replacement = self._wrap(span, getattr(cls, attr))
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, own))

    def _install_function(self, span, fn, modules):
        traced = self._wrap(span, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        self.cells.clear()
        self.counters.clear()
        self.distinct.clear()

    def snapshot(self) -> dict:
        """Totals of the pass since the last reset, per span and per counter."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (_, name), (n, ns) in self.cells.items():
            calls[name] += n
            self_ns[name] += ns
        return {
            "calls": dict(calls),
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "counters": dict(self.counters),
            "distinct": {name: len(values) for name, values in self.distinct.items()},
            "edges": [[caller, name, n, ns / 1e9]
                      for (caller, name), (n, ns) in sorted(self.cells.items())],
        }

"""Spans and counters for the traced run, by rebinding library names.

Only the traced pass imports this module.  ``Tracer.install`` replaces each
function in ``FUNCTIONS`` (and the ``MultiPoly`` methods in ``METHODS``) by
a wrapper in every module that holds it, so calls the library makes to
itself (``q_value`` -> ``apply_edge_op``) are caught without touching the
library's source.  ``Fraction`` stays unwrapped: its cost counts as the
calling function's self time.

Every call records a span (name, start, end, parent span, item id) in flat
arrays kept in memory and written out by ``write``.  A span's self time is
its duration minus the durations of its direct children, which cover
disjoint parts of it because the run is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

from ribbontensor.errors import SingularAtPoint

FUNCTIONS = {
    "arrow": ("boundary_components", "edge_op_traced", "canonical_transforms", "surface_stats"),
    "packaged": ("apply_edge_op", "two_sum", "compose_two_sums", "canonical_packaged"),
    "poly": ("to_canonical_string", "solve_linear", "determinant"),
    "polynomials": (
        "q_multivariate", "q_value", "q_state_table", "q_table_value",
        "transition_poly", "transition_state_table", "transition_table_value",
        "mv_br_value", "br_poly", "tutte_poly", "zdot_value", "tutte_value",
    ),
    "tensor_formula": ("run_verification", "verify_identity", "solve_phis", "build_phi_matrix"),
}
METHODS = {"poly": {"MultiPoly": ("__mul__", "__add__")}}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # open span indexes
        self._child: list = []  # child time covered, parallel to _stack
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self.item_comparisons: dict = defaultdict(int)
        self.item = -1
        self._distinct_ops: set = set()
        self._restore: list = []
        self.wrapped: list = []  # span names of the wrapped functions

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx, nid, t0, t1):
        self._stack.pop()
        covered = self._child.pop()
        duration = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        if self._child:
            self._child[-1] += duration
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        self.total_s[nid] += duration

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a benchmark-side span."""
        nid = self._id(name)
        idx = self._open(nid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, nid, t0, time.perf_counter())

    def wrap(self, fn, name, after=None, on_error=None, name_of=None):
        self.wrapped.append(name)
        nid = self._id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._id(name_of(args, kwargs)) if name_of else nid
            idx = self._open(span_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx, span_id, t0, perf())
                if on_error:
                    on_error(exc)
                raise
            self._close(idx, span_id, t0, perf())
            if after:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the layer boundaries ------------------------------------

    def _mul_counts(self, args, result):
        a, b = args
        if hasattr(b, "terms"):
            self.counters["poly.MultiPoly.__mul__.products"] += 1
            self.counters["poly.MultiPoly.__mul__.term_pairs"] += len(a.terms) * len(b.terms)
            if len(a.terms) == 1 or len(b.terms) == 1:
                self.counters["poly.MultiPoly.__mul__.monomial"] += 1

    def _op_counts(self, args, result):
        self._distinct_ops.add(args)

    def _table_counter(self, cached, name):
        """Count the leaves of every table built, not of tables reused."""

        def after(args, result):
            if cached.cache_info().misses != self.counters[f"{name}.seen_misses"]:
                self.counters[f"{name}.seen_misses"] = cached.cache_info().misses
                self.counters[f"{name}.leaves"] += len(result[1])

        return after

    def _verify_counts(self, args, result):
        self.counters["tensor_formula.verify_identity.comparisons"] += len(result.comparisons)
        self.item_comparisons[self.item] += len(result.comparisons)

    def _verify_error(self, exc):
        if isinstance(exc, SingularAtPoint):
            self.counters["tensor_formula.verify_identity.resampled"] += 1

    # -- installing --------------------------------------------------------------

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "ribbontensor" or n.startswith("ribbontensor.")]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"ribbontensor.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                name = f"{short}.{fname}"
                after = on_error = name_of = None
                if name in ("polynomials.q_state_table", "polynomials.transition_state_table"):
                    self.counters[f"{name}.seen_misses"] = orig.cache_info().misses
                    after = self._table_counter(orig, name)
                elif name == "packaged.apply_edge_op":
                    after = self._op_counts
                elif name == "tensor_formula.verify_identity":
                    after, on_error = self._verify_counts, self._verify_error
                elif name == "tensor_formula.run_verification":
                    name_of = lambda args, kwargs: f"tensor_formula.run_verification.{args[0].value}"
                wrapper = self.wrap(orig, name, after, on_error, name_of)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for short, classes in METHODS.items():
            home = sys.modules[f"ribbontensor.{short}"]
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for mname in methods:
                    orig = cls.__dict__[mname]
                    after = self._mul_counts if mname == "__mul__" else None
                    wrapper = self.wrap(orig, f"{short}.{cname}.{mname}", after)
                    for attr, value in list(vars(cls).items()):
                        if value is orig:
                            self._restore.append((cls, attr, orig))
                            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def by_name(self):
        """{name: (calls, self_s, total_s)} over every span recorded."""
        return {
            name: (self.calls[nid], self.self_s[nid], self.total_s[nid])
            for nid, name in enumerate(self.names)
        }

    def distinct_ops(self):
        return len(self._distinct_ops)

    def write(self, path):
        """Spans as flat arrays in native byte order (name id i32, parent
        i32, item i32, start f64, end f64), with a JSON header naming the
        ids."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "item:i", "start:d", "end:d"]}
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(path, "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end):
                arr.tofile(handle)

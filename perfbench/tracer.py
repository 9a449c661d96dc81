"""Spans and counters around liespec's public entry points, from outside.

``Tracer.install`` replaces each traced function in *every* liespec module
namespace that bound it (``liespec.spectral.verify_growth`` and
``liespec.cli.verify_growth`` are the same object under two names), so no
caller bypasses the span.  Methods are patched on their class.  Hot calls
(``LieAlgebra.bracket``, ``Subspace.contains``) get count-only wrappers.

Spans are kept in memory as parallel arrays (name, start, end, parent, job)
and written out as JSON by ``dump``; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter

# (module, attribute) of every traced function; the span is named
# "<module>.<attribute>".  Subspace.intersect reports as lie_core.span: like
# span() it is a public entry to the row reduction.
SPANS = [
    ("lie_core", "span"), ("lie_core", "solve_coordinates"),
    ("weighted", "build_filtration"), ("weighted", "is_algebraic_basis"),
    ("weighted", "is_reduced"), ("weighted", "reduce_basis"),
    ("weighted", "check_grading"), ("weighted", "contract"),
    ("weighted", "filtration_law_holds"),
    ("spectral", "make_backend"), ("spectral", "counting_function"),
    ("spectral", "verify_growth"), ("spectral", "heat_trace_l2"),
    ("spectral", "h1_heat_kernel"), ("spectral", "torus_embedding_witness"),
    ("spectral", "multiplier_norm_bound"),
    ("estimates", "annuli_integral_check"), ("estimates", "fit_gaussian_envelope"),
    ("forms", "heisenberg_rockland_check"),
    ("cli", "dispatch"), ("cli", "emit"),
]
METHOD_SPANS = [("lie_core", "LieAlgebra", "check_jacobi", "lie_core.check_jacobi"),
                ("lie_core", "Subspace", "intersect", "lie_core.span")]
METHOD_COUNTS = [("lie_core", "LieAlgebra", "bracket", "lie_core.bracket"),
                 ("lie_core", "Subspace", "contains", "lie_core.contains")]

COUNTING = "spectral.counting_function"
GROWTH = "spectral.verify_growth"


class Tracer:
    """Records spans and counts while installed.

    With ``alloc=True`` every counting_function call also runs under
    tracemalloc and its peak is kept; that slows allocation-heavy counting
    severalfold, so self times are taken from a tracer without it.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()
        self.alloc_peak_bytes = 0
        self.current_job = -1
        self.variant = ""
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self):
        slot = len(self.start)
        self.name_id.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self.current_job)
        return slot

    def span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            slot = tracer._open()
            tracer._stack.append((slot, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.name_id[slot] = tracer._nid(name)
                tracer.start[slot] = t0
                tracer.end[slot] = t1
                tracer.counts[name] += 1

        return traced

    def counting_wrapper(self, fn):
        """counting_function: split grid (under verify_growth) from point
        queries; with ``alloc`` also record the tracemalloc peak of the call."""
        tracer = self

        def traced(*args, **kwargs):
            grid = any(n == GROWTH for _, n in tracer._stack)
            name = COUNTING + (".grid" if grid else ".point")
            slot = tracer._open()
            tracer._stack.append((slot, name))
            if tracer.alloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if tracer.alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.alloc_peak_bytes = max(tracer.alloc_peak_bytes, peak)
                tracer._stack.pop()
                tracer.name_id[slot] = tracer._nid(name)
                tracer.start[slot] = t0
                tracer.end[slot] = t1
                tracer.counts[COUNTING] += 1

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            counts[name] += 1
            if tracer.variant:
                counts[name + "." + tracer.variant] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name; call ``uninstall`` to restore."""
        if self._patches:
            self._apply(self._patches)
            return
        mods = {k[len("liespec."):] if k != "liespec" else "": m
                for k, m in list(sys.modules.items())
                if k == "liespec" or k.startswith("liespec.")}
        patches = []
        for mod, attr in SPANS:
            original = getattr(mods[mod], attr, None) if mod in mods else None
            if original is None:
                continue
            name = f"{mod}.{attr}"
            wrapper = (self.counting_wrapper(original) if name == COUNTING
                       else self.span_wrapper(name, original))
            for ns in mods.values():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, key, original, wrapper))
        for mod, cls_name, meth, name in METHOD_SPANS + METHOD_COUNTS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            wrapper = (self.span_wrapper(name, original)
                       if (mod, cls_name, meth, name) in METHOD_SPANS
                       else self.count_wrapper(name, original))
            patches.append((cls, meth, original, wrapper))
        self._patches = patches
        self._apply(patches)

    @staticmethod
    def _apply(patches) -> None:
        for target, key, _, wrapper in patches:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._patches:
            setattr(target, key, original)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of direct children."""
        out: dict[str, float] = {}
        names = self.names
        nid, start, end, parent = self.name_id, self.start, self.end, self.parent
        for k in range(len(start)):
            if nid[k] < 0:
                continue
            dur = end[k] - start[k]
            name = names[nid[k]]
            out[name] = out.get(name, 0.0) + dur
            p = parent[k]
            if p >= 0 and nid[p] >= 0:
                pname = names[nid[p]]
                out[pname] = out.get(pname, 0.0) - dur
        return out

    def calls_under(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        nid, parent = self.name_id, self.parent
        total = 0
        for k in range(len(nid)):
            if nid[k] != cid:
                continue
            p = parent[k]
            while p >= 0:
                if nid[p] == aid:
                    total += 1
                    break
                p = parent[p]
        return total

    def absorb(self, other: dict) -> None:
        """Append spans and counts dumped by another process (``to_dict``)."""
        base = len(self.start)
        for name, s, e, p, job in zip(other["names"], other["start"], other["end"],
                                      other["parent"], other["job"]):
            self.name_id.append(self._nid(name) if name else -1)
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.job.append(self.current_job if job < 0 else job)
        self.counts.update(other["counts"])

    def to_dict(self) -> dict:
        return {
            "names": [self.names[i] if i >= 0 else "" for i in self.name_id],
            "start": list(self.start), "end": list(self.end),
            "parent": list(self.parent), "job": list(self.job),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        """Write every span (as ``to_dict``) and the counts to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

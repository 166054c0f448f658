"""In-memory span recorder for the benchmark's traced run.

While installed, the tracer rebinds the public functions of epshift's
modules (the names in each ``__all__``), wherever a module namespace holds
them, to recording wrappers, and ``PartialUltrafilter.member`` on its
class; ``remove`` restores the originals.  No source file is touched.

A span records its name, start, end, parent span and op id.  Spans open
only between ``begin_op`` and ``end_op``; the op's root span is
``bench.op``, so the self times of all spans of an op add up to the op's
wall time.  A call into a span of the same name as its caller (for
example ``hindman_search`` calling ``iht_search``) stays inside the
caller's span.
"""

from __future__ import annotations

import functools
import gzip
import time
import types
from array import array
from collections import Counter

import epshift
from epshift import cli, dynamics, epcore, filters, ipcore

# span name of each public function with its own per-layer metrics; every
# other public function of a layer module records as "<module>.other"
SPANS = {
    "generate_algebra": "epcore.generate_algebra",
    "build_partial_ultrafilter": "filters.build",
    "verify_filter": "filters.verify",
    "extend_filter": "filters.extend",
    "filter_member": "filters.filter_member",
    "hindman_search": "ipcore.search",
    "iht_search": "ipcore.search",
    "ip_sequence_construct": "ipcore.certificate",
    "verify_ip_certificate": "ipcore.certificate",
    "verify_iht_witness": "ipcore.certificate",
    "aet_to_iht_pipeline": "ipcore.pipeline",
    "is_uniformly_recurrent": "dynamics.decide",
    "are_proximal": "dynamics.decide",
    "ae_solve": "dynamics.solve",
    "eaet_extend": "dynamics.solve",
    "eaet_prime": "dynamics.solve",
    "orbit_closure": "dynamics.orbit",
    "covering_bound": "dynamics.orbit",
    "main": "cli.main",
    "build_parser": "cli.build_parser",
}
MODULES = (epcore, dynamics, ipcore, filters, cli)
NAMESPACES = (epshift, *MODULES)
ROOT = "bench.op"


def _public_functions() -> dict[str, tuple[object, str]]:
    found = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                found[name] = (obj, SPANS.get(name, f"{short}.other"))
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self._root = self._id(ROOT)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_op.append(self._op)
        self.s_end.append(0)
        self._stack.append(sid)
        self.s_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.s_end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._open(self._root)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        s_name, stack = self.s_name, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or s_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(result)
            return result

        return traced

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        counters = self.counters
        after = {
            "generate_algebra": lambda alg: counters.update({"epcore.algebra.members": len(alg)}),
            "hindman_search": lambda res: counters.update({"ipcore.search.found": int(res.found)}),
            "iht_search": lambda res: counters.update({"ipcore.search.found": int(res.found)}),
            "filter_member": lambda res: counters.update({"filters.filter_member.decided": 1}),
        }
        for name, (fn, span) in _public_functions().items():
            traced = self.wrap(span, fn, after.get(name))
            for ns in NAMESPACES:
                if getattr(ns, name, None) is fn:
                    self._restore.append((ns, name, fn))
                    setattr(ns, name, traced)

        member = filters.PartialUltrafilter.member
        traced_member = self.wrap("filters.member", member)

        def counted_member(f, x):
            # a call that reaches no filter_member decision was a cache hit
            before = counters["filters.filter_member.decided"]
            got = traced_member(f, x)
            if self._stack and counters["filters.filter_member.decided"] == before:
                counters["filters.member.cache_hits"] += 1
            return got

        self._restore.append((filters.PartialUltrafilter, "member", member))
        filters.PartialUltrafilter.member = counted_member

    def remove(self) -> None:
        while self._restore:
            ns, name, fn = self._restore.pop()
            setattr(ns, name, fn)

    # -- reading the spans ---------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A position to aggregate from: span count and counter snapshot."""
        return len(self.s_name), Counter(self.counters)

    def aggregate(self, since: tuple[int, Counter]) -> tuple[dict[str, list], Counter]:
        """Calls and self nanoseconds per span name, and counter increments,
        for the spans recorded after ``since``."""
        first, counted = since
        last = len(self.s_name)
        child_ns = [0] * (last - first)
        dur = [self.s_end[i] - self.s_start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.s_parent[i]
            if p >= first:
                child_ns[p - first] += dur[i - first]
        per_name: dict[str, list] = {}
        for i in range(first, last):
            entry = per_name.setdefault(self.names[self.s_name[i]], [0, 0])
            entry[0] += 1
            entry[1] += dur[i - first] - child_ns[i - first]
        return per_name, self.counters - counted

    def write(self, path) -> None:
        """Write every span as a gzipped CSV row."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,parent,op,start_ns,end_ns\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i},{self.names[self.s_name[i]]},{self.s_parent[i]},"
                         f"{self.s_op[i]},{self.s_start[i]},{self.s_end[i]}\n")

"""In-memory spans, taken by wrapping the package's public functions.

Each wrapper replaces a function where its caller looks it up (a module
attribute, or an entry of the constructor table), so the program itself
is not edited.  A span is (name, start, end, parent, item, units): parent
is the index of the enclosing span or -1, item is the benchmark's item
index, and units is the work count the call reports (leaves, edges,
bytes, ...).  A site that a later version of the program no longer has is
skipped.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter


# work counts read what the call already reports, and count 0 where a
# later version of the program no longer reports it
def _searched(args, result):
    return getattr(result, "searched", 0)


def _edges_out(args, result):
    return getattr(result, "edge_count", 0)


def _edges_in(args, result):
    return getattr(args[0], "edge_count", 0) if args else 0


def _text_in(args, result):
    return len(args[0])


def _text_out(args, result):
    return len(result)


def _hit(args, result):
    return int(hasattr(result, "labeling"))


# (module, attribute, span name, work units of one call)
SITES = (
    ("perrin_cordial", "sweep", "claims", None),
    ("perrin_cordial", "read_graph", "graph_io.read_graph", _text_in),
    ("perrin_cordial", "write_labeling", "graph_io.write_labeling", _text_out),
    ("perrin_cordial", "decide_exhaustive", "oracle.exhaustive", _searched),
    ("perrin_cordial.claims", "decide_exhaustive", "oracle.exhaustive", _searched),
    ("perrin_cordial.claims", "decide_bipartite", "oracle.analytic", _searched),
    ("perrin_cordial.claims", "decide_bistar_full", "oracle.analytic", _searched),
    ("perrin_cordial.claims", "construct_complete", "construct.complete", _hit),
    ("perrin_cordial.claims", "generate", "graphs.generate", _edges_out),
    ("perrin_cordial.construct", "generate", "graphs.generate", _edges_out),
    ("perrin_cordial.graphs", "generate", "graphs.generate", _edges_out),
    ("perrin_cordial.graph_io", "Graph", "graphs.graph", None),
    ("perrin_cordial.construct", "tally", "labeling.tally", _edges_in),
    ("perrin_cordial.construct", "realize", "labeling.realize", None),
    ("perrin_cordial.oracle", "realize", "labeling.realize", None),
    ("perrin_cordial.labeling", "even_count", "perrin", None),
    ("perrin_cordial.labeling", "even_indices", "perrin", None),
    ("perrin_cordial.labeling", "odd_indices", "perrin", None),
    ("perrin_cordial.labeling", "perrin_parity", "perrin", None),
    ("perrin_cordial.construct", "even_count", "perrin", None),
    ("perrin_cordial.oracle", "even_count", "perrin", None),
)
# every entry of perrin_cordial.construct.CONSTRUCTORS is wrapped as
# "construct.<family>" with _hit units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, units):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                work = units(args, result) if units and result is not None else 0
                spans[idx] = (name, t0, t1, parent, self.item, work)

        return traced

    def install(self) -> None:
        for modname, attr, name, units in SITES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                self._undo.append((setattr, mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, units))
        table = getattr(importlib.import_module("perrin_cordial.construct"), "CONSTRUCTORS", {})
        for family, fn in list(table.items()):
            self._undo.append((dict.__setitem__, table, family, fn))
            table[family] = self._wrap(fn, f"construct.{family}", _hit)

    def uninstall(self) -> None:
        while self._undo:
            put, target, key, fn = self._undo.pop()
            put(target, key, fn)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, item, units."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans: list[tuple], base: int = 0) -> dict[str, list]:
    """Per span name: [calls, units, self seconds]; plus construct candidates.

    Self time is a span's duration minus its direct children's durations
    (spans nest, so the children never overlap).  Indices in parent refer
    to the whole span list; base is the list index of spans[0].
    """
    child = defaultdict(float)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= base:
            child[parent] += t1 - t0
    totals: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
    candidates = 0
    for i, (name, t0, t1, parent, _, units) in enumerate(spans, start=base):
        row = totals[name]
        row[0] += 1
        row[1] += units
        row[2] += (t1 - t0) - child[i]
        if name == "labeling.tally" and parent >= base and spans[parent - base][0].startswith("construct."):
            candidates += 1
    totals["construct.candidates"] = [candidates, candidates, 0.0]
    return totals

"""JSON serialization for graphs and labelings, and figure-style DOT export.

Parsing is strict but purely structural: a labeling file with a duplicate
index parses fine and fails later at verification, so format errors and
semantic failures surface through different exit paths.  read_graph checks
a graph file's vertex_count and edges with the checker Graph(...) runs, so
both raise the same FormatError, and stores the checked pairs without a
second check.  A graph file holds vertex_count, edges and an optional
family; any other key, such as the roles map that older files carry, is
ignored.
"""

from __future__ import annotations

import json
from itertools import islice

from .graphs import FamilySpec, FormatError, Graph, _checked_edges, _trusted
from .labeling import PerrinLabeling, is_valid, to_parity
from .perrin import Parity

# figure convention: red for even (vertices and 0-labeled edges), black
# for odd (vertices and 1-labeled edges)
EVEN_COLOR = "red"
ODD_COLOR = "black"

# edges per piece of graph_chunks (about 50 KB), so gen never holds a whole file's text
_EDGE_CHUNK = 4096


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("json", f"malformed at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _require_int(obj: object, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise FormatError(field, f"expected an integer, got {obj!r}")
    return obj


def graph_chunks(n: int, edges, family: FamilySpec | None = None):
    """The document (vertex_count, edges, family) as json.dumps writes it, _EDGE_CHUNK edges a piece."""
    yield f'{{"vertex_count": {json.dumps(n)}, "edges": ['
    edges, sep = iter(edges), ""
    while chunk := list(islice(edges, _EDGE_CHUNK)):
        yield sep + json.dumps(chunk)[1:-1]
        sep = ", "
    yield "]"
    if family is not None:
        yield ', "family": ' + json.dumps({"name": family.name, "params": family.params})
    yield "}\n"


def write_graph(g: Graph) -> str:
    """The JSON text of graph_chunks for g as one string."""
    return "".join(graph_chunks(g.vertex_count, g.edges, g.family))


def read_graph(text: str) -> Graph:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("document", "expected a JSON object")
    if "vertex_count" not in doc:
        raise FormatError("vertex_count", "missing")
    n = doc["vertex_count"]
    edges = _checked_edges(n, doc.get("edges", []))
    family = None
    if "family" in doc and doc["family"] is not None:
        fam = doc["family"]
        if not (isinstance(fam, dict) and "name" in fam and "params" in fam):
            raise FormatError("family", "expected an object with name and params")
        if not isinstance(fam["params"], list):
            raise FormatError("family.params", f"expected a list of integers, got {fam['params']!r}")
        params = tuple(_require_int(p, "family.params") for p in fam["params"])
        family = FamilySpec(fam["name"], params)
    return _trusted(n, edges, family)


def write_labeling(f: PerrinLabeling) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n", without its pure-Python encoder."""
    entries = ",\n".join(
        f'    {{\n      "vertex": {v},\n      "index": {f.assignment[v]}\n    }}'
        for v in sorted(f.assignment)
    )
    listed = f"[\n{entries}\n  ]" if entries else "[]"
    return f'{{\n  "domain_max": {f.domain_max},\n  "assignment": {listed}\n}}\n'


def read_labeling(text: str) -> PerrinLabeling:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("document", "expected a JSON object")
    if "domain_max" not in doc:
        raise FormatError("domain_max", "missing")
    domain_max = _require_int(doc["domain_max"], "domain_max")
    raw = doc.get("assignment", [])
    if not isinstance(raw, list):
        raise FormatError("assignment", "expected a list of {vertex, index} entries")
    assignment: dict[int, int] = {}
    for i, entry in enumerate(raw):
        if not (isinstance(entry, dict) and "vertex" in entry and "index" in entry):
            raise FormatError(f"assignment[{i}]", f"expected {{vertex, index}}, got {entry!r}")
        v, idx = entry["vertex"], entry["index"]
        if type(v) is not int or type(idx) is not int:
            key = "vertex" if type(v) is not int else "index"
            raise FormatError(f"assignment[{i}].{key}", f"expected an integer, got {entry[key]!r}")
        if v in assignment:
            raise FormatError(f"assignment[{i}]", f"vertex {v} listed twice")
        assignment[v] = idx
    return PerrinLabeling(assignment=assignment, domain_max=domain_max)


def dot_lines(n: int, edges, f: PerrinLabeling):
    """Figure-style DOT text, line by line as it is made: red for even labels, black for odd.

    Vertices 0..n-1 carry their sequence-index name (P_i); edges, read once
    from any iterable, are colored by their induced label (0 red, 1 black).
    Output is byte-stable for identical inputs.  f is trusted to be valid:
    export_dot and export-dot check it, and label --dot passes a constructed one.
    """
    pattern = to_parity(f)
    yield "graph {\n  node [shape=circle];\n"
    for v in range(n):
        color = EVEN_COLOR if pattern[v] is Parity.EVEN else ODD_COLOR
        yield f'  {v} [label="P_{f.assignment[v]}" color={color} fontcolor={color}];\n'
    for u, v in edges:
        color = EVEN_COLOR if pattern[u] is pattern[v] else ODD_COLOR
        yield f"  {u} -- {v} [color={color}];\n"
    yield "}\n"


def export_dot(g: Graph, f: PerrinLabeling) -> str:
    """The DOT text of dot_lines for g and f as one string; ValueError if f is not valid for g."""
    if not is_valid(g, f):
        raise ValueError("labeling is not valid for this graph")
    return "".join(dot_lines(g.vertex_count, g.edges, f))

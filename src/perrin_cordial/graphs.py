"""Simple undirected graphs and the ten supported graph families.

Vertex numbering is canonical per family so that labelings reproduce
byte-for-byte:

  path(n)                 0..n-1 along the path
  cycle(n)                0..n-1 around the cycle
  complete(n)             0..n-1
  complete_bipartite(m,n) left side 0..m-1, right side m..m+n-1
  star(n)                 complete_bipartite(1, n): apex 0, leaves 1..n
  wheel(n)                hub 0, rim 1..n in cycle order
  bistar(m,n)             apexes 0 and 1; pendants of 0 are 2..m+1,
                          pendants of 1 are m+2..m+n+1
  triangular_snake(n)     path vertices 0..n, blade tips n+1..2n
                          (tip n+i sits over path edge (i-1, i))
  friendship(n)           apex 0; blade i is (2i-1, 2i)
  jellyfish(m1,m2)        internal 0,1,2,3 with edges {01,02,03,12,13};
                          m1 pendants 4..m1+3 on vertex 2,
                          m2 pendants m1+4..m1+m2+3 on vertex 3

A graph is its vertex count, its edges and an optional family: a labeling
is defined from V(G) and E(G) alone.  Each family lists its edges as a few
cliques, joins and zipped lanes over vertex ranges (_pieces), which the
constructors' tally gate and degree-parity certificate read; a class
family's come from the class quotient (_QUOTIENTS) that the class scan
reads.  Their edge stream (_edge_stream) is what gen and label --dot read
as it comes and generate stores unchecked (_trusted): its edges are sorted
and normalized by construction, and a test rebuilds them through
Graph(...) over a grid.  Every other graph passes _checked_edges, which
Graph(...) and read_graph share, so each fault raises the same FormatError.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from itertools import chain, combinations, product

# each family's parameter names and the lower bound they all share
_FAMILIES = {
    "path": ("n", 1),
    "cycle": ("n", 3),
    "complete": ("n", 1),
    "complete_bipartite": ("m n", 1),
    "star": ("n", 1),
    "wheel": ("n", 3),
    "bistar": ("m n", 1),
    "triangular_snake": ("n", 1),
    "friendship": ("n", 1),
    "jellyfish": ("m1 m2", 0),
}

# _pieces raises for a graph with more edges, so the bound holds wherever the edges are read:
# gen, label --dot, generate, the block scan's certificate and the tally gate.  The class
# scan reads only the parameters and meets it at the gate, on a hit, so a class family's
# Infeasible comes at any size.  Streamed, K_{2000,2001} (4,002,000 edges) peaks at 17 MB,
# but a stored edge costs 64 bytes (322 MB); label path 1000001 holds its labeling as one
# byte per vertex and peaks at 21 MB
_EDGES_MAX = 5_000_000

FAMILY_NAMES = tuple(_FAMILIES)

# each class family's quotient (singles, cliques, joins): `singles` single vertices, then one
# class per parameter, in vertex-id order; its joins are listed in the order that sorts the edges
_QUOTIENTS = {
    "complete": (0, (0,), ()),
    "complete_bipartite": (0, (), ((0, 1),)),
    "star": (1, (), ((0, 1),)),
    "bistar": (2, (), ((0, 1), (0, 2), (1, 3))),
    "jellyfish": (4, (), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5))),
}

# largest vertex_count a graph may have; the checker allocates nothing per
# vertex, but decide_parity's degree list, is_valid's vertex set and
# dot_lines' parity pattern do
_VERTEX_COUNT_MAX = 10_000_000


class FormatError(ValueError):
    """Malformed JSON, graph fields or options, with a field diagnostic."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class FamilyParameterError(ValueError):
    """Raised when family parameters violate their documented bounds."""


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        # the tuple, not the dict: an unhashable name read from JSON is just unknown
        if self.name not in FAMILY_NAMES:
            raise FamilyParameterError(f"unknown family {self.name!r}")
        for p in self.params:
            # no silent int(): 2.7 and "3" are not sizes, and True is not 1
            if isinstance(p, bool) or not isinstance(p, int):
                raise FamilyParameterError(f"{self.name} parameters must be integers, got {p!r}")
        names, lo = _FAMILIES[self.name]
        names = names.split()
        if len(self.params) != len(names):
            raise FamilyParameterError(
                f"{self.name} takes {len(names)} parameter(s), got {len(self.params)}"
            )
        if any(p < lo for p in self.params):
            bound = " and ".join(f"{name} >= {lo}" for name in names)
            raise FamilyParameterError(f"{self.name}{self.params} violates bound {bound}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    Edges are normalized to sorted (u, v) pairs with u < v and stored in
    sorted order, so iteration is deterministic.  The constructor checks
    its input with _checked_edges (see the module docstring) and raises
    FormatError("family", ...) unless family is None or a FamilySpec.
    Graphs from generate skip it.  family is keyword-only.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    _: KW_ONLY
    family: FamilySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(_checked_edges(self.vertex_count, self.edges)))
        if self.family is not None and not isinstance(self.family, FamilySpec):
            raise FormatError("family", f"expected a FamilySpec or None, got {self.family!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _checked_edges(n: int, edges: list | tuple) -> list[tuple[int, int]]:
    """The sorted, normalized pairs of a list or tuple of [u, v] pairs on n vertices; the first
    fault, edges in list order, raises a FormatError naming vertex_count, edges, edges[i] or edges[i][k]."""
    if type(n) is not int:
        raise FormatError("vertex_count", f"expected an integer, got {n!r}")
    if not 0 <= n <= _VERTEX_COUNT_MAX:
        raise FormatError("vertex_count", f"must be between 0 and {_VERTEX_COUNT_MAX}, got {n}")
    if type(edges) is not list and type(edges) is not tuple:
        raise FormatError("edges", "expected a list of [u, v] pairs")
    most = n * (n - 1) // 2
    if len(edges) > most:
        raise FormatError("edges", f"{len(edges)} listed, but a simple graph on {n} vertices has at most {most}")
    first: dict[tuple[int, int], int] = {}
    for i, e in enumerate(edges):
        if type(e) is not list and type(e) is not tuple or len(e) != 2:
            raise FormatError(f"edges[{i}]", f"expected a [u, v] pair, got {e!r}")
        u, v = e
        if type(u) is not int or type(v) is not int:
            k = 0 if type(u) is not int else 1
            raise FormatError(f"edges[{i}][{k}]", f"expected an integer, got {e[k]!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edges[{i}]", f"edge [{u}, {v}] out of range 0..{n - 1}")
        if u == v:
            raise FormatError(f"edges[{i}]", f"self-loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        if first.setdefault(pair, i) != i:
            raise FormatError(f"edges[{i}]", f"duplicate of edges[{first[pair]}], edge {pair}")
    return sorted(first)


def _trusted(n: int, edges: list[tuple[int, int]], spec: FamilySpec | None) -> Graph:
    """A graph stored as given: edges with 0 <= u < v < n, distinct and in
    sorted order, from generate's stream or _checked_edges.  Nothing is checked."""
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", n)
    object.__setattr__(g, "edges", tuple(edges))
    object.__setattr__(g, "family", spec)
    return g


def _pieces(spec: FamilySpec):
    """(|V|, |E|, the pieces of the edges) of the family graph with canonical numbering.

    A piece is ("clique", A, A), ("join", A, B) or ("zip", A, lanes) over
    vertex ranges: the pairs of A, A x B, or a_i's edge to the i-th vertex of
    each lane in turn.  A class family has one per clique class, then one
    per joined pair.  Listed in order, the pieces' edges are (u, v) with
    u < v, distinct and in sorted order.  A graph with more than _EDGES_MAX
    edges raises FamilyParameterError before any edge is made.
    """
    name, params, r = spec.name, spec.params, range
    n = params[0]
    if name in _QUOTIENTS:
        singles, cliques, joins = _QUOTIENTS[name]
        c, count = [r(i, i + 1) for i in range(singles)], singles
        for t in params:
            c.append(r(count, count + t))
            count += t
        pieces = (*[("clique", c[i], c[i]) for i in cliques], *[("join", c[i], c[j]) for i, j in joins])
    elif name == "path":
        count, pieces = n, (("zip", r(n - 1), (r(1, n),)),)
    elif name == "cycle":
        count, pieces = n, (("zip", r(1), (r(1, 2), r(n - 1, n))), ("zip", r(1, n - 1), (r(2, n),)))
    elif name == "wheel":
        rim = ("zip", r(1, 2), (r(2, 3), r(n, n + 1))), ("zip", r(2, n), (r(3, n + 1),))
        count, pieces = n + 1, (("join", r(1), r(1, n + 1)), *rim)
    elif name == "triangular_snake":
        # path vertex i < n is followed by its path edge, then its two tips
        inner = ("zip", r(1, n), (r(2, n + 1), r(n + 1, 2 * n), r(n + 2, 2 * n + 1)))
        pieces = ("zip", r(1), (r(1, 2), r(n + 1, n + 2))), inner, ("zip", r(n, n + 1), (r(2 * n, 2 * n + 1),))
        count = 2 * n + 1
    else:  # friendship
        blades = ("zip", r(1, 2 * n, 2), (r(2, 2 * n + 1, 2),))
        count, pieces = 2 * n + 1, (("join", r(1), r(1, 2 * n + 1)), blades)
    size = sum([len(a) * (len(a) - 1) // 2 if kind == "clique" else len(a) * len(b) for kind, a, b in pieces])
    if size > _EDGES_MAX:
        raise FamilyParameterError(f"{name}{params} has {size:,} edges, over the {_EDGES_MAX:,} limit")
    return count, size, pieces


def _edge_stream(spec: FamilySpec):
    """(|V|, |E|, an iterator over the edges) of the family graph: each piece's pairs in
    turn, a join's in product order and a zip's lanes a-major."""
    count, size, pieces = _pieces(spec)
    streams = [
        combinations(a, 2) if kind == "clique" else product(a, b) if kind == "join"
        else zip(a, *b) if len(b) == 1 else chain.from_iterable(zip(*[zip(a, lane) for lane in b]))
        for kind, a, b in pieces
    ]
    return count, size, chain.from_iterable(streams)


def generate(spec: FamilySpec) -> Graph:
    """Build the family graph with canonical numbering: _edge_stream's edges, stored."""
    count, _, edges = _edge_stream(spec)
    return _trusted(count, list(edges), spec)

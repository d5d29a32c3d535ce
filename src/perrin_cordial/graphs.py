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
"""

from __future__ import annotations

from dataclasses import dataclass

ROLES = ("apex", "hub", "rim", "path", "pendant", "blade-tip", "internal", "generic")

FAMILY_NAMES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "wheel",
    "bistar",
    "triangular_snake",
    "friendship",
    "jellyfish",
)

_PARAM_COUNTS = {
    "path": 1,
    "cycle": 1,
    "complete": 1,
    "complete_bipartite": 2,
    "star": 1,
    "wheel": 1,
    "bistar": 2,
    "triangular_snake": 1,
    "friendship": 1,
    "jellyfish": 2,
}

_BOUNDS = {
    "path": "n >= 1",
    "cycle": "n >= 3",
    "complete": "n >= 1",
    "complete_bipartite": "m >= 1 and n >= 1",
    "star": "n >= 1",
    "wheel": "n >= 3",
    "bistar": "m >= 1 and n >= 1",
    "triangular_snake": "n >= 1",
    "friendship": "n >= 1",
    "jellyfish": "m1 >= 0 and m2 >= 0",
}


class FamilyParameterError(ValueError):
    """Raised when family parameters violate their documented bounds."""


class UnknownVertexError(ValueError):
    """Raised when an operation references a vertex id outside the graph."""


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.name not in FAMILY_NAMES:
            raise FamilyParameterError(f"unknown family {self.name!r}")
        want = _PARAM_COUNTS[self.name]
        if len(self.params) != want:
            raise FamilyParameterError(
                f"{self.name} takes {want} parameter(s), got {len(self.params)}"
            )
        lo = 0 if self.name == "jellyfish" else 3 if self.name in ("cycle", "wheel") else 1
        if any(p < lo for p in self.params):
            raise FamilyParameterError(
                f"{self.name}{self.params} violates bound {_BOUNDS[self.name]}"
            )


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with per-vertex roles.

    Edges are normalized to sorted (u, v) pairs with u < v and stored in
    sorted order, so iteration is deterministic.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    roles: tuple[str, ...] = ()
    family: FamilySpec | None = None

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{self.vertex_count - 1}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        roles = self.roles or ("generic",) * self.vertex_count
        if len(roles) != self.vertex_count:
            raise ValueError("roles must list one role per vertex")
        for r in roles:
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r}")
        object.__setattr__(self, "roles", tuple(roles))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def generate(spec: FamilySpec) -> Graph:
    """Build the family graph with canonical numbering and vertex roles."""
    name, params = spec.name, spec.params
    if name == "path":
        (n,) = params
        return Graph(n, tuple(_path_edges(n)), ("path",) * n, spec)
    if name == "cycle":
        (n,) = params
        edges = _path_edges(n) + [(0, n - 1)]
        return Graph(n, tuple(edges), ("rim",) * n, spec)
    if name == "complete":
        (n,) = params
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, tuple(edges), ("generic",) * n, spec)
    if name in ("complete_bipartite", "star"):
        if name == "star":
            m, n = 1, params[0]
        else:
            m, n = params
        edges = [(a, m + b) for a in range(m) for b in range(n)]
        if m == 1:
            roles = ("apex",) + ("pendant",) * n
        else:
            roles = ("generic",) * (m + n)
        return Graph(m + n, tuple(edges), roles, spec)
    if name == "wheel":
        (n,) = params
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, i + 1) for i in range(1, n)]
        edges.append((1, n))
        return Graph(n + 1, tuple(edges), ("hub",) + ("rim",) * n, spec)
    if name == "bistar":
        m, n = params
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(m)]
        edges += [(1, 2 + m + i) for i in range(n)]
        roles = ("apex", "apex") + ("pendant",) * (m + n)
        return Graph(m + n + 2, tuple(edges), roles, spec)
    if name == "triangular_snake":
        (n,) = params
        edges = _path_edges(n + 1)
        edges += [(i - 1, n + i) for i in range(1, n + 1)]
        edges += [(i, n + i) for i in range(1, n + 1)]
        roles = ("path",) * (n + 1) + ("blade-tip",) * n
        return Graph(2 * n + 1, tuple(edges), roles, spec)
    if name == "friendship":
        (n,) = params
        edges = [(0, i) for i in range(1, 2 * n + 1)]
        edges += [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
        roles = ("apex",) + ("blade-tip",) * (2 * n)
        return Graph(2 * n + 1, tuple(edges), roles, spec)
    if name == "jellyfish":
        m1, m2 = params
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        edges += [(2, 4 + i) for i in range(m1)]
        edges += [(3, 4 + m1 + i) for i in range(m2)]
        roles = ("internal",) * 4 + ("pendant",) * (m1 + m2)
        return Graph(m1 + m2 + 4, tuple(edges), roles, spec)
    raise FamilyParameterError(f"unknown family {name!r}")


def induced_subgraph(g: Graph, keep) -> tuple[Graph, tuple[int, ...]]:
    """Vertex-induced subgraph with contiguous new ids.

    Returns (subgraph, back) where back[new_id] = old_id.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.vertex_count):
            raise UnknownVertexError(f"vertex {v} not in graph with {g.vertex_count} vertices")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    roles = tuple(g.roles[v] for v in kept)
    return Graph(len(kept), tuple(edges), roles, None), tuple(kept)


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.vertex_count

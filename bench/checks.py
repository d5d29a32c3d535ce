"""Output checks written independently of perrin_cordial.

Nothing here imports the package under test.  The sequence parity, the
edge tally, the index-domain check, the family edge sets and the
infeasibility proofs are all re-derived from the definitions, so a defect
in the program cannot also hide itself in the check that judges it.
"""

from __future__ import annotations

import functools
from typing import Iterable

Edge = tuple[int, int]


@functools.lru_cache(maxsize=None)
def _sequence_prefix(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Values and parities of terms 0..n of 0, 3, 0, 2, 3, 2, 5, ..."""
    vals = [0, 3, 0, 2]
    while len(vals) <= n:
        vals.append(vals[-2] + vals[-3])
    vals = vals[: n + 1]
    return tuple(vals), tuple(v & 1 for v in vals)


def sequence_values(n: int) -> tuple[int, ...]:
    return _sequence_prefix(n)[0]


def index_parities(n: int) -> tuple[int, ...]:
    """Parity (0 even, 1 odd) of every sequence index 0..n."""
    return _sequence_prefix(n)[1]


def even_index_count(n: int) -> int:
    return index_parities(n).count(0)


def admissible_even_sizes(n: int) -> tuple[int, ...]:
    """Even-vertex counts that indices {0..n} with one skipped can realize."""
    e = even_index_count(n)
    return tuple(s for s in (e - 1, e) if 0 <= s <= n)


def family_graph(name: str, params: tuple[int, ...]) -> tuple[int, list[Edge]]:
    """(vertex_count, edges) of a family graph in the documented numbering."""
    if name == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "cycle":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if name == "complete":
        (n,) = params
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if name in ("complete_bipartite", "star"):
        m, n = (1, params[0]) if name == "star" else params
        return m + n, [(a, m + b) for a in range(m) for b in range(n)]
    if name == "wheel":
        (n,) = params
        rim = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return n + 1, [(0, i) for i in range(1, n + 1)] + rim
    if name == "bistar":
        m, n = params
        pend = [(0, 2 + i) for i in range(m)] + [(1, 2 + m + i) for i in range(n)]
        return m + n + 2, [(0, 1)] + pend
    if name == "triangular_snake":
        (n,) = params
        path = [(i, i + 1) for i in range(n)]
        tips = [(i - 1, n + i) for i in range(1, n + 1)] + [(i, n + i) for i in range(1, n + 1)]
        return 2 * n + 1, path + tips
    if name == "friendship":
        (n,) = params
        blades = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
        return 2 * n + 1, [(0, i) for i in range(1, 2 * n + 1)] + blades
    if name == "jellyfish":
        m1, m2 = params
        pend = [(2, 4 + i) for i in range(m1)] + [(3, 4 + m1 + i) for i in range(m2)]
        return m1 + m2 + 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)] + pend
    raise KeyError(name)


def edge_tally(n: int, edges: Iterable[Edge], indices: list[int]) -> tuple[int, int]:
    """(e0, e1) of the labeling that gives vertex v the sequence index indices[v]."""
    par = index_parities(max(indices, default=0))
    p = [par[i] for i in indices]
    e0 = e1 = 0
    for u, v in edges:
        if p[u] == p[v]:
            e0 += 1
        else:
            e1 += 1
    return e0, e1


def labeling_error(
    n: int, edges: list[Edge], domain_max: int, pairs: Iterable[tuple[int, int]]
) -> str | None:
    """Why (vertex, index) pairs are not a cordial labeling of the graph, or None."""
    if domain_max != n:
        return f"domain_max {domain_max} != vertex count {n}"
    indices = [-1] * n
    for v, i in pairs:
        if not (0 <= v < n) or indices[v] != -1:
            return f"vertex {v} out of range or labeled twice"
        if not (0 <= i <= n):
            return f"index {i} outside 0..{n}"
        indices[v] = i
    if -1 in indices:
        return "a vertex is unlabeled"
    if len(set(indices)) != n:
        return "an index is used twice"
    e0, e1 = edge_tally(n, edges, indices)
    if abs(e0 - e1) > 1:
        return f"not cordial: e0={e0} e1={e1}"
    return None


def parity_certificate(n: int, edges: list[Edge]) -> bool:
    """Every degree even and |E| = 2 (mod 4): no labeling is cordial.

    With all degrees even every cut is even, but balance would need
    e1 = |E|/2, which is odd.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return len(edges) % 4 == 2 and all(d % 2 == 0 for d in deg)


def _twin_classes(n: int, edges: list[Edge]) -> tuple[list[int], list[bool], list[list[bool]]]:
    """Exchangeable vertex classes: sizes, whether internally adjacent, class adjacency."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    by_open: dict[frozenset, list[int]] = {}
    for v in range(n):
        by_open.setdefault(frozenset(nbrs[v]), []).append(v)
    groups, clique = [], []
    by_closed: dict[frozenset, list[int]] = {}
    for members in by_open.values():
        if len(members) > 1:
            groups.append(members)
            clique.append(False)
        else:
            v = members[0]
            by_closed.setdefault(frozenset(nbrs[v] | {v}), []).append(v)
    for members in by_closed.values():
        groups.append(members)
        clique.append(len(members) > 1)
    adj = [[g is not h and h[0] in nbrs[g[0]] for h in groups] for g in groups]
    return [len(g) for g in groups], clique, adj


def brute_force_feasible(n: int, edges: list[Edge]) -> bool:
    """Whether any realizable parity pattern balances the edge labels.

    Vertices with the same neighbourhood are exchangeable, so the search
    runs over how many even vertices each such class holds, which covers
    every labeling; graphs without twins fall back to plain subsets.
    """
    sizes, clique, adj = _twin_classes(n, edges)
    targets = admissible_even_sizes(n)
    if not targets:
        return False
    lo, hi = min(targets), max(targets)
    total = len(edges)
    k = len(sizes)
    earlier = [[j for j in range(i) if adj[i][j]] for i in range(k)]
    rest = [sum(sizes[i:]) for i in range(k)] + [0]
    counts = [0] * k

    def rec(i: int, evens: int, cut: int) -> bool:
        if i == k:
            return evens in targets and abs(total - 2 * cut) <= 1
        t = sizes[i]
        for a in range(min(t, hi - evens) + 1):
            if evens + a + rest[i + 1] < lo:
                continue
            gained = a * (t - a) if clique[i] else 0
            for j in earlier[i]:
                gained += a * (sizes[j] - counts[j]) + counts[j] * (t - a)
            counts[i] = a
            if rec(i + 1, evens + a, cut + gained):
                return True
        return False

    return rec(0, 0, 0)

"""Feasibility deciders: exhaustive even-set search and a degree-parity certificate.

The exhaustive decider searches even-vertex sets S rather than labelings:
the imbalance of any pattern equals |E| - 2*cut(S), and index availability
confines |S| to {even_count(|V|) - 1, even_count(|V|)}.  That collapses a
factorial search space to at most two binomial coefficients.  Enumeration
is depth-first in ascending vertex order (sizes ascending first), so the
reported witness is the first feasible set in that documented order.
decide_exhaustive always enumerates in full, so it stays an independent
check on the certificate below and on the count scans of the family
constructors, which decide the count-determined families (complete,
complete bipartite, star, bistar) in the claims sweep.

The degree-parity certificate (decide_parity) proves infeasibility without
search: cut(S) is congruent to the number of odd-degree vertices in S
(mod 2), so when every degree is even each cut is even, while a graph with
|E| = 2 (mod 4) needs the odd cut |E|/2.  It reads degrees from the edges
only, in O(|V| + |E|).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .labeling import PerrinLabeling, feasible_even_counts, realize
from .perrin import Parity

E, O = Parity.EVEN, Parity.ODD


class GraphTooLargeError(ValueError):
    def __init__(self, vertex_count: int, cap: int):
        self.vertex_count = vertex_count
        self.cap = cap
        super().__init__(
            f"graph has {vertex_count} vertices, exhaustive search is capped at {cap}"
        )


@dataclass(frozen=True)
class SearchConfig:
    max_vertices: int = 24
    want_witness: bool = True


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    witness: PerrinLabeling | None = None
    searched: int = 0
    reason: str = ""


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _search_size(n: int, k: int, adj: list[int], deg: list[int], edge_total: int):
    """First subset of size k (ascending-lex) with ||E| - 2 cut| <= 1.

    Returns (hit_or_None, leaves_examined).
    """
    examined = 0
    hit: tuple[int, ...] | None = None

    def rec(start: int, chosen: list[int], mask: int, degsum: int, within: int) -> bool:
        nonlocal examined, hit
        remaining = k - len(chosen)
        if remaining == 0:
            examined += 1
            cut = degsum - 2 * within
            if abs(edge_total - 2 * cut) <= 1:
                hit = tuple(chosen)
                return True
            return False
        if remaining == 1:
            # last vertex: one leaf per v, scanned inline instead of recursing
            base = degsum - 2 * within
            for v in range(start, n):
                cut = base + deg[v] - 2 * (adj[v] & mask).bit_count()
                if abs(edge_total - 2 * cut) <= 1:
                    examined += v - start + 1
                    hit = (*chosen, v)
                    return True
            examined += n - start
            return False
        for v in range(start, n - remaining + 1):
            gained = (adj[v] & mask).bit_count()
            chosen.append(v)
            if rec(v + 1, chosen, mask | (1 << v), degsum + deg[v], within + gained):
                return True
            chosen.pop()
        return False

    rec(0, [], 0, 0, 0)
    return hit, examined


def decide_parity(g: Graph) -> Verdict | None:
    """Infeasible when every degree is even and |E| = 2 (mod 4), else None."""
    m = g.edge_count
    if m % 4 != 2:
        return None
    deg = [0] * g.vertex_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    if any(d % 2 for d in deg):
        return None
    return Verdict(
        feasible=False,
        searched=0,
        reason=f"degree-parity certificate: every degree is even, so every labeling has an "
        f"even number of odd edges, but |E| = {m} = 2 (mod 4) needs {m // 2} of them",
    )


def decide_exhaustive(g: Graph, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Decide cordial feasibility of g by exhaustive even-set search."""
    n = g.vertex_count
    if n > cfg.max_vertices:
        raise GraphTooLargeError(n, cfg.max_vertices)
    adj = _adjacency_masks(g)
    deg = [m.bit_count() for m in adj]
    edge_total = g.edge_count
    sizes = feasible_even_counts(n)

    searched = 0
    hit: tuple[int, ...] | None = None
    for k in sizes:
        sub_hit, examined = _search_size(n, k, adj, deg, edge_total)
        searched += examined
        if sub_hit is not None:
            hit = sub_hit
            break

    if hit is None:
        return Verdict(
            feasible=False,
            searched=searched,
            reason=f"no even-vertex set of size in {sizes} balances the edge labels",
        )
    witness = None
    if cfg.want_witness:
        s = set(hit)
        pattern = tuple(E if v in s else O for v in range(n))
        witness = realize(g, pattern)
    return Verdict(feasible=True, witness=witness, searched=searched)

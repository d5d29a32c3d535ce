"""Feasibility deciders: exhaustive even-set search and a degree-parity certificate.

The exhaustive decider searches even-vertex sets S rather than labelings:
the imbalance of any pattern equals |E| - 2*cut(S), and index availability
confines |S| to {even_count(|V|) - 1, even_count(|V|)}, tried in that order.
Each S is a low part L plus a high part H from the last min(|V|, 8) vertices.
The L's are walked depth-first, each L's extensions before its own block of
every H of the remaining size.  One packed integer holds cut(L + H) for all
H, so a few big-integer operations test a whole block, and the highest
marked field is its lex-first hit.  That visits every set in
itertools.combinations order, so the witness is the first balanced set and
`searched` its 1-based position.  Degree parity is never consulted, so
decide_exhaustive stays an independent check on the certificate below and
on the constructors; CLI decide runs it after the certificate.

The degree-parity certificate (decide_parity) proves infeasibility without
search: cut(S) is congruent to the number of odd-degree vertices in S
(mod 2), so when every degree is even each cut is even, while a graph with
|E| = 2 (mod 4) needs the odd cut |E|/2.  It reads degrees from the edges
only, in O(|V| + |E|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from types import SimpleNamespace

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


HIGH = 8  # the split search packs the last min(n, HIGH) vertices


@lru_cache(maxsize=None)
def _tables(h: int, width: int) -> tuple:
    """ONES, GUARD, each high vertex's indicator and all-ones fields, |H & mask| per
    neighbour mask (bit i = high vertex i) and the guard bits of each |H|.  Field
    x (width bits, guard on top) is the H with index bits x, high vertex i at bit h - 1 - i."""
    fields = range(1 << h)
    ones = sum(1 << (x * width) for x in fields)
    ind = [sum(1 << (x * width) for x in fields if x >> (h - 1 - i) & 1) for i in range(h)]
    counts = [0] * (1 << h)
    for mask in range(1, 1 << h):
        counts[mask] = counts[mask & (mask - 1)] + ind[(mask & -mask).bit_length() - 1]
    size_masks = [0] * (h + 1)
    for x in fields:
        size_masks[x.bit_count()] |= 1 << (x * width + width - 1)
    return ones, ones << (width - 1), ind, [x * ((1 << width) - 1) for x in ind], counts, size_masks


def _pack(n: int, adj: list[int], deg: list[int], edge_total: int) -> SimpleNamespace:
    """A graph's targets (t * ONES per balanced cut t), base (cut(H)), rows[u] (2 |N(u) & H|)."""
    low = n - min(n, HIGH)
    width = (n * (n - 1) // 2).bit_length() + 1  # any cut fits below the guard bit
    ones, guard, ind, fields_of, counts, size_masks = _tables(n - low, width)
    # cut(H) sums deg(v) - |N(v) & H| over the high v in H
    high = zip(range(low, n), ind, fields_of)
    base = sum(deg[v] * x - (counts[adj[v] >> low] & f) for v, x, f in high)
    return SimpleNamespace(
        width=width, ones=ones, guard=guard, size_masks=size_masks, base=base,
        targets=[t * ones for t in range(edge_total // 2, (edge_total + 1) // 2 + 1)],
        rows=[counts[adj[u] >> low] << 1 for u in range(low)],
    )


def _search_size(
    n: int, k: int, adj: list[int], deg: list[int], edge_total: int, p: SimpleNamespace
):
    """(first k-subset in ascending-lex order with ||E| - 2 cut| <= 1 or None, sets examined).

    p is the graph's _pack, shared by both sizes."""
    h = min(n, HIGH)
    low = n - h
    examined = 0
    chosen: list[int] = []

    def rec(start: int, mask: int, cut: int, acc: int) -> bool:
        # acc field H: cut(H) - 2 e(chosen, H)
        nonlocal examined
        depth = len(chosen)
        for v in range(start, min(low, n - k + depth + 1) if depth < k else start):
            chosen.append(v)
            grown = cut + deg[v] - 2 * (adj[v] & mask).bit_count()
            if rec(v + 1, mask | 1 << v, grown, acc - p.rows[v]):
                return True
            chosen.pop()
        s = k - depth
        if s == 0:
            examined += 1
            return abs(edge_total - 2 * cut) <= 1
        if s > h:
            return False
        # the block: chosen + H for every high H of size s, H in lex order
        x = acc + cut * p.ones  # field H: cut(chosen + H)
        hits = 0
        for t in p.targets:
            hits |= p.guard - (x ^ t)  # guard survives where the field equals t
        hits &= p.size_masks[s]
        if not hits:
            examined += comb(h, s)
            return False
        top = hits.bit_length() - 1  # highest field: the lex-first hit
        examined += (p.size_masks[s] >> top).bit_count()
        x = top // p.width
        chosen.extend(low + i for i in range(h) if x >> (h - 1 - i) & 1)
        return True

    found = rec(0, 0, 0, p.base)
    return (tuple(chosen) if found else None), examined


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
    sizes = feasible_even_counts(n)
    packed = _pack(n, adj, deg, g.edge_count)
    searched = 0
    for k in sizes:
        hit, examined = _search_size(n, k, adj, deg, g.edge_count, packed)
        searched += examined
        if hit is not None:
            break
    if hit is None:
        return Verdict(
            feasible=False,
            searched=searched,
            reason=f"no even-vertex set of size in {sizes} balances the edge labels",
        )
    pattern = tuple(E if v in hit else O for v in range(n))
    witness = realize(g, pattern) if cfg.want_witness else None
    return Verdict(feasible=True, witness=witness, searched=searched)

"""Feasibility deciders: exhaustive even-set search and a degree-parity certificate.

The exhaustive decider searches even-vertex sets S rather than labelings:
the imbalance of any pattern equals |E| - 2*cut(S), and index availability
confines |S| to {even_count(|V|) - 1, even_count(|V|)}, tried in that order.
A probe tests the first PROBE sets of a size one at a time, which answers
most feasible graphs before any table is built.  Past it, each S is a low
part L plus a high part H from the last h = min(|V|, 12) vertices.  The L's
are walked depth-first, each L's extensions before its own block of every H
of the remaining size, up to 924 sets.  One packed integer holds cut(L + H)
for all H, so a few big-integer operations test a whole block, and the
highest marked field is its lex-first hit.  Both visit every set in
itertools.combinations order, so the witness is the first balanced set and
`searched` its 1-based position.  In-process, proving cycle(22) infeasible
(1,144,066 sets) takes about 0.02 s and K_24 (5,200,300 sets) about 0.1 s
(2-vCPU Xeon, Python 3.11.7).  Degree parity is never consulted, so
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
from itertools import combinations
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


HIGH = 12  # a block holds the last min(n, HIGH) vertices
PROBE = 64  # sets of each size tested one at a time before any table is built


def _probe(n: int, k: int, adj: list[int], deg: list[int], edge_total: int):
    """(first balanced set among the first PROBE k-subsets or None, sets examined)."""
    examined = 0
    for head in combinations(range(n), k - 1) if k else ():
        mask = sum(1 << v for v in head)
        cut = sum(deg[v] - (adj[v] & mask).bit_count() for v in head)
        for v in range(head[-1] + 1 if head else 0, n):  # the last vertex, inline
            examined += 1
            if abs(edge_total - 2 * (cut + deg[v] - 2 * (adj[v] & mask).bit_count())) <= 1:
                return (*head, v), examined
            if examined == PROBE:
                return None, examined
    return None, examined


@lru_cache(maxsize=None)
def _tables(h: int, width: int) -> tuple:
    """ONES, GUARD, 4-bit chunk tables of |H & mask| (bit i = high vertex i) and the
    guard bits of each |H|, doubled up from one field.  Field x (width bits, guard on
    top) is the H with index bits x, high vertex i at bit h - 1 - i."""
    ones, ind, size_masks = 1, [], [1 << (width - 1)]
    for j in range(h):  # double the fields: index bit j is the new high vertex 0
        shift = width << j
        ind = [ones << shift] + [x | x << shift for x in ind]
        size_masks = [a | b << shift for a, b in zip(size_masks + [0], [0] + size_masks)]
        ones |= ones << shift
    chunks = [[0] for _ in range(0, HIGH, 4)]  # a chunk past h stays [0]
    for i, x in enumerate(ind):
        chunks[i // 4] += [t + x for t in chunks[i // 4]]
    return ones, ones << (width - 1), chunks, size_masks


def _pack(n: int, adj: list[int], deg: list[int], edge_total: int) -> SimpleNamespace:
    """A graph's targets (t * ONES per balanced cut t), base (cut(H)), rows[u] (2 |N(u) & H|)."""
    h = min(n, HIGH)
    low = n - h
    width = (n * (n - 1) // 2).bit_length() + 1  # any cut fits below the guard bit
    ones, guard, (t0, t1, t2), size_masks = _tables(h, width)

    def counts(m: int) -> int:  # field H: |m & H|, m a mask of high vertices
        return t0[m & 15] + t1[m >> 4 & 15] + t2[m >> 8]

    # cut(H) over the fields of the last j high vertices, doubled as w joins them:
    # cut(H + w) = cut(H) + deg(w) - 2 |N(w) & H|
    base, part = 0, 1
    for j, w in enumerate(range(n - 1, low - 1, -1)):
        shift = width << j
        near = counts(adj[w] >> low >> h - j << h - j) & (1 << shift) - 1
        base |= (base + deg[w] * part - 2 * near) << shift
        part |= part << shift
    return SimpleNamespace(
        width=width, ones=ones, guard=guard, size_masks=size_masks, base=base,
        targets=[t * ones for t in range(edge_total // 2, (edge_total + 1) // 2 + 1)],
        rows=[counts(adj[u] >> low) << 1 for u in range(low)],
    )


def _search_size(
    n: int, k: int, adj: list[int], deg: list[int], edge_total: int, p: SimpleNamespace
):
    """(first k-subset in ascending-lex order with ||E| - 2 cut| <= 1 or None, sets examined),
    p the graph's _pack, shared by both sizes."""
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
    packed, searched = None, 0  # the pack is built once a probe misses
    for k in sizes:
        hit, examined = (None, 0) if packed else _probe(n, k, adj, deg, g.edge_count)
        if hit is None and examined < comb(n, k):
            packed = packed or _pack(n, adj, deg, g.edge_count)
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

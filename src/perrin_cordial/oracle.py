"""Feasibility deciders: exhaustive even-set search and a degree-parity certificate.

The exhaustive decider searches even-vertex sets S rather than labelings:
the imbalance of any pattern equals |E| - 2*cut(S), and index availability
confines |S| to k1 = even_count(|V|) - 1 or k2 = k1 + 1, ranked in that order.
A probe tests the first PROBE sets of a size one at a time, which answers
most feasible graphs before any table is built.  Past it, each S is a low
part L plus a high part H from the last h = min(|V|, 12) vertices, and one
walk covers both sizes: the L's depth-first, each L's extensions before its
block of every H of either size (up to 1,716 sets), which one packed integer
of cut(L + H) tests in a few big-integer operations; the highest marked field
is its lex-first hit.  An L of k1 vertices and its one-vertex extensions are
tested one at a time.  A k1 hit ends the walk; a k2 hit is kept in case k1
has none.  Each size is visited in itertools.combinations order, so the
witness is the first balanced set and `searched` its 1-based position (after
every k1-set for a k2 witness).  In-process, proving cycle(22) infeasible
(1,144,066 sets) takes about 0.007 s and K_24 (5,200,300 sets) about 0.045 s
(2-vCPU Xeon, Python 3.11.7).  Degree parity is never consulted, so
decide_exhaustive stays an independent check on the degree-parity
certificate and on the constructors; CLI decide runs it after the certificate.

decide_parity counts degrees from the edges and returns the degree-parity
certificate (labeling._parity_reason) as an infeasible Verdict, searched=0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import SimpleNamespace

from .graphs import Graph
from .labeling import PerrinLabeling, _parity_reason, _realize, feasible_even_counts


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
    """(first balanced k-set, k >= 2, among the first PROBE or None, sets examined up to it)."""
    examined = 0
    for head in combinations(range(n), k - 2) if k > 1 else ():
        mask = sum(1 << v for v in head)
        cut = sum(deg[v] - (adj[v] & mask).bit_count() for v in head)
        for u in range(head[-1] + 1 if head else 0, n - 1):  # the last two vertices, inline
            mask_u, cut_u = mask | 1 << u, cut + deg[u] - 2 * (adj[u] & mask).bit_count()
            for v in range(u + 1, n):
                examined += 1
                if abs(edge_total - 2 * (cut_u + deg[v] - 2 * (adj[v] & mask_u).bit_count())) <= 1:
                    return (*head, u, v), examined
                if examined == PROBE:
                    return None, examined
    return None, examined


@lru_cache(maxsize=None)
def _tables(h: int, width: int) -> tuple:
    """ONES, GUARD, 4-bit chunk tables of 2 |H & mask| (bit i = high vertex i), the guard
    bits of each |H| and of each |H| in {s, s + 1}, doubled up from one field.  Field x
    (width bits, guard on top) is the H with index bits x, high vertex i at bit h - 1 - i."""
    ones, ind, size_masks = 1, [], [1 << (width - 1)]
    for j in range(h):  # double the fields: index bit j is the new high vertex 0
        shift = width << j
        ind = [ones << shift] + [x | x << shift for x in ind]
        size_masks = [a | b << shift for a, b in zip(size_masks + [0], [0] + size_masks)]
        ones |= ones << shift
    chunks = [[0] for _ in range(0, HIGH, 4)]  # a chunk past h stays [0]
    for i, x in enumerate(ind):
        chunks[i // 4] += [t + (x << 1) for t in chunks[i // 4]]
    pairs = [a | b for a, b in zip(size_masks, size_masks[1:] + [0])]
    return ones, ones << (width - 1), chunks, size_masks, pairs


def _pack(n: int, adj: list[int], deg: list[int], edge_total: int) -> SimpleNamespace:
    """A graph's targets (t * ONES per balanced cut t), base (cut(H)), rows[u] (2 |N(u) & H|)."""
    h, low = min(n, HIGH), max(n - HIGH, 0)
    width = edge_total.bit_length() + 1  # any cut fits below the guard bit
    ones, guard, (t0, t1, t2), size_masks, pairs = _tables(h, width)

    def twice(m: int, keep: int = -1) -> int:  # field H in keep: 2 |m & H|, m of high vertices
        return (t0[m & 15] & keep) + (t1[m >> 4 & 15] & keep) + (t2[m >> 8] & keep)

    # cut(H) over the fields of the last j high vertices, doubled as w joins them:
    # cut(H + w) = cut(H) + deg(w) - 2 |N(w) & H|
    base, part = 0, 1
    for j, w in enumerate(range(n - 1, low - 1, -1)):
        shift = width << j
        near = twice(adj[w] >> low >> h - j << h - j, (1 << shift) - 1)
        base |= (base + deg[w] * part - near) << shift
        part |= part << shift
    return SimpleNamespace(
        width=width, ones=ones, guard=guard, size_masks=size_masks, pairs=pairs, base=base,
        targets=[t * ones for t in range(edge_total // 2, (edge_total + 1) // 2 + 1)],
        rows=[twice(adj[u] >> low) for u in range(low)],
    )


def _search_sizes(n: int, sizes: tuple[int, ...], adj: list[int], deg: list[int], edge_total: int):
    """The first balanced set of the sizes (one, or two consecutive, ascending) taken
    one after another, each in ascending-lex order, or None.  One walk tests each
    block once for both sizes: a k1 hit ends it, a k2 hit is kept in case k1 has none."""
    p = _pack(n, adj, deg, edge_total)
    h, low = min(n, HIGH), max(n - HIGH, 0)
    k1, k2 = sizes[0], sizes[-1]
    single, pair = p.size_masks + [0] * k1, p.pairs + [0] * k1  # no block has a set past h
    masks, found = (pair if k2 > k1 else single), None  # masks narrow to k1 once k2 has its hit
    chosen: list[int] = []

    def rec(start: int, mask: int, cut: int, acc: int) -> bool:
        # acc field H: cut(H) - 2 e(chosen, H), unused once |chosen| = k1
        nonlocal masks, found
        depth = len(chosen)
        if depth == k1:  # the k1-set itself, then each k2-set chosen + u: one at a time
            if abs(edge_total - 2 * cut) <= 1:
                found = tuple(chosen)
                return True
            for u in range(start, n) if masks is pair else ():
                if abs(edge_total - 2 * (cut + deg[u] - 2 * (adj[u] & mask).bit_count())) <= 1:
                    found, masks = (*chosen, u), single
                    break
            return False
        for v in range(start, min(low, n - k1 + depth + 1)):
            chosen.append(v)
            grown = cut + deg[v] - 2 * (adj[v] & mask).bit_count()
            if rec(v + 1, mask | 1 << v, grown, acc - p.rows[v] if depth + 1 < k1 else acc):
                return True
            chosen.pop()
        # the block: chosen + H for every high H, H in lex order within a size
        x = acc + cut * p.ones  # field H: cut(chosen + H)
        hits = 0
        for t in p.targets:
            hits |= p.guard - (x ^ t)  # guard survives where the field equals t
        hits &= masks[k1 - depth]
        if not hits:
            return False
        own = hits & single[k1 - depth]  # the k1-sets among them
        field = ((own or hits).bit_length() - 1) // p.width  # highest field: the lex-first hit
        found, masks = (*chosen, *(low + i for i in range(h) if field >> (h - 1 - i) & 1)), single
        return own > 0

    rec(0, 0, 0, p.base)
    return found


def _rank(n: int, subset: tuple[int, ...]) -> int:
    """1-based position of the ascending subset among its size's in combinations(range(n))."""
    k, position = len(subset), 1
    for i, (prev, v) in enumerate(zip((-1, *subset), subset)):  # sharing subset[:i], smaller at i
        position += comb(n - 1 - prev, k - i) - comb(n - v, k - i)
    return position


def decide_parity(g: Graph) -> Verdict | None:
    """Infeasible when every degree, counted from the edges, is even and |E| = 2 (mod 4), else None."""
    m = g.edge_count
    if m % 4 != 2:
        return None
    deg = [0] * g.vertex_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return None if any(d % 2 for d in deg) else Verdict(feasible=False, searched=0, reason=_parity_reason(m))


def decide_exhaustive(g: Graph, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Decide cordial feasibility of g by exhaustive even-set search."""
    n = g.vertex_count
    if n > cfg.max_vertices:
        raise GraphTooLargeError(n, cfg.max_vertices)
    adj = _adjacency_masks(g)
    deg = [m.bit_count() for m in adj]
    sizes = feasible_even_counts(n)
    for i, k in enumerate(sizes):
        hit, position = _probe(n, k, adj, deg, g.edge_count)
        if hit is None and position < comb(n, k):  # the probe missed: walk what is left
            hit = _search_sizes(n, sizes[i:], adj, deg, g.edge_count)
            position = None if hit is None else _rank(n, hit)
            break
        if hit is not None:
            break
    if hit is None:
        return Verdict(
            feasible=False,
            searched=sum(comb(n, k) for k in sizes),
            reason=f"no even-vertex set of size in {sizes} balances the edge labels",
        )
    searched = sum(comb(n, k) for k in sizes if k < len(hit)) + position
    witness = _realize(n, bytes(v not in hit for v in range(n))) if cfg.want_witness else None
    return Verdict(feasible=True, witness=witness, searched=searched)

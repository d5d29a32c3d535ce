"""Feasibility deciders: exhaustive parity search plus cheap shortcuts.

The exhaustive decider searches even-vertex sets S rather than labelings:
the imbalance of any pattern equals |E| - 2*cut(S), and index availability
confines |S| to {even_count(|V|) - 1, even_count(|V|)}.  That collapses a
factorial search space to at most two binomial coefficients.  Enumeration
is depth-first in ascending vertex order (sizes ascending first), so the
reported witness is the first feasible set in that documented order.
decide_exhaustive always enumerates in full, so it stays an independent
check on every shortcut below.

The degree-parity certificate (decide_parity) proves infeasibility without
search: cut(S) is congruent to the number of odd-degree vertices in S
(mod 2), so when every degree is even each cut is even, while a graph with
|E| = 2 (mod 4) needs the odd cut |E|/2.  It reads degrees from the edges
only, in O(|V| + |E|).

Bipartite graphs and bistars are count-determined, so they get analytic
deciders with the same Verdict contract.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .graphs import Graph
from .labeling import PerrinLabeling, feasible_even_counts, realize
from .perrin import Parity, even_count

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
    parallel: bool = False
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


def _search_size(
    n: int,
    k: int,
    adj: list[int],
    deg: list[int],
    edge_total: int,
    first_vertex_in: bool | None = None,
):
    """First subset of size k (ascending-lex) with ||E| - 2 cut| <= 1.

    Returns (hit_or_None, leaves_examined).  first_vertex_in restricts the
    search to subsets containing / avoiding vertex 0, which is how the
    parallel mode partitions the space.
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

    if first_vertex_in is None:
        rec(0, [], 0, 0, 0)
    elif first_vertex_in:
        if k >= 1 and n >= 1:
            rec(1, [0], 1, deg[0], 0)
    else:
        rec(1, [], 0, 0, 0)
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
        reason=f"degree-parity certificate: every degree is even, so every cut is even, "
        f"but |E| = {m} needs the odd cut {m // 2}",
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
    if cfg.parallel and n >= 1:
        # partition each size by membership of vertex 0; the merge keeps
        # the sequential (size asc, lex) order, so verdict and witness are
        # identical to the sequential scan
        with ThreadPoolExecutor(max_workers=2) as pool:
            for k in sizes:
                futs = [
                    pool.submit(_search_size, n, k, adj, deg, edge_total, part)
                    for part in (True, False)
                ]
                results = [f.result() for f in futs]
                searched += sum(r[1] for r in results)
                for sub_hit, _ in results:
                    if sub_hit is not None:
                        hit = sub_hit
                        break
                if hit is not None:
                    break
    else:
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


def decide_bipartite(m: int, n: int, want_witness: bool = True) -> Verdict:
    """Analytic decider for K_{m,n}: scan (p1, p2) against the product bound."""
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite requires m >= 1 and n >= 1")
    from .construct import bipartite_block_pattern
    from .graphs import FamilySpec, generate

    searched = 0
    for s in feasible_even_counts(m + n):
        for p1 in range(max(0, s - n), min(m, s) + 1):
            p2 = s - p1
            searched += 1
            if abs((m - 2 * p1) * (n - 2 * p2)) <= 1:
                witness = None
                if want_witness:
                    g = generate(FamilySpec("complete_bipartite", (m, n)))
                    witness = realize(g, bipartite_block_pattern(m, n, p1, p2))
                return Verdict(feasible=True, witness=witness, searched=searched)
    return Verdict(
        feasible=False,
        searched=searched,
        reason=f"no admissible (p1, p2) satisfies |({m}-2*p1)({n}-2*p2)| <= 1",
    )


def decide_bistar_full(m: int, n: int, want_witness: bool = True) -> Verdict:
    """Analytic decider for B_{m,n} over all four apex parity combinations.

    The tally depends only on the apex parities and the per-side even
    pendant counts, so this closed-form scan is equivalent to the
    exhaustive decider on every bistar.
    """
    if m < 1 or n < 1:
        raise ValueError("bistar requires m >= 1 and n >= 1")
    from .construct import _bistar_pattern
    from .graphs import FamilySpec, generate

    sizes = feasible_even_counts(m + n + 2)
    searched = 0
    for apex_u, apex_v in ((O, O), (E, O), (O, E), (E, E)):
        c = (apex_u is E) + (apex_v is E)
        for s in sizes:
            k = s - c
            if k < 0 or k > m + n:
                continue
            for p1 in range(max(0, k - n), min(m, k) + 1):
                p2 = k - p1
                searched += 1
                e1 = (1 if apex_u is not apex_v else 0)
                e1 += p1 if apex_u is O else m - p1
                e1 += p2 if apex_v is O else n - p2
                if abs((m + n + 1) - 2 * e1) <= 1:
                    witness = None
                    if want_witness:
                        g = generate(FamilySpec("bistar", (m, n)))
                        witness = realize(g, _bistar_pattern(m, n, apex_u, apex_v, p1, p2))
                    return Verdict(feasible=True, witness=witness, searched=searched)
    return Verdict(
        feasible=False,
        searched=searched,
        reason="no apex parities and pendant split balance the edge labels",
    )

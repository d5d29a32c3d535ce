"""Perrin labelings, induced edge labels, tallies and the cordiality test.

A labeling assigns a distinct sequence index from {0..|V|} to every
vertex, so exactly one index stays unused (the "skip").  Injectivity is
enforced on indices, not values: equal values at distinct indices (for
example indices 0 and 2, both 0) may appear together.

An edge picks up label 0 when its endpoints have equal parity and 1
otherwise; only the per-vertex parity pattern matters to the tally.

The degree-parity certificate (_parity_certificate) proves infeasibility
without search: a pattern with even-vertex set S has cut(S) odd edges, and
cut(S) is congruent to the number of odd-degree vertices in S (mod 2).  So
when every degree is even each cut is even, while |E| = 2 (mod 4) needs the
odd cut |E|/2.  It reads degrees from the edges only, in O(|V| + |E|).
The constructors and oracle.decide_parity share it, so constructing never
loads the exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .perrin import _EVEN_OFFSETS, _ODD_OFFSETS, Parity, even_count, perrin_parity

ParityPattern = tuple[Parity, ...]


class PatternLengthError(ValueError):
    """Pattern length does not match the graph's vertex count."""


class InvalidLabelingError(ValueError):
    """Labeling is structurally unusable (duplicate or missing entries)."""


class LabelSupplyError(ValueError):
    """Not enough indices of one parity to realize a pattern."""

    def __init__(self, parity: Parity, required: int, available: int):
        self.parity = parity
        self.required = required
        self.available = available
        kind = "even" if parity is Parity.EVEN else "odd"
        super().__init__(
            f"insufficient-{kind}-labels: required {required}, available {available}"
        )


@dataclass(frozen=True)
class EdgeTally:
    """Counts of edges labeled 0 (e0) and 1 (e1)."""

    e0: int
    e1: int

    @property
    def epsilon(self) -> int:
        return self.e0 - self.e1


@dataclass(frozen=True)
class PerrinLabeling:
    """Injective map vertex id -> sequence index, indices within 0..domain_max."""

    assignment: dict[int, int]
    domain_max: int
    _odd = None  # realize's pattern, a byte per vertex (1 = odd), which builds assignment on first read

    def __getattr__(self, name: str):
        if name != "assignment" or self._odd is None:  # only realize's labeling lacks it
            raise AttributeError(f"'PerrinLabeling' object has no attribute {name!r}")
        return self.__dict__.setdefault(name, _index_chunk(self._odd, 0, 0))


def tally(g: Graph, pattern: ParityPattern) -> EdgeTally:
    """Count induced labels over all edges of g under the parity pattern."""
    _check_length(g.vertex_count, pattern)
    e1 = 0
    for u, v in g.edges:
        if pattern[u] is not pattern[v]:
            e1 += 1
    return EdgeTally(e0=g.edge_count - e1, e1=e1)


def _check_length(n: int, pattern: ParityPattern) -> None:
    if len(pattern) != n:
        raise PatternLengthError(f"pattern has {len(pattern)} entries for {n} vertices")


def is_cordial(t: EdgeTally) -> bool:
    return abs(t.epsilon) <= 1


def is_valid(g: Graph, f: PerrinLabeling) -> bool:
    """True iff f labels every vertex of g with distinct indices in 0..|V|."""
    if f.domain_max != g.vertex_count or f._odd is not None:  # realize's labeling is valid on its n vertices
        return f.domain_max == g.vertex_count
    if set(f.assignment.keys()) != set(range(g.vertex_count)):
        return False
    indices = list(f.assignment.values())
    if len(set(indices)) != len(indices):
        return False
    return all(0 <= i <= f.domain_max for i in indices)


def to_parity(f: PerrinLabeling) -> ParityPattern:
    """Per-vertex parities of the assigned indices, in vertex-id order."""
    if f._odd is not None:
        return tuple(map((Parity.EVEN, Parity.ODD).__getitem__, f._odd))
    indices = list(f.assignment.values())
    if len(set(indices)) != len(indices):
        raise InvalidLabelingError("labeling reuses a sequence index")
    return tuple(perrin_parity(f.assignment[v]) for v in sorted(f.assignment))


def realize(g: Graph, pattern: ParityPattern) -> PerrinLabeling:
    """Canonical concrete labeling with the given parity pattern.

    Even-parity vertices receive the even indices of {0..|V|} in ascending
    order (by vertex id); odd-parity vertices likewise get the ascending
    odd indices.  Any injective assignment of correct parities is
    tally-equivalent, so this choice only fixes reproducibility.
    """
    return _realize(g.vertex_count, bytes([p is Parity.ODD for p in pattern]))


def _realize(n: int, odd: bytes) -> PerrinLabeling:
    """realize of the pattern whose byte per vertex is 1 where it is odd."""
    _check_length(n, odd)
    evens, need_odd = even_count(n), odd.count(1)
    if n - need_odd > evens:
        raise LabelSupplyError(Parity.EVEN, n - need_odd, evens)
    if need_odd > n + 1 - evens:
        raise LabelSupplyError(Parity.ODD, need_odd, n + 1 - evens)
    (f := object.__new__(PerrinLabeling)).__dict__.update(domain_max=n, _odd=odd)
    return f


def _ranked(offsets, a: int, b: int) -> list[int]:
    """The indices 7 * (r // k) + offsets[r % k] of the ranks a <= r < b, k = len(offsets)."""
    k, q = len(offsets), a // len(offsets)
    return [p + o for p in range(7 * q, 7 * -(-b // k), 7) for o in offsets][a - k * q : b - k * q]


def _index_chunk(odd: bytes, v: int, odds: int) -> dict[int, int]:
    """realize's {u: index} for u = v, v + 1, ... from odd, after `odds` odd vertices; even rank 0 is index 0."""
    k, evens = odd.count(1), v - odds
    even = [0] * (evens == 0) + _ranked(_EVEN_OFFSETS, max(0, evens - 1), evens - 1 + len(odd) - k)
    take, chunk = (iter(even).__next__, iter(_ranked(_ODD_OFFSETS, odds, odds + k)).__next__), {}
    for u, p in enumerate(odd, v):  # each vertex takes the next index of its parity, by rank
        chunk[u] = take[p]()
    return chunk


def _index_chunks(f: PerrinLabeling, size: int):
    """Dicts vertex -> index in vertex-id order: f.assignment sorted, or realize's, size vertices each."""
    odd, odds = f._odd or b"", 0
    if f._odd is None and f.assignment:
        yield dict(sorted(f.assignment.items()))
    for v in range(0, len(odd), size):
        yield _index_chunk(odd[v : v + size], v, odds)
        odds += odd.count(1, v, v + size)


def feasible_even_counts(vertex_count: int) -> tuple[int, ...]:
    """Even-vertex counts realizable with indices {0..|V|}, one skipped.

    With E = even_count(|V|) available even indices, a pattern with s even
    vertices is realizable iff s <= E and |V| - s <= |V| + 1 - E, i.e.
    s is E-1 or E (clipped to 0..|V|).
    """
    e = even_count(vertex_count)
    return tuple(s for s in (e - 1, e) if 0 <= s <= vertex_count)


def _parity_certificate(n: int, m: int, edges) -> str | None:
    """The certificate's reason when every degree is even and m = 2 (mod 4), else None,
    for the graph on n vertices whose m edges an iterable yields, read once."""
    if m % 4 != 2:
        return None
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return None if any(d % 2 for d in deg) else _parity_reason(m)


def _parity_reason(m: int) -> str:
    """The certificate's reason for a graph with every degree even and m = 2 (mod 4) edges."""
    return (
        f"degree-parity certificate: every degree is even, so every labeling has an "
        f"even number of odd edges, but |E| = {m} = 2 (mod 4) needs {m // 2} of them"
    )

"""Perrin labelings, induced edge labels, tallies and the cordiality test.

A labeling assigns a distinct sequence index from {0..|V|} to every
vertex, so exactly one index stays unused (the "skip").  Injectivity is
enforced on indices, not values: equal values at distinct indices (for
example indices 0 and 2, both 0) may appear together.

An edge picks up label 0 when its endpoints have equal parity and 1
otherwise; only the per-vertex parity pattern matters to the tally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .perrin import Parity, even_count, even_indices, odd_indices, perrin_parity

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
    if f.domain_max != g.vertex_count:
        return False
    if set(f.assignment.keys()) != set(range(g.vertex_count)):
        return False
    indices = list(f.assignment.values())
    if len(set(indices)) != len(indices):
        return False
    return all(0 <= i <= f.domain_max for i in indices)


def to_parity(f: PerrinLabeling) -> ParityPattern:
    """Per-vertex parities of the assigned indices, in vertex-id order."""
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
    evens, odds = even_indices(n), odd_indices(n)
    need_odd = odd.count(1)
    if n - need_odd > len(evens):
        raise LabelSupplyError(Parity.EVEN, n - need_odd, len(evens))
    if need_odd > len(odds):
        raise LabelSupplyError(Parity.ODD, need_odd, len(odds))
    # each vertex takes the next unused index of its parity, picked by its byte
    take, assignment = (iter(evens).__next__, iter(odds).__next__), {}
    for v, p in enumerate(odd):
        assignment[v] = take[p]()
    return PerrinLabeling(assignment=assignment, domain_max=n)


def feasible_even_counts(vertex_count: int) -> tuple[int, ...]:
    """Even-vertex counts realizable with indices {0..|V|}, one skipped.

    With E = even_count(|V|) available even indices, a pattern with s even
    vertices is realizable iff s <= E and |V| - s <= |V| + 1 - E, i.e.
    s is E-1 or E (clipped to 0..|V|).
    """
    e = even_count(vertex_count)
    return tuple(s for s in (e - 1, e) if 0 <= s <= vertex_count)

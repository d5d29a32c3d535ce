"""Cordial-labeling constructors for the ten graph families.

construct(spec) is the one entry point: it hands the validated FamilySpec
to the family's entry in CONSTRUCTORS, a block walk or a declared class
quotient, which reads its sizes from spec.params and validates nothing
again.  CLASS_FAMILIES, the families of the second kind, is read from it.

Path, cycle, wheel, snake and friendship constructors walk a
block-structured parity scheme (_block_scan).  A walk yields each
candidate's blocks, (size, first, last) runs in vertex-id order, and its
number of odd edges, an exact closed form tested against the real tally,
so only the first balanced candidate is built (_blocks_pattern) and tallied.
For n = 7p the path and friendship walks start in the paper's pinned
even count.  Shapes with n = 2 (mod 4) are proven infeasible by the
degree-parity certificate (labeling._parity_certificate).

Complete, complete bipartite, star, bistar and jellyfish graphs declare a
class quotient instead: classes of vertices with the same neighbours
outside the class, each a clique or edgeless, and the fully joined class
pairs.  Vertices within a class are exchangeable, so one scan over the
even count of each class decides them (_class_scan).  It tries the
parities of the leading single-vertex classes (preferred choices, then
binary counting), then each admissible even total ascending, then each
split of the remaining evens, lower classes filled first.  It covers every
count vector, so its Infeasible is a proof; a formula hit that fails the
tally gate means the quotient is wrong and raises SchemeExhaustedError.

Scans are deterministic, so constructions reproduce byte-for-byte; both
even-vertex budgets, even_count(|V|) - 1 and even_count(|V|), are tried.
No constructor stores its graph: the certificate reads a fresh stream of
the family's edges (graphs._edge_stream), and the tally gate counts the
hit's pattern, one byte per vertex, in slices over the pieces that stream
is made of (graphs._pieces), not edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .graphs import FamilySpec, _edge_stream, _pieces
from .labeling import EdgeTally, PerrinLabeling, _parity_certificate, _realize, feasible_even_counts, is_cordial
from .perrin import Parity

E, O = Parity.EVEN, Parity.ODD


class SchemeExhaustedError(RuntimeError):
    """A scheme's exact count disagrees with the real tally, or finds no balance
    for a family proven always-feasible."""


@dataclass(frozen=True)
class Constructed:
    labeling: PerrinLabeling
    tally: EdgeTally


@dataclass(frozen=True)
class Infeasible:
    reason: str


def _name(spec: FamilySpec) -> str:
    return f"{spec.name}({','.join(map(str, spec.params))})"


def _gate(spec: FamilySpec, odd: bytes) -> Constructed:
    """The labeling of a scan's hit, its byte per vertex 1 where odd, once its real edge tally is cordial.

    Hits come from exact counts, so a failing tally means the count (a block
    cut or a declared class quotient) is wrong.
    """
    n, m, pieces = _pieces(spec)
    t = _tally_pieces(m, pieces, odd)
    if not is_cordial(t):
        raise SchemeExhaustedError(f"{_name(spec)}: the scheme's hit fails the tally gate")
    return Constructed(labeling=_realize(n, odd), tally=t)


def _tally_pieces(m: int, pieces, odd: bytes) -> EdgeTally:
    """The tally of the m edges that graphs._pieces lists, from slices of odd: a clique
    or join cuts by its sides' odd counts, a zip lane where its two slices differ."""
    e1 = 0
    for kind, a, b in pieces:
        side = odd[a.start : a.stop : a.step]
        if kind == "zip":
            x = int.from_bytes(side, "big")
            for lane in b:
                e1 += (x ^ int.from_bytes(odd[lane.start : lane.stop : lane.step], "big")).bit_count()
        elif kind == "join":
            k, kb = side.count(1), odd[b.start : b.stop : b.step].count(1)
            e1 += k * (len(b) - kb) + (len(a) - k) * kb
        else:
            k = side.count(1)
            e1 += k * (len(a) - k)
    return EdgeTally(e0=m - e1, e1=e1)


def _block_scan(spec: FamilySpec, walk) -> Constructed | Infeasible:
    """Infeasible by the degree-parity certificate, else the first balanced candidate of the walk.

    walk(n) yields (blocks, cut) with cut the blocks' exact number of odd
    edges; only the hit's pattern is built and tallied.
    """
    (n,) = spec.params
    count, m, edges = _edge_stream(spec)
    reason = _parity_certificate(count, m, edges)
    if reason is not None:
        return Infeasible(reason)
    for blocks, cut in walk(n):
        if -1 <= m - 2 * cut <= 1:
            return _gate(spec, _blocks_pattern(blocks))
    raise SchemeExhaustedError(f"{_name(spec)}: no scheme candidate balances the edges")


def _line_cut(blocks) -> int:
    """Odd edges along a line of blocks (size, first, last parity).

    A block is constant (first is last) or strictly alternating, which
    changes parity size - 1 times inside.
    """
    cut, prev = 0, None
    for size, first, last in blocks:
        if size:
            if first is not last:
                cut += size - 1
            if prev is not None and prev is not first:
                cut += 1
            prev = last
    return cut


def _blocks_pattern(blocks) -> bytes:
    """The pattern of blocks (size, first, last) in vertex-id order, one byte per vertex, 1 where odd."""
    return b"".join(
        (b"\0", b"\1")[first is O] * size if first is last else (b"\0\1", b"\1\0")[first is O] * (size // 2)
        for size, first, last in blocks
    )


# ---------------------------------------------------------------- paths


def _path_walk(n: int):
    """Blocks O^q1 E^p1 (OE)^p2 O^q2 with s = p1 + p2 evens.  The cut, 2 p2 + 1 + q1 while E^p1 and O^q2
    are non-empty, grows with p2: each (s, q1) yields the least such p2 reaching (n - 2) / 2, then the end."""
    # the paper's n = 7p choice opens with an odd vertex: try q1 = 1 first
    q1s = (1, 0) if n % 7 == 0 else (0, 1)
    for s in feasible_even_counts(n):
        odds = n - s
        for q1 in q1s:
            end, lo = min(s, odds - q1), max(0, -((1 + q1 - (n - 1) // 2) // 2))
            for p2 in (lo, end) if lo < end else (end,) * (end >= 0):
                blocks = ((q1, O, O), (s - p2, E, E), (2 * p2, O, E), (odds - q1 - p2, O, O))
                yield blocks, _line_cut(blocks)


# ------------------------------------------------------- cycles and wheels


def _ring_walk(n: int, spokes: bool = False):
    """Blocks of the ring E^p1 (OE)^p2 O^tail on n vertices, p1 = s - p2, after an odd
    hub (vertex 0) with one spoke per even rim vertex if spokes.  The cut, 2 p2 + 2 (+ s)
    while E^p1 and the tail are non-empty and 2 p2 (+ s) at p2 = min(s, n - s), grows with
    p2, so each s yields only the least inner p2 whose cut reaches (|E| - 1) / 2, then that end."""
    m = 2 * n if spokes else n
    for s in feasible_even_counts(n + spokes):
        c, end = s * spokes, min(s, n - s)
        lo = max(0, -((5 + 2 * c - m) // 4))
        for p2 in (lo, end) if lo < end else (end,):
            blocks = ((int(spokes), O, O), (s - p2, E, E), (2 * p2, O, E), (n - s - p2, O, O))
            yield blocks, 2 * p2 + 2 * (p2 < end) + c


# ------------------------------------------------------ triangular snakes


def _snake_walk(n: int):
    """Blocks with the last p2 + 1 path vertices and p2 tips even, then p1 leading tips;
    path ids 0..n, then tip ids n+1..2n (tip n+i over path edge (i-1, i))."""
    for s in feasible_even_counts(2 * n + 1):
        for p2 in range(min(n, (s - 1) // 2) + 1):
            p1 = s - 2 * p2 - 1
            if p1 + p2 <= n:
                # where the path turns even, one odd path edge and one odd tip
                # edge; two per even tip over the odd path
                blocks = ((n - p2, O, O), (p2 + 1 + p1, E, E), (n - p1 - p2, O, O), (p2, E, E))
                yield blocks, 0 if p2 == n else 2 + 2 * min(p1, n - p2 - 1)


# ------------------------------------------------------------ friendship


def _friendship_walk(n: int):
    """Blocks with p1 all-even blades, then p2 = s - 2*p1 blades with one even tip;
    the apex, id 0, stays odd, and blade i is ids (2i-1, 2i)."""
    sizes = feasible_even_counts(2 * n + 1)
    # the paper's n = 7p choice skips an odd index: try s = even_count first
    for s in sizes[::-1] if n % 7 == 0 else sizes:
        for p1 in range(s // 2 + 1):
            p2 = s - 2 * p1
            if p1 + p2 <= n:
                # the odd apex meets every even tip; a half-even blade cuts its edge
                blocks = ((1, O, O), (2 * p1, E, E), (2 * p2, E, O), (2 * (n - p1 - p2), O, O))
                yield blocks, 2 * (p1 + p2)


# ------------------------------------------------------ twin-class scan


def _class_cut(sizes, cliques, joins, a) -> int:
    """Odd edges when class i holds a[i] evens: clique classes and joined pairs."""
    cut = sum([a[i] * (sizes[i] - a[i]) for i in cliques])
    for i, j in joins:
        cut += a[i] * (sizes[j] - a[j]) + a[j] * (sizes[i] - a[i])
    return cut


def _run(r: int, sizes) -> tuple:
    """(first, n): the n splits _step(first, j) of r evens over one or two classes;
    the first fills the lower class first and each step moves one even upwards."""
    if len(sizes) == 1:
        return (r,), int(0 <= r <= sizes[0])
    hi = min(sizes[0], r)
    return (hi, r - hi), max(0, hi - max(0, r - sizes[1]) + 1)


def _step(fill, j: int):
    return (*fill[:-2], fill[-2] - j, fill[-1] + j) if j else fill


@cache
def _single_parities(singles: int, preferred) -> tuple:
    """Even counts of the single-vertex classes: preferred choices, then binary counting."""
    binary = (tuple(i for i in range(singles) if bits >> i & 1) for bits in range(1 << singles))
    choices = dict.fromkeys([*preferred, *binary])
    return tuple(tuple(int(i in e) for i in range(singles)) for e in choices)


def _class_scan(spec: FamilySpec, sizes, cliques=(), joins=(), singles=0, preferred=()):
    """First even-count vector of the declared quotient that balances spec's graph.

    sizes lists `singles` single vertices, then one or two larger classes; class i
    owns the next sizes[i] vertex ids, and a hit makes the first a[i] of them even.
    """
    # n and |E| come from the quotient; the edges are read only to gate a hit
    n, total = sum(sizes), sum(sizes[i] * sizes[j] for i, j in joins)
    total += sum(sizes[i] * (sizes[i] - 1) // 2 for i in cliques)
    counts, multi = feasible_even_counts(n), sizes[singles:]
    # eps is quadratic along a run: two cut values and its second difference dd
    # (+4 per clique among the two run classes, -8 if they are joined) give the rest
    p, q = len(sizes) - 2, len(sizes) - 1
    dd = 4 * ((p in cliques) + (q in cliques)) - 8 * ((p, q) in joins or (q, p) in joins)
    # the nearest misses on each side; |eps| <= total, so the sentinels are never misses
    tried, below, above = 0, -total - 2, total + 2
    for head in _single_parities(singles, preferred):
        for s in counts:
            first, length = _run(s - sum(head), multi)
            e, d = total - 2 * _class_cut(sizes, cliques, joins, head + first), 0
            for j in range(length):
                if -1 <= e <= 1:
                    a = head + _step(first, j)
                    blocks = [b for t, k in zip(sizes, a) for b in ((k, E, E), (t - k, O, O))]
                    return _gate(spec, _blocks_pattern(blocks))
                if below < e < 0:
                    below = e
                elif 0 < e < above:
                    above = e
                if j == 0 and length > 1:
                    d = total - 2 * _class_cut(sizes, cliques, joins, head + _step(first, 1)) - e
                    if d == dd == 0:
                        break  # eps is constant along this run, so the rest misses too
                e, d = e + d, d + dd
            tried += length
    nearest = [f"epsilon={e}" for e in (below, above) if abs(e) <= total]
    return Infeasible(
        f"{_name(spec)}: none of {tried} even-count vectors over classes {sizes} reaches "
        f"|epsilon| <= 1 (nearest: {', '.join(nearest) or 'none'}); vertices within a class "
        "are exchangeable, so no labeling does"
    )


def _class_family(spec: FamilySpec, singles=0, **quotient) -> Constructed | Infeasible:
    # `singles` single-vertex classes, then one class per parameter
    return _class_scan(spec, (1,) * singles + spec.params, singles=singles, **quotient)


# each family's constructor, a function of its validated FamilySpec
CONSTRUCTORS = {
    # always succeeds
    "path": partial(_block_scan, walk=_path_walk),
    # Infeasible when n = 2 (mod 4)
    "cycle": partial(_block_scan, walk=_ring_walk),
    # K_n: one clique class, so only the even count matters
    "complete": partial(_class_family, cliques=(0,)),
    # K_{m,n}: two joined sides, imbalance (m - 2*p1)(n - 2*p2)
    "complete_bipartite": partial(_class_family, joins=((0, 1),)),
    # numbered as K_{1,n}: the apex, a single class, joined to one leaf class
    "star": partial(_class_family, joins=((0, 1),), singles=1),
    # always succeeds
    "wheel": partial(_block_scan, walk=partial(_ring_walk, spokes=True)),
    # both apexes odd (imbalance m+n+1 - 2*(p1+p2)) come first; a few sizes
    # (m+n = 3 is the smallest) need other apex parities
    "bistar": partial(_class_family, joins=((0, 1), (0, 2), (1, 3)), singles=2),
    # Infeasible when n = 2 (mod 4)
    "triangular_snake": partial(_block_scan, walk=_snake_walk),
    # Infeasible when n = 2 (mod 4)
    "friendship": partial(_block_scan, walk=_friendship_walk),
    # Infeasible exactly when m2 - 13*m1 is in {39, 45, 46, 47, 49} or is at
    # least 51, for m1 <= m2 (measured for m1 <= 40); the smallest is (0, 39).
    # The pinned internal parities come first: v1,v3 even, its mirror v2,v4,
    # then one even internal
    "jellyfish": partial(
        _class_family,
        joins=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)),
        singles=4,
        preferred=((0, 2), (1, 3), (0,), (1,), (2,), (3,)),
    ),
}

# the families whose constructor is a declared class quotient
CLASS_FAMILIES = frozenset(f for f, c in CONSTRUCTORS.items() if c.func is _class_family)


def construct(spec: FamilySpec) -> Constructed | Infeasible:
    """Cordial labeling of spec's graph, or Infeasible with the reason."""
    return CONSTRUCTORS[spec.name](spec)

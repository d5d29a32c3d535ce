"""Cordial-labeling constructors for the ten graph families.

construct(spec) is the one entry point: it hands the validated FamilySpec
to the family's entry in CONSTRUCTORS, a block walk or a class scan, which
reads its sizes from spec.params and validates nothing again.
CLASS_FAMILIES, the families of the second kind, are graphs._QUOTIENTS' keys.

Path, cycle, wheel, snake and friendship constructors walk a
block-structured parity scheme (_block_scan).  A walk yields each
candidate's blocks, (size, first, last) runs in vertex-id order, and its
number of odd edges, an exact closed form tested against the real tally,
so only the first balanced candidate is built (_blocks_pattern) and tallied.
Each cut is monotone in the walk's inner index, so a walk solves for the one
or two candidates per even total where it crosses |E| / 2.  For n = 7p the
path and friendship walks start in the paper's pinned even count.  Shapes
with n = 2 (mod 4) are proven infeasible by the degree-parity certificate,
read from the pieces (graphs._degree_parity) with labeling's reason.

Complete, complete bipartite, star, bistar and jellyfish graphs are read
from their class quotient instead, the graphs._QUOTIENTS entry their pieces
are built from: classes of vertices with the same neighbours outside the
class, each a clique or edgeless, and the fully joined class pairs.
Vertices within a class are exchangeable, so one scan over the even count
of each class decides them (_class_scan).  It tries the parities of the
leading single-vertex classes (preferred choices, then binary counting),
then each admissible even total ascending, then each split of the
remaining evens, lower classes filled first.  Per head, the imbalance
along that run is a polynomial whose coefficients _heads reads from the
quotient's structure; a linear run jumps to where it crosses [-1, 1], and
a quadratic one steps.  It covers every count vector, so its Infeasible is
a proof; a formula hit that fails the tally gate means the quotient or the
scan's arithmetic is wrong and raises SchemeExhaustedError.

Scans are deterministic, so constructions reproduce byte-for-byte; both
even-vertex budgets, even_count(|V|) - 1 and even_count(|V|), are tried.
No constructor stores or streams its graph: the tally gate counts the hit's
odd edges (graphs._cut) from its pattern, one byte per vertex, and the
certificate flips degree parities (graphs._degree_parity), both in slices
over the family's pieces (graphs._pieces), not edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .graphs import _QUOTIENTS, FamilySpec, _cut, _degree_parity, _pieces
from .labeling import EdgeTally, PerrinLabeling, _parity_reason, _realize, feasible_even_counts, is_cordial
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


def _gate(spec: FamilySpec, odd: bytes, n: int, m: int, pieces) -> Constructed:
    """The labeling of a scan's hit, its byte per vertex 1 where odd, once its real edge tally is cordial.

    n, m and pieces are graphs._pieces(spec).  Hits come from exact counts, so a failing
    tally means the count (a block cut or a declared class quotient) is wrong.
    """
    e1 = _cut(pieces, odd)
    t = EdgeTally(e0=m - e1, e1=e1)
    if not is_cordial(t):
        raise SchemeExhaustedError(f"{_name(spec)}: the scheme's hit fails the tally gate")
    return Constructed(labeling=_realize(n, odd), tally=t)


def _block_scan(spec: FamilySpec, walk) -> Constructed | Infeasible:
    """Infeasible by the degree-parity certificate, else the first balanced candidate of the walk.

    walk(n) yields (blocks, cut) with cut the blocks' exact number of odd
    edges; only the hit's pattern is built and tallied.
    """
    (n,) = spec.params
    count, m, pieces = _pieces(spec)
    if m % 4 == 2 and 1 not in _degree_parity(count, pieces):
        return Infeasible(_parity_reason(m))
    for blocks, cut in walk(n):
        if -1 <= m - 2 * cut <= 1:
            return _gate(spec, _blocks_pattern(blocks), count, m, pieces)
    raise SchemeExhaustedError(f"{_name(spec)}: no scheme candidate balances the edges")


def _blocks_pattern(blocks) -> bytes:
    """The pattern of blocks (size, first, last) in vertex-id order, one byte per vertex, 1 where odd."""
    return b"".join(
        (b"\0", b"\1")[first is O] * size if first is last else (b"\0\1", b"\1\0")[first is O] * (size // 2)
        for size, first, last in blocks
    )


# ---------------------------------------------------------------- paths


def _path_walk(n: int):
    """Blocks O^q1 E^p1 (OE)^p2 O^q2 with s = p1 + p2 evens.  The cut, 2 p2 + 1 + q1 while E^p1 and O^q2
    are non-empty, grows with p2: each (s, q1) yields the least such p2 reaching (n - 2) / 2, then the end.
    With E^p1 or O^q2 empty, only the boundaries of the non-empty blocks that remain cut."""
    # the paper's n = 7p choice opens with an odd vertex: try q1 = 1 first
    q1s = (1, 0) if n % 7 == 0 else (0, 1)
    for s in feasible_even_counts(n):
        odds = n - s
        for q1 in q1s:
            end, lo = min(s, odds - q1), max(0, -((1 + q1 - (n - 1) // 2) // 2))
            for p2 in (lo, end) if lo < end else (end,) * (end >= 0):
                p1, q2 = s - p2, odds - q1 - p2
                cut = 2 * p2 + 1 + q1 if p1 and q2 else q1 * (p1 > 0) + (p2 > 0) * (2 * p2 - 1 + (p1 > 0) + (q2 > 0))
                yield ((q1, O, O), (p1, E, E), (2 * p2, O, E), (q2, O, O)), cut


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
    """Blocks with the last p2 + 1 path vertices and p2 tips even, then p1 = s - 1 - 2 p2 leading
    tips; path ids 0..n, then tip ids n+1..2n (tip n+i over path edge (i-1, i)).  The cut,
    2 + 2 min(p1, n - p2 - 1), falls as p2 grows: each s yields the least p2 with cut <= (3n + 1) / 2."""
    # where the path turns even, one odd path edge and one odd tip edge; two per
    # even tip over the odd path; at p2 = n the min is -1 and the cut 0
    most = ((3 * n + 1) // 2 - 2) // 2  # the largest min(...) with cut <= (3n + 1) / 2
    for s in feasible_even_counts(2 * n + 1):
        p2 = max(0, s - 1 - n, min(-((most + 1 - s) // 2), n - 1 - most))
        if p2 <= (s - 1) // 2:
            p1 = s - 2 * p2 - 1
            blocks = ((n - p2, O, O), (p2 + 1 + p1, E, E), (n - p1 - p2, O, O), (p2, E, E))
            yield blocks, 2 + 2 * min(p1, n - p2 - 1)


# ------------------------------------------------------------ friendship


def _friendship_walk(n: int):
    """Blocks with p1 all-even blades, then p2 = s - 2*p1 blades with one even tip;
    the apex, id 0, stays odd, and blade i is ids (2i-1, 2i).  The cut, 2 (s - p1),
    falls as p1 grows: each s yields the least p1 with cut <= (3n + 1) / 2."""
    sizes = feasible_even_counts(2 * n + 1)
    # the paper's n = 7p choice skips an odd index: try s = even_count first
    for s in sizes[::-1] if n % 7 == 0 else sizes:
        p1 = max(0, s - n, s - (3 * n + 1) // 4)
        if p1 <= s // 2:
            # the odd apex meets every even tip; a half-even blade cuts its edge
            p2 = s - 2 * p1
            blocks = ((1, O, O), (2 * p1, E, E), (2 * p2, E, O), (2 * (n - p1 - p2), O, O))
            yield blocks, 2 * (p1 + p2)


# ------------------------------------------------------ twin-class scan


@cache
def _heads(singles: int, preferred, cliques, joins) -> tuple:
    """The scan's per-head coefficients, read from the quotient's structure alone, never its sizes.

    A head fixes the single classes' even counts: preferred choices, then binary counting.  Its
    row is (head, evens, cut among singles, then for run classes c = p, q (ids singles, singles + 1)
    the cut h_i (|c| - a_c) + (1 - h_i) a_c to joined singles i, as coefficients on |c| and a_c).
    Then come p's and q's cliques and their joins, which make the cut quadratic.
    """
    binary = (tuple(i for i in range(singles) if bits >> i & 1) for bits in range(1 << singles))
    rows = []
    for e in dict.fromkeys([*preferred, *binary]):
        head, inner, pull = tuple(int(i in e) for i in range(singles)), 0, [0, 0, 0, 0]
        for i, j in map(sorted, joins):
            if j < singles:
                inner += head[i] ^ head[j]
            elif i < singles:
                pull[2 * (j - singles)] += head[i]
                pull[2 * (j - singles) + 1] += 1 - 2 * head[i]
        rows.append((head, sum(head), inner, *pull))
    pq = [singles, singles + 1]
    return tuple(rows), singles in cliques, singles + 1 in cliques, sum(sorted(pair) == pq for pair in joins)


def _class_scan(spec: FamilySpec, sizes, cliques=(), joins=(), singles=0, preferred=()):
    """First even-count vector of the declared quotient that balances spec's graph.

    sizes lists `singles` single vertices, then one or two run classes p and q; class i
    owns the next sizes[i] vertex ids, and a hit makes the first a[i] of them even.  A head
    and an even total make a run of splits (a_p, a_q), each step moving an even to q.
    """
    # n and |E| come from the quotient; the edges are read only to gate a hit
    n, total = sum(sizes), sum(sizes[i] * sizes[j] for i, j in joins)
    total += sum(sizes[i] * (sizes[i] - 1) // 2 for i in cliques)
    counts, (tp, tq) = feasible_even_counts(n), (*sizes[singles:], 0)[:2]
    rows, cp, cq, jn = _heads(singles, preferred, cliques, joins)
    dd = 4 * (cp + cq) - 8 * jn
    # the nearest misses on each side; |eps| <= total, so the sentinels are never misses
    tried, below, above = 0, -total - 2, total + 2
    for head, evens, inner, sp, ap, sq, aq in rows:
        base = total - 2 * (inner + sp * tp + sq * tq)
        for s in counts:
            # the run of r evens over p and q: its first split (x, y), length, eps and first difference
            r = s - evens
            x = min(tp, r)
            y = r - x
            length = max(0, x - max(0, r - tq) + 1)
            j0, j1 = 0, length
            quad = cp * x * (tp - x) + cq * y * (tq - y) + jn * (x * tq + y * tp - 2 * x * y)
            e = base - 2 * (ap * x + aq * y + quad)
            d = 2 * (ap - aq + cp * (tp + 1 - 2 * x) + cq * (2 * y + 1 - tq) + jn * (tq - tp + 2 * x - 2 * y - 2))
            if not dd and length > 2:
                # a linear run is monotone: only the steps beside its crossing of [-1, 1] count
                c = -((1 + e) // d) if d > 0 else -((e - 1) // d) if d else 0
                j0 = max(0, min(c, length) - 1)
                j1, e = min(j0 + 2, length), e + j0 * d
            for j in range(j0, j1):
                if -1 <= e <= 1:
                    a = (*head, x - j, y + j)
                    odd = b"".join([b"\0" * k + b"\1" * (t - k) for t, k in zip(sizes, a)])
                    return _gate(spec, odd, *_pieces(spec))
                if below < e < 0:
                    below = e
                elif 0 < e < above:
                    above = e
                e, d = e + d, d + dd
            tried += length
    nearest = [f"epsilon={e}" for e in (below, above) if abs(e) <= total]
    return Infeasible(
        f"{_name(spec)}: none of {tried} even-count vectors over classes {sizes} reaches "
        f"|epsilon| <= 1 (nearest: {', '.join(nearest) or 'none'}); vertices within a class "
        "are exchangeable, so no labeling does"
    )


def _class_family(spec: FamilySpec, preferred=()) -> Constructed | Infeasible:
    singles, cliques, joins = _QUOTIENTS[spec.name]
    return _class_scan(spec, (1,) * singles + spec.params, cliques, joins, singles, preferred)


# each family's constructor, a function of its validated FamilySpec
CONSTRUCTORS = {
    # always succeeds
    "path": partial(_block_scan, walk=_path_walk),
    # Infeasible when n = 2 (mod 4)
    "cycle": partial(_block_scan, walk=_ring_walk),
    # always succeeds
    "wheel": partial(_block_scan, walk=partial(_ring_walk, spokes=True)),
    # Infeasible when n = 2 (mod 4)
    "triangular_snake": partial(_block_scan, walk=_snake_walk),
    # Infeasible when n = 2 (mod 4)
    "friendship": partial(_block_scan, walk=_friendship_walk),
    # the class scan over the graphs._QUOTIENTS entry; bistar's first head has both apexes
    # odd (imbalance m+n+1 - 2*(p1+p2)), and a few sizes (m+n = 3 first) need others
    **dict.fromkeys(_QUOTIENTS, _class_family),
    # Infeasible exactly when m2 - 13*m1 is in {39, 45, 46, 47, 49} or is at
    # least 51, for m1 <= m2 (measured for m1 <= 40); the smallest is (0, 39).
    # The pinned internal parities come first: v1,v3 even, its mirror v2,v4,
    # then one even internal
    "jellyfish": partial(_class_family, preferred=((0, 2), (1, 3), (0,), (1,), (2,), (3,))),
}

# the families whose constructor is a class scan
CLASS_FAMILIES = frozenset(_QUOTIENTS)


def construct(spec: FamilySpec) -> Constructed | Infeasible:
    """Cordial labeling of spec's graph, or Infeasible with the reason."""
    return CONSTRUCTORS[spec.name](spec)

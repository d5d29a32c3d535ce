"""Cordial-labeling constructors for the ten graph families.

Path, cycle, wheel, snake and friendship constructors instantiate a
block-structured parity scheme: a pinned parameter choice first, where the
family's feasibility argument fixes one, then the scheme's range.  Their
closed-form imbalances are heuristics only; a candidate must pass the real
edge tally.  Their n = 2 (mod 4) shapes are proven infeasible by the
degree-parity certificate (oracle.decide_parity).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graphs import FamilySpec, Graph, generate
from .labeling import (
    EdgeTally,
    ParityPattern,
    PerrinLabeling,
    feasible_even_counts,
    is_cordial,
    realize,
    tally,
)
from .oracle import decide_parity
from .perrin import Parity, even_count

E, O = Parity.EVEN, Parity.ODD


class SchemeExhaustedError(RuntimeError):
    """A family proven always-feasible ran out of scheme candidates."""


@dataclass(frozen=True)
class SchemeParams:
    """Block sizes of the parity scheme that produced a labeling."""

    p: int | None = None
    q: int | None = None
    p1: int | None = None
    p2: int | None = None
    q1: int | None = None
    q2: int | None = None
    k1: int | None = None
    k2: int | None = None
    skip: Parity | None = None
    variant: str = ""


@dataclass(frozen=True)
class Constructed:
    labeling: PerrinLabeling
    scheme: SchemeParams
    tally: EdgeTally


@dataclass(frozen=True)
class Infeasible:
    reason: str


def _skip_of(s: int, vertex_count: int) -> Parity:
    return O if s == even_count(vertex_count) else E


def _name(spec: FamilySpec) -> str:
    return f"{spec.name}({','.join(map(str, spec.params))})"


def _first_cordial(g: Graph, candidates) -> Constructed:
    """The first candidate whose real edge tally is cordial.

    Every caller's candidates are proven to include a cordial one, so
    running out means the scheme (or a declared class quotient) is wrong.
    """
    for scheme, pattern in candidates:
        t = tally(g, pattern)
        if is_cordial(t):
            return Constructed(labeling=realize(g, pattern), scheme=scheme, tally=t)
    where = _name(g.family) if g.family else f"graph on {g.vertex_count} vertices"
    raise SchemeExhaustedError(f"{where}: no scheme candidate passes the tally gate")


def _parity_or_first(g: Graph, candidates) -> Constructed | Infeasible:
    """Infeasible by the degree-parity certificate, else the first cordial candidate."""
    proof = decide_parity(g)
    return _first_cordial(g, candidates) if proof is None else Infeasible(proof.reason)


def _alt(p2: int) -> tuple[Parity, ...]:
    # alternating block, odd first
    return (O, E) * p2


# ---------------------------------------------------------------- paths


def _path_candidates(n: int):
    sizes = feasible_even_counts(n)
    if n % 7 == 0 and n > 0:
        # pinned choice for n = 7p, one even index skipped: the block
        # imbalance is n - 4*p2 - 5 with a leading odd block, n - 4*p2 - 3
        # without one.
        p = n // 7
        s = 3 * p
        if s in sizes:
            odds = n - s
            for q1, const in ((1, 5), (0, 3)):
                for eps in (0, 1, -1):
                    num = n - const - eps
                    if num % 4 != 0:
                        continue
                    p2 = num // 4
                    p1 = s - p2
                    q2 = odds - q1 - p2
                    if p2 < 0 or p1 < 0 or q2 < 0:
                        continue
                    scheme = SchemeParams(
                        p=p, q=0, p1=p1, p2=p2, q1=q1, q2=q2, skip=E, variant="pinned"
                    )
                    yield scheme, (O,) * q1 + (E,) * p1 + _alt(p2) + (O,) * q2
    for s in sizes:
        odds = n - s
        for q1 in (0, 1):
            if q1 > odds:
                continue
            for p2 in range(0, min(s, odds - q1) + 1):
                p1 = s - p2
                q2 = odds - q1 - p2
                scheme = SchemeParams(
                    p1=p1, p2=p2, q1=q1, q2=q2, skip=_skip_of(s, n), variant="scan"
                )
                yield scheme, (O,) * q1 + (E,) * p1 + _alt(p2) + (O,) * q2


def construct_path(n: int) -> Constructed:
    """Cordial labeling of the n-vertex path; always succeeds."""
    return _first_cordial(generate(FamilySpec("path", (n,))), _path_candidates(n))


# ---------------------------------------------------------------- cycles


def _cycle_pattern(n: int, p1: int, p2: int) -> ParityPattern:
    tail = n - p1 - 2 * p2
    return (E,) * p1 + _alt(p2) + (O,) * tail


def _cycle_candidates(n: int):
    sizes = feasible_even_counts(n)
    # pinned: p2 = (n - k)/4 for the k in {3,4,5} congruent to n mod 4
    k = {3: 3, 0: 4, 1: 5}[n % 4]
    p2p = (n - k) // 4
    for s in sizes:
        p1 = s - p2p
        if p2p >= 0 and p1 >= 0 and p1 + 2 * p2p <= n:
            scheme = SchemeParams(p1=p1, p2=p2p, skip=_skip_of(s, n), variant="pinned")
            yield scheme, _cycle_pattern(n, p1, p2p)
    for s in sizes:
        for p2 in range(0, s + 1):
            p1 = s - p2
            if p1 + 2 * p2 > n:
                continue
            scheme = SchemeParams(p1=p1, p2=p2, skip=_skip_of(s, n), variant="scan")
            yield scheme, _cycle_pattern(n, p1, p2)


def construct_cycle(n: int) -> Constructed | Infeasible:
    """Cordial labeling of the n-cycle, or Infeasible when n = 2 (mod 4)."""
    return _parity_or_first(generate(FamilySpec("cycle", (n,))), _cycle_candidates(n))


# ---------------------------------------------------------------- wheels


def _wheel_pattern(n: int, p1: int, p2: int) -> ParityPattern:
    tail = n - p1 - 2 * p2
    # hub is vertex 0 and stays odd in this scheme
    return (O,) + (E,) * p1 + _alt(p2) + (O,) * tail


def _wheel_candidates(n: int):
    sizes = feasible_even_counts(n + 1)
    p, k = divmod(n + 1, 7)
    p1t = p + 3 if k in (0, 6) else p + k
    p2t = 2 * p - 2 if k == 0 else 2 * p if k == 6 else 2 * p - 1
    if p1t >= 0 and p2t >= 0 and p1t + 2 * p2t <= n and (p1t + p2t) in sizes:
        scheme = SchemeParams(
            p=p, q=k, p1=p1t, p2=p2t, skip=_skip_of(p1t + p2t, n + 1), variant="pinned"
        )
        yield scheme, _wheel_pattern(n, p1t, p2t)
    for s in sizes:
        for p2 in range(0, s + 1):
            p1 = s - p2
            if p1 + 2 * p2 > n:
                continue
            scheme = SchemeParams(p1=p1, p2=p2, skip=_skip_of(s, n + 1), variant="scan")
            yield scheme, _wheel_pattern(n, p1, p2)


def construct_wheel(n: int) -> Constructed:
    """Cordial labeling of the wheel with n rim vertices; always succeeds."""
    return _first_cordial(generate(FamilySpec("wheel", (n,))), _wheel_candidates(n))


# ------------------------------------------------------ triangular snakes


def _snake_pattern(n: int, p1: int, p2: int) -> ParityPattern:
    # path ids 0..n, tip ids n+1..2n (tip n+i over path edge (i-1, i))
    pattern = [O] * (2 * n + 1)
    for j in range(n - p2, n + 1):  # last p2+1 path vertices
        pattern[j] = E
    for i in range(1, p1 + 1):  # first p1 tips
        pattern[n + i] = E
    for i in range(n + 1 - p2, n + 1):  # last p2 tips
        pattern[n + i] = E
    return tuple(pattern)


def _snake_candidates(n: int):
    sizes = feasible_even_counts(2 * n + 1)
    if n % 7 == 0:
        # pinned choices for n = 7p: imbalance 8*p2 - 3p - 4 skipping an
        # odd index, 8*p2 - 3p skipping an even one
        p = n // 7
        for s, const in ((6 * p + 1, 3 * p + 4), (6 * p, 3 * p)):
            if s not in sizes:
                continue
            for eps in (0, 1, -1):
                num = const + eps
                if num % 8 != 0:
                    continue
                p2 = num // 8
                p1 = s - 2 * p2 - 1
                if p2 < 0 or p1 < 0 or p1 + p2 > n:
                    continue
                scheme = SchemeParams(
                    p=p, q=0, p1=p1, p2=p2, skip=_skip_of(s, 2 * n + 1), variant="pinned"
                )
                yield scheme, _snake_pattern(n, p1, p2)
    for s in sizes:
        for p2 in range(0, min(n, (s - 1) // 2) + 1):
            p1 = s - 2 * p2 - 1
            if p1 < 0 or p1 + p2 > n:
                continue
            scheme = SchemeParams(p1=p1, p2=p2, skip=_skip_of(s, 2 * n + 1), variant="scan")
            yield scheme, _snake_pattern(n, p1, p2)


def construct_triangular_snake(n: int) -> Constructed | Infeasible:
    """Cordial labeling of TS_n, or Infeasible when n = 2 (mod 4)."""
    return _parity_or_first(generate(FamilySpec("triangular_snake", (n,))), _snake_candidates(n))


# ------------------------------------------------------------ friendship


def _friendship_pattern(n: int, p1: int, p2: int) -> ParityPattern:
    # apex id 0 stays odd; outer ids 1..2n; blade i = (2i-1, 2i)
    pattern = [O] * (2 * n + 1)
    for j in range(1, 2 * p1 + 1):
        pattern[j] = E
    for t in range(p2):
        pattern[2 * p1 + 1 + 2 * t] = E
    return tuple(pattern)


def _friendship_candidates(n: int):
    sizes = feasible_even_counts(2 * n + 1)
    if n % 7 == 0:
        # pinned for n = 7p, skipping an odd index: imbalance 4*p1 - 3p - 4
        p = n // 7
        s = 6 * p + 1
        if s in sizes:
            for eps in (0, 1, -1):
                num = 3 * p + 4 + eps
                if num % 4 != 0:
                    continue
                p1 = num // 4
                p2 = s - 2 * p1
                if p1 < 0 or p2 < 0 or p1 + p2 > n:
                    continue
                scheme = SchemeParams(
                    p=p, q=0, p1=p1, p2=p2, skip=O, variant="pinned"
                )
                yield scheme, _friendship_pattern(n, p1, p2)
    for s in sizes:
        for p1 in range(0, s // 2 + 1):
            p2 = s - 2 * p1
            if p1 + p2 > n:
                continue
            scheme = SchemeParams(p1=p1, p2=p2, skip=_skip_of(s, 2 * n + 1), variant="scan")
            yield scheme, _friendship_pattern(n, p1, p2)


def construct_friendship(n: int) -> Constructed | Infeasible:
    """Cordial labeling of F_n, or Infeasible when n = 2 (mod 4)."""
    return _parity_or_first(generate(FamilySpec("friendship", (n,))), _friendship_candidates(n))


# ------------------------------------------------------ twin-class scan


def _class_pattern(sizes, a) -> ParityPattern:
    """Class i owns the next sizes[i] vertex ids; the first a[i] of them are even."""
    pattern: ParityPattern = ()
    for t, k in zip(sizes, a):
        pattern += (E,) * k + (O,) * (t - k)
    return pattern


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


def _class_scan(spec: FamilySpec, sizes, scheme, cliques=(), joins=(), singles=0, preferred=()):
    """First even-count vector of the declared quotient that balances spec's graph.

    sizes lists `singles` single vertices, then one or two larger classes;
    scheme(a, skip) names the winning count vector a.
    """
    # n and |E| come from the quotient; the graph is built only to gate a hit
    n, total = sum(sizes), sum(sizes[i] * sizes[j] for i, j in joins)
    total += sum(sizes[i] * (sizes[i] - 1) // 2 for i in cliques)
    counts, multi = feasible_even_counts(n), sizes[singles:]
    # eps is quadratic along a run: two cut values and its second difference dd
    # (+4 per clique among the two run classes, -8 if they are joined) give the rest
    p, q = len(sizes) - 2, len(sizes) - 1
    dd = 4 * ((p in cliques) + (q in cliques)) - 8 * ((p, q) in joins or (q, p) in joins)
    tried, misses = 0, []
    for head in _single_parities(singles, preferred):
        for s in counts:
            first, length = _run(s - sum(head), multi)
            e, d = total - 2 * _class_cut(sizes, cliques, joins, head + first), 0
            for j in range(length):
                if -1 <= e <= 1:
                    a = head + _step(first, j)
                    pick = (scheme(a, _skip_of(s, n)), _class_pattern(sizes, a))
                    return _first_cordial(generate(spec), [pick])
                misses.append(e)
                if j == 0 and length > 1:
                    d = total - 2 * _class_cut(sizes, cliques, joins, head + _step(first, 1)) - e
                    if d == dd == 0:
                        break  # eps is constant along this run, so the rest misses too
                e, d = e + d, d + dd
            tried += length
    below = max((e for e in misses if e < 0), default=0)
    above = min((e for e in misses if e > 0), default=0)
    nearest = [f"epsilon={e}" for e in (below, above) if e]
    return Infeasible(
        f"{_name(spec)}: none of {tried} even-count vectors over classes {sizes} reaches "
        f"|epsilon| <= 1 (nearest: {', '.join(nearest) or 'none'}); vertices within a class "
        "are exchangeable, so no labeling does"
    )


def construct_complete(n: int) -> Constructed | Infeasible:
    """Cordial labeling of K_n: one clique class, so only the even count matters."""
    return _class_scan(
        FamilySpec("complete", (n,)),
        (n,),
        lambda a, skip: SchemeParams(p1=a[0], p2=n - a[0], skip=skip, variant="count-split"),
        cliques=(0,),
    )


def bipartite_block_pattern(m: int, n: int, p1: int, p2: int) -> ParityPattern:
    """p1 even labels on the m-side, p2 on the n-side, rest odd."""
    return _class_pattern((m, n), (p1, p2))


def construct_complete_bipartite(m: int, n: int) -> Constructed | Infeasible:
    """Cordial labeling of K_{m,n}: two joined sides, imbalance (m-2*p1)(n-2*p2)."""
    return _class_scan(
        FamilySpec("complete_bipartite", (m, n)),
        (m, n),
        lambda a, skip: SchemeParams(p1=a[0], p2=a[1], skip=skip),
        joins=((0, 1),),
    )


def construct_star(n: int) -> Constructed | Infeasible:
    """Star on n leaves, numbered as K_{1,n}: the apex joined to one leaf class."""
    return _class_scan(
        FamilySpec("star", (n,)),
        (1, n),
        lambda a, skip: SchemeParams(p1=a[0], p2=a[1], skip=skip),
        joins=((0, 1),),
        singles=1,
    )


def construct_bistar(m: int, n: int) -> Constructed | Infeasible:
    """Cordial labeling of the bistar B_{m,n}.

    Both apexes odd (imbalance m+n+1 - 2*(p1+p2)) come first; a few sizes
    (m+n = 3 is the smallest) need other apex parities, which the scheme
    variant records.
    """

    def scheme(a, skip):
        names = ("odd", "even")
        variant = f"apexes-{names[a[0]]}-{names[a[1]]}" if any(a[:2]) else "both-apexes-odd"
        return SchemeParams(p1=a[2], p2=a[3], skip=skip, variant=variant)

    return _class_scan(
        FamilySpec("bistar", (m, n)),
        (1, 1, m, n),
        scheme,
        joins=((0, 1), (0, 2), (1, 3)),
        singles=2,
    )


def construct_jellyfish(m1: int, m2: int) -> Constructed | Infeasible:
    """Cordial labeling of J_{m1,m2}.

    The pinned internal parities come first: v1,v3 even, its mirror v2,v4,
    then one even internal.  Only a few shapes with one pendant group empty
    and the other far beyond the even-index supply are infeasible; the
    smallest is (0, 39).
    """

    def scheme(a, skip):
        names = ",".join(f"v{i + 1}" for i in range(4) if a[i]) or "none"
        return SchemeParams(k1=a[4], k2=a[5], skip=skip, variant=f"internal-evens={names}")

    return _class_scan(
        FamilySpec("jellyfish", (m1, m2)),
        (1, 1, 1, 1, m1, m2),
        scheme,
        joins=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)),
        singles=4,
        preferred=((0, 2), (1, 3), (0,), (1,), (2,), (3,)),
    )


CONSTRUCTORS = {
    "path": construct_path,
    "cycle": construct_cycle,
    "complete": construct_complete,
    "complete_bipartite": construct_complete_bipartite,
    "star": construct_star,
    "wheel": construct_wheel,
    "bistar": construct_bistar,
    "triangular_snake": construct_triangular_snake,
    "friendship": construct_friendship,
    "jellyfish": construct_jellyfish,
}


def construct(spec: FamilySpec) -> Constructed | Infeasible:
    """Dispatch to the family constructor for spec."""
    return CONSTRUCTORS[spec.name](*spec.params)

"""Cordial-labeling constructors for the ten graph families.

Each constructor instantiates a block-structured parity scheme for its
family, trying a small pinned parameter choice first (where the family's
feasibility argument fixes one) and then scanning the scheme's parameter
range.  Closed-form imbalance formulas are treated as heuristics only:
every candidate is tallied over the real edge set, and a result is
returned only once it passes the cordiality gate.

Scan order is deterministic and documented per family, so constructions
reproduce byte-for-byte.  The available even-vertex budget is always one
of {even_count(|V|) - 1, even_count(|V|)} ("skip" one even or one odd
index); both choices are tried even where a formula fixes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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


def _first_cordial(g: Graph, candidates) -> Constructed | None:
    """Return the first candidate whose real edge tally is cordial."""
    for scheme, pattern in candidates:
        t = tally(g, pattern)
        if is_cordial(t):
            return Constructed(labeling=realize(g, pattern), scheme=scheme, tally=t)
    return None


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
    g = generate(FamilySpec("path", (n,)))
    got = _first_cordial(g, _path_candidates(n))
    if got is None:
        raise SchemeExhaustedError(f"path({n}): scheme scan exhausted")
    return got


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
    g = generate(FamilySpec("cycle", (n,)))
    if n % 4 == 2:
        return Infeasible(
            f"cycle({n}): e1 is even on any cycle, so epsilon = n (mod 4) = 2; "
            "no labeling reaches |epsilon| <= 1"
        )
    got = _first_cordial(g, _cycle_candidates(n))
    if got is None:
        raise SchemeExhaustedError(f"cycle({n}): scheme scan exhausted")
    return got


# ---------------------------------------------------------------- complete


def complete_split_imbalance(a: int, b: int) -> int:
    """Imbalance of K_(a+b) with a even-labeled and b odd-labeled vertices."""
    return comb(a, 2) + comb(b, 2) - a * b


def construct_complete(n: int) -> Constructed | Infeasible:
    """Cordial labeling of K_n; the verdict depends only on counts.

    The two admissible splits (skip an even index, or skip an odd one)
    are checked in that order; any vertex split realizes the winner.
    """
    g = generate(FamilySpec("complete", (n,)))
    ec = even_count(n)
    tried = []
    for a, skip in ((ec - 1, E), (ec, O)):
        b = n - a
        if a < 0 or b < 0:
            continue
        eps = complete_split_imbalance(a, b)
        tried.append((a, b, eps))
        if abs(eps) <= 1:
            pattern = (E,) * a + (O,) * b
            scheme = SchemeParams(p1=a, p2=b, skip=skip, variant="count-split")
            got = _first_cordial(g, [(scheme, pattern)])
            if got is None:
                raise SchemeExhaustedError(f"complete({n}): analytic split failed the gate")
            return got
    detail = "; ".join(f"(evens={a}, odds={b}) -> epsilon={e}" for a, b, e in tried)
    return Infeasible(f"complete({n}): both index splits miss |epsilon| <= 1: {detail}")


# ------------------------------------------------- complete bipartite


def bipartite_block_pattern(m: int, n: int, p1: int, p2: int) -> ParityPattern:
    """p1 even labels on the m-side, p2 on the n-side, rest odd."""
    return (E,) * p1 + (O,) * (m - p1) + (E,) * p2 + (O,) * (n - p2)


def _bipartite_scan(g: Graph, m: int, n: int) -> Constructed | None:
    """First (p1, p2) split of K_{m,n} meeting the product bound, realized on g.

    The block tally equals (m - 2*p1)(n - 2*p2) exactly, so the scan only
    realizes a candidate that already satisfies the bound.  It covers every
    split of every admissible even count, so None proves infeasibility.
    """
    for s in feasible_even_counts(m + n):
        for p1 in range(max(0, s - n), min(m, s) + 1):
            p2 = s - p1
            if abs((m - 2 * p1) * (n - 2 * p2)) <= 1:
                scheme = SchemeParams(p1=p1, p2=p2, skip=_skip_of(s, m + n))
                got = _first_cordial(g, [(scheme, bipartite_block_pattern(m, n, p1, p2))])
                if got is None:
                    raise SchemeExhaustedError(
                        f"complete_bipartite({m},{n}): product identity violated"
                    )
                return got
    return None


def construct_complete_bipartite(m: int, n: int) -> Constructed | Infeasible:
    """Cordial labeling of K_{m,n} via the product identity."""
    got = _bipartite_scan(generate(FamilySpec("complete_bipartite", (m, n))), m, n)
    if got is None:
        return Infeasible(
            f"complete_bipartite({m},{n}): no (p1, p2) with p1+p2 in "
            f"{feasible_even_counts(m + n)} gives |(m-2*p1)(n-2*p2)| <= 1"
        )
    return got


def construct_star(n: int) -> Constructed | Infeasible:
    """Star on n leaves, numbered as K_{1,n} and scanned the same way."""
    got = _bipartite_scan(generate(FamilySpec("star", (n,))), 1, n)
    if got is None:
        return Infeasible(f"star({n}): no admissible leaf split")
    return got


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
    g = generate(FamilySpec("wheel", (n,)))
    got = _first_cordial(g, _wheel_candidates(n))
    if got is None:
        raise SchemeExhaustedError(f"wheel({n}): scheme scan exhausted")
    return got


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
    g = generate(FamilySpec("triangular_snake", (n,)))
    if n % 4 == 2:
        return Infeasible(
            f"triangular_snake({n}): all 3n edges lie on triangles and each "
            "triangle carries an even number of odd edges, but cordiality "
            "would need e1 = 3n/2, which is odd"
        )
    got = _first_cordial(g, _snake_candidates(n))
    if got is None:
        raise SchemeExhaustedError(f"triangular_snake({n}): scheme scan exhausted")
    return got


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
    g = generate(FamilySpec("friendship", (n,)))
    if n % 4 == 2:
        return Infeasible(
            f"friendship({n}): all 3n edges lie on blades and each blade "
            "carries an even number of odd edges, but cordiality would "
            "need e1 = 3n/2, which is odd"
        )
    got = _first_cordial(g, _friendship_candidates(n))
    if got is None:
        raise SchemeExhaustedError(f"friendship({n}): scheme scan exhausted")
    return got


# -------------------------------------------------------------- bistars


def _bistar_pattern(m: int, n: int, apex_u: Parity, apex_v: Parity, p1: int, p2: int):
    return (
        (apex_u, apex_v)
        + (E,) * p1
        + (O,) * (m - p1)
        + (E,) * p2
        + (O,) * (n - p2)
    )


def construct_bistar(m: int, n: int) -> Constructed | Infeasible:
    """Cordial labeling of the bistar B_{m,n}.

    The both-apexes-odd scheme (imbalance m+n+1 - 2*(p1+p2)) is tried
    first.  A handful of sizes it cannot reach (m+n = 3 is the smallest)
    are still cordial with other apex parities, so the scan widens to the
    remaining apex combinations before giving up; the scheme variant
    records which one produced the labeling.
    """
    g = generate(FamilySpec("bistar", (m, n)))
    sizes = feasible_even_counts(m + n + 2)
    for s in sizes:
        if s <= m + n and abs(m + n + 1 - 2 * s) <= 1:
            p1 = min(s, m)
            p2 = s - p1
            scheme = SchemeParams(
                p1=p1, p2=p2, skip=_skip_of(s, m + n + 2), variant="both-apexes-odd"
            )
            got = _first_cordial(g, [(scheme, _bistar_pattern(m, n, O, O, p1, p2))])
            if got is not None:
                return got
    for apex_u, apex_v in ((E, O), (O, E), (E, E)):
        c = (apex_u is E) + (apex_v is E)
        for s in sizes:
            k = s - c
            if k < 0 or k > m + n:
                continue
            for p1 in range(max(0, k - n), min(m, k) + 1):
                p2 = k - p1
                e1 = (1 if apex_u is not apex_v else 0)
                e1 += p1 if apex_u is O else m - p1
                e1 += p2 if apex_v is O else n - p2
                if abs((m + n + 1) - 2 * e1) > 1:
                    continue
                names = tuple("even" if a is E else "odd" for a in (apex_u, apex_v))
                scheme = SchemeParams(
                    p1=p1,
                    p2=p2,
                    skip=_skip_of(s, m + n + 2),
                    variant=f"apexes-{names[0]}-{names[1]}",
                )
                got = _first_cordial(
                    g, [(scheme, _bistar_pattern(m, n, apex_u, apex_v, p1, p2))]
                )
                if got is not None:
                    return got
    return Infeasible(
        f"bistar({m},{n}): no apex parities and pendant split reach |epsilon| <= 1"
    )


# ------------------------------------------------------------- jellyfish

_JELLY_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))


def _jelly_combos():
    # pinned schemes first: v1,v3 even, then its pendant-side mirror v2,v4,
    # then the single-even schemes, then every remaining combination
    pinned = [(0, 2), (1, 3), (0,), (1,), (2,), (3,)]
    rest = [tuple(i for i in range(4) if bits >> i & 1) for bits in range(16)]
    return pinned + [c for c in rest if c not in pinned]


_JELLY_COMBOS = _jelly_combos()


def _jellyfish_candidates(m1: int, m2: int):
    sizes = feasible_even_counts(m1 + m2 + 4)
    total_edges = m1 + m2 + 5
    for combo in _JELLY_COMBOS:
        b = [i in combo for i in range(4)]
        internal_e1 = sum(1 for u, v in _JELLY_EDGES if b[u] != b[v])
        for s in sizes:
            ktot = s - len(combo)
            if ktot < 0 or ktot > m1 + m2:
                continue
            for k2 in range(max(0, ktot - m1), min(m2, ktot) + 1):
                k1 = ktot - k2
                e1 = internal_e1
                e1 += k1 if not b[2] else m1 - k1
                e1 += k2 if not b[3] else m2 - k2
                if abs(total_edges - 2 * e1) > 1:
                    continue
                pattern = [O] * (m1 + m2 + 4)
                for i in combo:
                    pattern[i] = E
                for i in range(k1):
                    pattern[4 + i] = E
                for i in range(k2):
                    pattern[4 + m1 + i] = E
                names = ",".join(f"v{i + 1}" for i in combo) or "none"
                scheme = SchemeParams(
                    k1=k1,
                    k2=k2,
                    skip=_skip_of(s, m1 + m2 + 4),
                    variant=f"internal-evens={names}",
                )
                yield scheme, tuple(pattern)


def construct_jellyfish(m1: int, m2: int) -> Constructed | Infeasible:
    """Cordial labeling of J_{m1,m2}.

    Pendants within a group are exchangeable, so scanning internal parity
    combinations together with per-group even counts (k1, k2) covers the
    whole pattern space up to symmetry.  Exhaustion of that scan is
    therefore a proof of infeasibility, not a defect: it happens exactly
    at a few degenerate shapes with one pendant group empty and the other
    far larger than the even-index supply (the smallest is (0, 39)).
    """
    g = generate(FamilySpec("jellyfish", (m1, m2)))
    got = _first_cordial(g, _jellyfish_candidates(m1, m2))
    if got is None:
        return Infeasible(
            f"jellyfish({m1},{m2}): no internal parity combination and pendant "
            "even-counts balance the edge labels (scan covers the whole "
            "pattern space up to pendant exchange)"
        )
    return got


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

"""Family constructors: worked examples, figure fixtures, soundness gates."""

import hashlib
import importlib
import random
import tracemalloc
from functools import partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import (
    Constructed,
    EdgeTally,
    FamilyParameterError,
    FamilySpec,
    Graph,
    Infeasible,
    Parity,
    PerrinLabeling,
    SchemeExhaustedError,
    construct,
    decide_exhaustive,
    decide_parity,
    even_count,
    feasible_even_counts,
    generate,
    is_cordial,
    is_valid,
    tally,
    to_parity,
    write_labeling,
)
from perrin_cordial.graph_io import dot_lines
from perrin_cordial.labeling import _parity_reason

import oracles
from test_graphs import TRUSTED_GRID, nested_loop_edges

E, O = Parity.EVEN, Parity.ODD


def _odd_bytes(pattern):
    # the form _blocks_pattern builds: one byte per vertex, 1 where odd
    return bytes([p is O for p in pattern])


def _from_odd_bytes(odd):
    return tuple(O if b else E for b in odd)


def _parities(text):
    return tuple(E if c == "E" else O for c in text)


def _check(spec):
    """spec's construction, its gate re-checked with the independent verifier."""
    got = construct(spec)
    assert isinstance(got, Constructed)
    g = generate(spec)
    assert is_valid(g, got.labeling)
    t = tally(g, to_parity(got.labeling))
    assert t == got.tally
    assert is_cordial(t)
    # skip parity bookkeeping: evens used is even_count(|V|) or one less
    used = sum(1 for p in to_parity(got.labeling) if p is E)
    ec = even_count(g.vertex_count)
    assert used in (ec - 1, ec)
    return got


# ---------------------------------------------------------------- paths


def test_path_seven_matches_block_scheme():
    got = _check(FamilySpec("path", (7,)))
    assert to_parity(got.labeling) == (E, E, O, E, O, O, O)
    assert got.tally.epsilon == 0


def test_path_two_single_edge():
    got = _check(FamilySpec("path", (2,)))
    assert abs(got.tally.epsilon) == 1


def test_path_fourteen_pinned():
    got = _check(FamilySpec("path", (14,)))
    assert to_parity(got.labeling) == _parities("OEEEEOEOEOOOOO")
    assert got.tally.epsilon == 1


@pytest.mark.parametrize("n", list(range(1, 60)))
def test_paths_always_feasible(n):
    _check(FamilySpec("path", (n,)))


# ---------------------------------------------------------------- cycles


def test_cycle_six_infeasible():
    r = construct(FamilySpec("cycle", (6,)))
    assert isinstance(r, Infeasible)
    assert "mod 4" in r.reason


def test_cycle_sixteen():
    got = _check(FamilySpec("cycle", (16,)))
    assert to_parity(got.labeling) == _parities("EEEEOEOEOEOOOOOO")
    assert got.tally.epsilon == 0


def test_cycle_five():
    got = _check(FamilySpec("cycle", (5,)))
    assert to_parity(got.labeling) == (E, E, E, O, O)
    assert got.tally.epsilon == 1


@pytest.mark.parametrize("n", list(range(3, 60)))
def test_cycles_feasible_iff_not_two_mod_four(n):
    spec = FamilySpec("cycle", (n,))
    if n % 4 == 2:
        assert isinstance(construct(spec), Infeasible)
    else:
        _check(spec)


# -------------------------------------------------------------- complete

KN_FEASIBLE_100 = {1, 2, 3, 4, 6, 36, 49, 51, 62, 64, 66, 79, 81, 83}


def test_complete_49_balanced_split():
    got = _check(FamilySpec("complete", (49,)))
    assert (got.tally.e0, got.tally.e1) == (588, 588)
    assert to_parity(got.labeling) == (E,) * 21 + (O,) * 28


def test_complete_trivial_and_infeasible():
    _check(FamilySpec("complete", (1,)))
    r = construct(FamilySpec("complete", (5,)))
    assert isinstance(r, Infeasible)
    assert "epsilon=-2" in r.reason and "epsilon=2" in r.reason


def test_infeasible_class_scan_keeps_only_its_nearest_misses():
    # K_{20001,20001} misses with 34,291 count vectors; the reason names two of them
    tracemalloc.start()
    try:
        r = construct(FamilySpec("complete_bipartite", (20001, 20001)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(r, Infeasible)
    assert "none of 34291 " in r.reason and "(nearest: epsilon=-5713, epsilon=5711)" in r.reason
    assert peak < 100_000


def test_a_class_scan_meets_the_edge_bound_only_on_a_hit():
    # the scan reads the parameters alone; the gate reads the edges, so only a hit is bounded
    r = construct(FamilySpec("complete", (3163,)))  # 5,000,703 edges
    assert isinstance(r, Infeasible) and r.reason.startswith("complete(3163): none of 2 ")
    with pytest.raises(FamilyParameterError) as err:
        construct(FamilySpec("complete_bipartite", (3000, 3000)))
    assert str(err.value) == "complete_bipartite(3000, 3000) has 9,000,000 edges, over the 5,000,000 limit"


def _peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_construction_never_stores_its_edges():
    # K_{300,301}: the gate tallies its 90,300 edges as they stream by
    spec = FamilySpec("complete_bipartite", (300, 301))
    got, peak = _peak(lambda: construct(spec))
    g, stored = _peak(lambda: generate(spec))
    assert isinstance(got, Constructed) and got.tally == tally(g, to_parity(got.labeling))
    assert stored > 5_000_000 and peak < 1_000_000, (stored, peak)


def test_complete_verdict_over_hundred_matches_independent_recount():
    # independent recount: with a evens and b odds the imbalance is
    # ((b - a)^2 - n) / 2, so feasibility means |(b - a)^2 - n| <= 2
    got = set()
    for n in range(1, 101):
        ec = even_count(n)
        splits = [(ec - 1, n + 1 - ec), (ec, n - ec)]
        if any(a >= 0 and b >= 0 and abs((b - a) ** 2 - n) <= 2 for a, b in splits):
            got.add(n)
    assert got == KN_FEASIBLE_100
    constructed = {
        n
        for n in range(1, 101)
        if isinstance(construct(FamilySpec("complete", (n,))), Constructed)
    }
    assert constructed == KN_FEASIBLE_100


# ------------------------------------------------- complete bipartite


def test_bipartite_four_three():
    got = _check(FamilySpec("complete_bipartite", (4, 3)))
    assert to_parity(got.labeling) == _parities("EEOOEOO")
    assert got.tally.epsilon == 0


def test_bipartite_twenty_eight_one_infeasible():
    r = construct(FamilySpec("complete_bipartite", (28, 1)))
    assert isinstance(r, Infeasible)


def test_bipartite_two_two():
    got = _check(FamilySpec("complete_bipartite", (2, 2)))
    assert to_parity(got.labeling) == _parities("EOEO")


@pytest.mark.parametrize("n", [1, 3, 5])
def test_bipartite_excluded_width_is_infeasible(n):
    assert isinstance(construct(FamilySpec("complete_bipartite", (6 * n + 22, n))), Infeasible)
    _check(FamilySpec("complete_bipartite", (6 * n + 24, n)))
    _check(FamilySpec("complete_bipartite", (6 * n + 26, n)))
    assert isinstance(construct(FamilySpec("complete_bipartite", (6 * n + 28, n))), Infeasible)


def test_star_alias():
    got = _check(FamilySpec("star", (7,)))
    assert got.labeling.domain_max == 8


@pytest.mark.parametrize("m,n", [(4, 3), (2, 2), (7, 5), (12, 9), (6, 1)])
def test_bipartite_emitted_tally_equals_product(m, n):
    got = construct(FamilySpec("complete_bipartite", (m, n)))
    if isinstance(got, Constructed):
        pattern = to_parity(got.labeling)
        p1, p2 = pattern[:m].count(E), pattern[m:].count(E)
        assert got.tally.epsilon == (m - 2 * p1) * (n - 2 * p2)


# ---------------------------------------------------------------- wheels


def test_wheel_thirteen_first_hit_is_the_paper_table_entry():
    # the paper's table entry (5, 2) is the walk's first hit; no table is kept
    got = _check(FamilySpec("wheel", (13,)))
    # hub odd, then E^5 (OE)^2 O^4 around the rim
    assert to_parity(got.labeling) == _parities("OEEEEEOEOEOOOO")
    assert abs(got.tally.epsilon) <= 1


def test_wheel_six_first_hit_has_zero_imbalance():
    # the walk's exact cut puts the first hit at (4, 0), whose real tally is 0
    got = _check(FamilySpec("wheel", (6,)))
    assert to_parity(got.labeling) == _parities("OEEEEOO")
    assert got.tally.epsilon == 0


def test_wheel_figure_labeling_verifies():
    # drawn instance: 13 rim vertices plus hub, hub labeled with index 13
    g = generate(FamilySpec("wheel", (13,)))
    fig = PerrinLabeling(
        {0: 13, 1: 0, 2: 2, 3: 3, 4: 5, 5: 9, 6: 1, 7: 10, 8: 4, 9: 12, 10: 6, 11: 7, 12: 8, 13: 11},
        14,
    )
    assert is_valid(g, fig)
    t = tally(g, to_parity(fig))
    assert (t.e0, t.e1) == (13, 13)
    assert is_cordial(t)


@pytest.mark.parametrize("n", list(range(3, 60)))
def test_wheels_always_feasible(n):
    _check(FamilySpec("wheel", (n,)))


# ------------------------------------------------------ triangular snakes


def test_snake_two_infeasible():
    r = construct(FamilySpec("triangular_snake", (2,)))
    assert isinstance(r, Infeasible)
    assert "even number of odd edges" in r.reason


def test_snake_four_and_figure():
    got = _check(FamilySpec("triangular_snake", (4,)))
    g = generate(FamilySpec("triangular_snake", (4,)))
    fig = PerrinLabeling({0: 1, 1: 4, 2: 6, 3: 3, 4: 9, 5: 0, 6: 2, 7: 7, 8: 5}, 9)
    assert is_valid(g, fig)
    t = tally(g, to_parity(fig))
    assert (t.e0, t.e1) == (6, 6)
    # the constructed scheme lands on the same parity pattern the figure uses
    assert to_parity(got.labeling) == to_parity(fig)


def test_snake_seven_pinned():
    got = _check(FamilySpec("triangular_snake", (7,)))
    assert to_parity(got.labeling) == _parities("OOOOOOEEEEEEOOE")
    assert got.tally.epsilon == 1


@pytest.mark.parametrize("n", list(range(1, 40)))
def test_snakes_feasible_iff_not_two_mod_four(n):
    spec = FamilySpec("triangular_snake", (n,))
    if n % 4 == 2:
        assert isinstance(construct(spec), Infeasible)
    else:
        _check(spec)


# ------------------------------------------------------------ friendship


def test_friendship_four_and_figure():
    _check(FamilySpec("friendship", (4,)))
    g = generate(FamilySpec("friendship", (4,)))
    fig = PerrinLabeling({0: 1, 1: 0, 2: 5, 3: 3, 4: 2, 5: 9, 6: 7, 7: 6, 8: 4}, 9)
    assert is_valid(g, fig)
    t = tally(g, to_parity(fig))
    assert (t.e0, t.e1) == (6, 6)


def test_friendship_six_infeasible():
    assert isinstance(construct(FamilySpec("friendship", (6,))), Infeasible)


def test_friendship_seven_pinned():
    got = _check(FamilySpec("friendship", (7,)))
    assert to_parity(got.labeling) == _parities("OEEEEEOEOEOOOOO")
    assert got.tally.epsilon == 1


@pytest.mark.parametrize("n", list(range(1, 40)))
def test_friendships_feasible_iff_not_two_mod_four(n):
    spec = FamilySpec("friendship", (n,))
    if n % 4 == 2:
        assert isinstance(construct(spec), Infeasible)
    else:
        _check(spec)


# -------------------------------------------------------------- bistars


def test_bistar_examples():
    got = _check(FamilySpec("bistar", (6, 6)))
    assert got.tally.epsilon == 1
    pattern = to_parity(got.labeling)
    assert pattern[:2] == (O, O)  # both apexes odd
    assert pattern[2:].count(E) == 6 == even_count(14) - 1

    got = _check(FamilySpec("bistar", (1, 1)))
    assert got.tally.epsilon == -1

    got = _check(FamilySpec("bistar", (13, 12)))
    assert got.tally.epsilon == 0
    assert to_parity(got.labeling).count(E) == even_count(27)


def test_bistar_sum_three_needs_mixed_apexes():
    # the odd-apexes scheme cannot reach m+n = 3, yet B_{1,2} is cordial
    for m, n in ((1, 2), (2, 1)):
        got = _check(FamilySpec("bistar", (m, n)))
        assert E in to_parity(got.labeling)[:2]


def test_bistar_grid_matches_scheme_reach():
    # within the claimed feasible sums, the odd-apexes scheme covers
    # everything except sum 3
    for total in list(range(2, 27)) + [28, 29, 30, 32, 36]:
        for m in range(1, total):
            got = _check(FamilySpec("bistar", (m, total - m)))
            if total != 3:
                assert to_parity(got.labeling)[:2] == (O, O), (m, total - m)


# ------------------------------------------------------------- jellyfish


def test_jellyfish_seven_seven():
    got = _check(FamilySpec("jellyfish", (7, 7)))
    pattern = to_parity(got.labeling)
    assert pattern[11:].count(E) == 3  # evens in the second pendant group
    assert got.tally.epsilon == -1
    assert pattern[:4] == (E, O, E, O)  # internal evens are v1 and v3


def test_jellyfish_empty():
    got = _check(FamilySpec("jellyfish", (0, 0)))
    assert got.tally.epsilon == -1


def test_jellyfish_lopsided_needs_mirror_scheme():
    # J(0,1) defeats both pinned schemes; the mirrored combination works
    got = _check(FamilySpec("jellyfish", (0, 1)))
    assert abs(got.tally.epsilon) <= 1


def test_jellyfish_figure_labeling_is_rejected():
    # drawn instance reuses index 7 on both pendant groups
    g = generate(FamilySpec("jellyfish", (7, 7)))
    fig = PerrinLabeling(
        {
            0: 2, 1: 1, 2: 4, 3: 0,
            4: 12, 5: 16, 6: 14, 7: 15, 8: 18, 9: 7, 10: 13,
            11: 3, 12: 8, 13: 7, 14: 6, 15: 9, 16: 5, 17: 11,
        },
        18,
    )
    assert not is_valid(g, fig)
    indices = sorted(fig.assignment.values())
    assert indices.count(7) == 2  # the duplicated label is the only flaw
    assert len(set(indices)) == 17


@pytest.mark.parametrize(
    "m1,m2,feasible",
    [(1, 51, True), (1, 52, False), (2, 64, True), (2, 65, False), (12, 194, True), (12, 195, False)],
)
def test_jellyfish_boundary(m1, m2, feasible):
    # infeasible exactly when m2 - 13*m1 is in {39, 45, 46, 47, 49} or is at
    # least 51: each pair sits on either side of m2 - 13*m1 = 51
    spec = FamilySpec("jellyfish", (m1, m2))
    if feasible:
        _check(spec)
    else:
        assert isinstance(construct(spec), Infeasible)


@pytest.mark.parametrize("m1", range(0, 12))
@pytest.mark.parametrize("m2", range(0, 12))
def test_jellyfish_small_grid(m1, m2):
    _check(FamilySpec("jellyfish", (m1, m2)))


def test_construct_dispatch():
    got = construct(FamilySpec("wheel", (5,)))
    assert isinstance(got, Constructed)
    assert isinstance(construct(FamilySpec("cycle", (6,))), Infeasible)


# ------------------------------------------------------ twin-class scan

_construct = importlib.import_module("perrin_cordial.construct")
_graphs = importlib.import_module("perrin_cordial.graphs")


def _blow_up(sizes, cliques, joins):
    """The graph whose class quotient is exactly the declared one."""
    owner = [i for i, t in enumerate(sizes) for _ in range(t)]
    joined = {frozenset(pair) for pair in joins}
    n = len(owner)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (owner[u] in cliques if owner[u] == owner[v] else {owner[u], owner[v]} in joined)
    ]
    return Graph(n, tuple(edges))


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", (1,)),
        ("complete", (5,)),
        ("complete_bipartite", (1, 1)),
        ("complete_bipartite", (4, 3)),
        ("star", (1,)),
        ("star", (6,)),
        ("bistar", (1, 1)),
        ("bistar", (3, 5)),
        ("jellyfish", (0, 0)),
        ("jellyfish", (0, 3)),
        ("jellyfish", (4, 2)),
    ],
    ids=lambda v: f"construct_{v}" if isinstance(v, str) else None,
)
def test_declared_class_quotient_matches_edges(family, params):
    spec = FamilySpec(family, params)
    singles, cliques, joins = _graphs._QUOTIENTS[family]
    sizes = (1,) * singles + params
    count, edges = nested_loop_edges(family, params)
    assert sum(sizes) == count
    # the edges are exactly the declared quotient blown up, so every class
    # is a module: one neighbourhood outside it, all or no pairs inside it
    assert list(_blow_up(sizes, cliques, joins).edges) == edges, spec
    # the cut formula counts the odd edges wherever the evens sit in a class
    g = Graph(count, tuple(edges))
    rnd = random.Random(repr(spec))
    for _ in range(50):
        a = tuple(rnd.randint(0, t) for t in sizes)
        pattern = []
        for t, k in zip(sizes, a):
            block = [E] * k + [O] * (t - k)
            rnd.shuffle(block)
            pattern += block
        cut = oracles._class_cut(sizes, cliques, joins, a)
        assert cut == tally(g, tuple(pattern)).e1, (spec, a)


def _edge_pieces(g):
    """A stand-in for construct's _pieces: one single-edge piece per edge of g, whatever the spec."""
    pieces = tuple(("join", range(u, u + 1), range(v, v + 1)) for u, v in g.edges)
    return lambda spec: (g.vertex_count, g.edge_count, pieces)


def test_construct_never_calls_generate(monkeypatch):
    # every 5th point of the c04 grid and a few stars, so both scans and every
    # family; the results must not change when generate cannot be called
    from test_acceptance import c04_grid

    specs = c04_grid()[::5] + [FamilySpec("star", (n,)) for n in range(1, 40, 3)]
    want = [construct(spec) for spec in specs]

    def refuse(spec):
        raise AssertionError(f"generate({spec}) called")

    graphs = importlib.import_module("perrin_cordial.graphs")
    monkeypatch.setattr(graphs, "generate", refuse)
    monkeypatch.setattr(_construct, "generate", refuse, raising=False)
    assert {spec.name for spec in specs} == set(_construct.CONSTRUCTORS)
    assert [construct(spec) for spec in specs] == want


def test_constructions_never_expand_pairs(monkeypatch):
    # the gate tallies a family's pieces and the certificate flips their degree
    # parities, so no (u, v) pair is ever made; n = 2 (mod 4) shapes are where the
    # certificate fires, odd wheels and paths with n = 3 (mod 4) where it is read and silent
    from test_acceptance import c04_grid

    specs = c04_grid()[::5] + [FamilySpec("star", (n,)) for n in range(1, 40, 3)]
    specs += [FamilySpec(f, (n,)) for f in ("cycle", "triangular_snake", "friendship") for n in range(6, 60, 4)]
    specs += [FamilySpec(f, (n,)) for f in ("wheel", "path") for n in range(3, 60, 4)]
    want = [construct(spec) for spec in specs]

    def refuse(spec):
        raise AssertionError(f"the pairs of {spec} expanded")

    monkeypatch.setattr(_graphs, "_edge_stream", refuse)
    monkeypatch.setattr(_construct, "_edge_stream", refuse, raising=False)
    assert {spec.name for spec in specs} == set(_construct.CONSTRUCTORS)
    assert [construct(spec) for spec in specs] == want


@st.composite
def _spec_and_pattern(draw):
    # from each family's lower bound up, so path(1), cycle(3), snake(1) and
    # jellyfish(0, *) with their empty lanes and sides come up
    family = draw(st.sampled_from(sorted(_graphs._FAMILIES)))
    names, lo = _graphs._FAMILIES[family]
    spec = FamilySpec(family, tuple(draw(st.integers(lo, lo + 12)) for _ in names.split()))
    n = _graphs._pieces(spec)[0]
    return spec, tuple(draw(st.lists(st.sampled_from((E, O)), min_size=n, max_size=n)))


@given(_spec_and_pattern())
@settings(max_examples=300)
def test_piece_tally_is_the_edge_tally(spec_pattern):
    spec, pattern = spec_pattern
    _, m, pieces = _graphs._pieces(spec)
    e1 = _graphs._cut(pieces, _odd_bytes(pattern))
    assert EdgeTally(e0=m - e1, e1=e1) == tally(generate(spec), pattern), spec


@pytest.mark.parametrize("family_less", [False, True])
def test_class_scan_rejects_a_quotient_the_edges_contradict(family_less, monkeypatch):
    # C_4 declared as K_{2,2} on classes {0,1}, {2,3}: the formula hit
    # (1, 1) tallies epsilon = -4, so the scan raises instead of skipping it,
    # from the family's own pieces or from the edges of a family-less graph
    if family_less:
        c4 = Graph(4, generate(FamilySpec("cycle", (4,))).edges)
        monkeypatch.setattr(_construct, "_pieces", _edge_pieces(c4))
    with pytest.raises(SchemeExhaustedError):
        _construct._class_scan(FamilySpec("cycle", (4,)), (2, 2), joins=((0, 1),))


def test_class_scan_agrees_with_exhaustive_on_random_quotients(monkeypatch):
    # the scan's verdict must match the exhaustive search on the blown-up
    # graph; the fixed first case has a run whose eps repeats before it turns
    # towards its hit, the random ones put cliques and joins anywhere
    cases = [((1, 1, 8, 2), (2,), ((0, 3), (2, 3)), 2)]
    rnd = random.Random(4)
    for _ in range(200):
        singles = rnd.randint(0, 3)
        sizes = (1,) * singles + tuple(rnd.randint(0, 5) for _ in range(rnd.randint(1, 2)))
        cliques = tuple(i for i in range(singles, len(sizes)) if rnd.random() < 0.4)
        joins = tuple(
            (i, j) for j in range(len(sizes)) for i in range(j) if rnd.random() < 0.5
        )
        cases.append((sizes, cliques, joins, singles))
    for sizes, cliques, joins, singles in cases:
        g = _blow_up(sizes, cliques, joins)
        monkeypatch.setattr(_construct, "_pieces", _edge_pieces(g))
        got = _construct._class_scan(
            FamilySpec("path", (1,)),
            sizes,
            cliques=cliques,
            joins=joins,
            singles=singles,
        )
        assert isinstance(got, Constructed) == decide_exhaustive(g).feasible, (sizes, joins)


@st.composite
def _quotients(draw):
    # one or two run classes after 0-4 singles, often tiny, so heads with more evens
    # than a total come up; joins in either orientation, cliques anywhere, and
    # preferred heads over the singles
    singles = draw(st.integers(0, 4))
    runs = st.lists(st.integers(0, 3) | st.integers(0, 60), min_size=1, max_size=2)
    sizes = (1,) * singles + tuple(draw(runs))
    classes = range(len(sizes))
    cliques = tuple(sorted(draw(st.sets(st.sampled_from(classes)))))
    pairs = [(i, j) for j in classes for i in range(j)]
    joins = tuple(
        (j, i) if draw(st.booleans()) else (i, j)
        for i, j in pairs if draw(st.booleans())
    )
    heads = st.sets(st.integers(0, singles - 1)).map(lambda e: tuple(sorted(e))) if singles else st.just(())
    preferred = tuple(draw(st.lists(heads, max_size=4)))
    return sizes, cliques, joins, singles, preferred


@given(_quotients())
@settings(max_examples=400, deadline=None)
def test_class_scan_is_the_stepping_scan(quotient):
    # the solved runs against the scan that stepped every count vector, byte for byte
    sizes, cliques, joins, singles, preferred = quotient
    bounds = [range(sum(sizes[:i]), sum(sizes[: i + 1])) for i in range(len(sizes))]
    pieces = [("clique", bounds[i], bounds[i]) for i in cliques] + [("join", bounds[i], bounds[j]) for i, j in joins]
    m = sum(len(a) * (len(a) - 1) // 2 if kind == "clique" else len(a) * len(b) for kind, a, b in pieces)
    spec, quotient = FamilySpec("path", (1,)), dict(cliques=cliques, joins=joins, singles=singles, preferred=preferred)
    with mock.patch.object(_construct, "_pieces", lambda _: (sum(sizes), m, pieces)):
        got = _construct._class_scan(spec, sizes, **quotient)
        want = oracles.class_scan_reference(spec, sizes, **quotient)
    if isinstance(want, Infeasible):
        assert got == want
    else:
        assert isinstance(got, Constructed) and got.tally == want.tally
        assert got.labeling._odd == want.labeling._odd


# ----------------------------------------------------------- block walks


BLOCK_WALKS = {
    "path": (_construct._path_walk, range(1, 81)),
    "cycle": (_construct._ring_walk, range(3, 81)),
    "wheel": (partial(_construct._ring_walk, spokes=True), range(3, 81)),
    "triangular_snake": (_construct._snake_walk, range(1, 61)),
    "friendship": (_construct._friendship_walk, range(1, 61)),
}


def test_blocks_pattern_runs_in_order():
    # zero-size blocks add nothing; an alternating block starts with its first parity
    bp = _construct._blocks_pattern
    assert bp(()) == _odd_bytes(())
    assert bp(((0, O, O), (0, E, E), (0, O, E), (0, E, O))) == _odd_bytes(())
    assert bp(((3, E, E), (2, O, O))) == _odd_bytes((E, E, E, O, O))
    assert bp(((4, O, E),)) == _odd_bytes((O, E, O, E))
    assert bp(((4, E, O),)) == _odd_bytes((E, O, E, O))
    assert bp(((1, O, O), (0, E, E), (2, E, O), (2, O, E), (1, E, E))) == _odd_bytes((O, E, O, O, E, E))


def _snake_reference(n, s, p2):
    # the index-loop builder: path ids 0..n, tip ids n+1..2n
    p1 = s - 2 * p2 - 1
    pattern = [O] * (2 * n + 1)
    for j in range(n - p2, n + 1):  # last p2+1 path vertices
        pattern[j] = E
    for i in range(1, p1 + 1):  # first p1 tips
        pattern[n + i] = E
    for i in range(n + 1 - p2, n + 1):  # last p2 tips
        pattern[n + i] = E
    return tuple(pattern)


def _friendship_reference(n, s, p1):
    # the index-loop builder: apex 0 odd, blade i = (2i-1, 2i)
    p2 = s - 2 * p1
    pattern = [O] * (2 * n + 1)
    for j in range(1, 2 * p1 + 1):
        pattern[j] = E
    for t in range(p2):
        pattern[2 * p1 + 1 + 2 * t] = E
    return tuple(pattern)


def _snake_key(blocks):
    # (s, p2): E^(p2+1+p1) on the path and E^p2 as the last tips
    return blocks[1][0] + blocks[3][0], blocks[3][0]


def _friendship_key(blocks):
    # (s, p1): 2 p1 even tips, then p2 blades (E, O)
    return blocks[1][0] + blocks[2][0] // 2, blocks[1][0] // 2


def _full_snake_walk(n):
    # every candidate of the snake in walk order, stepping p2 one at a time
    for s in feasible_even_counts(2 * n + 1):
        for p2 in range(min(n, (s - 1) // 2) + 1):
            p1 = s - 2 * p2 - 1
            if p1 + p2 <= n:
                blocks = ((n - p2, O, O), (p2 + 1 + p1, E, E), (n - p1 - p2, O, O), (p2, E, E))
                yield blocks, 0 if p2 == n else 2 + 2 * min(p1, n - p2 - 1)


def _full_friendship_walk(n):
    # every candidate of the friendship graph in walk order, stepping p1 one at a time
    sizes = feasible_even_counts(2 * n + 1)
    for s in sizes[::-1] if n % 7 == 0 else sizes:
        for p1 in range(s // 2 + 1):
            p2 = s - 2 * p1
            if p1 + p2 <= n:
                yield ((1, O, O), (2 * p1, E, E), (2 * p2, E, O), (2 * (n - p1 - p2), O, O)), 2 * (p1 + p2)


@pytest.mark.parametrize(
    "walk,key,reference",
    [
        (_full_snake_walk, _snake_key, _snake_reference),
        (_full_friendship_walk, _friendship_key, _friendship_reference),
    ],
    ids=["triangular_snake", "friendship"],
)
def test_block_builders_match_the_index_loop_builders(walk, key, reference):
    for n in range(1, 301):
        for blocks, _ in walk(n):
            assert _construct._blocks_pattern(blocks) == _odd_bytes(reference(n, *key(blocks))), (n, blocks)


@pytest.mark.parametrize("family", BLOCK_WALKS)
def test_block_walk_cut_is_the_real_tally(family):
    # every candidate of the walk, also at n = 2 (mod 4) where the
    # certificate answers before the walk starts
    walk, sizes = BLOCK_WALKS[family]
    for n in sizes:
        g = generate(FamilySpec(family, (n,)))
        for blocks, cut in walk(n):
            pattern = _from_odd_bytes(_construct._blocks_pattern(blocks))
            assert len(pattern) == g.vertex_count, (family, n, blocks)
            assert pattern.count(E) in feasible_even_counts(g.vertex_count), (family, n, blocks)
            assert cut == tally(g, pattern).e1, (family, n, blocks)


def _full_ring_walk(n, spokes):
    # every candidate of the ring in walk order, after the hub block; its cut
    # from line_cut with the first rim vertex repeated at the end to close the ring
    for s in feasible_even_counts(n + spokes):
        for p2 in range(min(s, n - s) + 1):
            head = E if s > p2 else O
            rim = ((s - p2, E, E), (2 * p2, O, E), (n - s - p2, O, O))
            cut = oracles.line_cut((*rim, (1, head, head))) + s * spokes
            yield ((int(spokes), O, O), *rim), cut


def _first_balanced(walk, edge_total):
    return next((blocks for blocks, cut in walk if abs(edge_total - 2 * cut) <= 1), None)


@pytest.mark.parametrize("spokes", [False, True], ids=["cycle", "wheel"])
def test_ring_walk_hit_is_the_full_walks_first_balanced_key(spokes):
    # n = 2 (mod 4) cycles included: neither walk balances them
    for n in range(3, 3001):
        m = 2 * n if spokes else n
        expected = _first_balanced(_full_ring_walk(n, spokes), m)
        assert _first_balanced(_construct._ring_walk(n, spokes), m) == expected, n


def _full_path_walk(n):
    # every candidate of the path in walk order, stepping p2 one at a time
    for s in feasible_even_counts(n):
        for q1 in (1, 0) if n % 7 == 0 else (0, 1):
            for p2 in range(min(s, n - s - q1) + 1):
                blocks = ((q1, O, O), (s - p2, E, E), (2 * p2, O, E), (n - s - q1 - p2, O, O))
                yield blocks, oracles.line_cut(blocks)


def test_path_walk_hit_is_the_full_walks_first_balanced_key():
    for n in range(1, 3001):
        expected = _first_balanced(_full_path_walk(n), n - 1)
        assert expected is not None and _first_balanced(_construct._path_walk(n), n - 1) == expected, n


@pytest.mark.parametrize(
    "full,solved",
    [(_full_snake_walk, _construct._snake_walk), (_full_friendship_walk, _construct._friendship_walk)],
    ids=["triangular_snake", "friendship"],
)
def test_solved_walk_hit_is_the_full_walks_first_balanced_key(full, solved):
    # n = 2 (mod 4) included: neither walk balances them
    for n in range(1, 3001):
        expected = _first_balanced(full(n), 3 * n)
        assert (expected is None) == (n % 4 == 2) and _first_balanced(solved(n), 3 * n) == expected, n


def test_piece_certificate_is_the_edge_certificate():
    # every family over TRUSTED_GRID and at its smallest sizes, and the n = 2 (mod 4)
    # cycles, snakes and friendships, where every degree is even and it must fire
    specs = [FamilySpec(f, p) for f, p in TRUSTED_GRID]
    for family, (names, lo) in _graphs._FAMILIES.items():
        specs += [FamilySpec(family, p) for p in product(range(lo, lo + 13), repeat=len(names.split()))]
    fires = [FamilySpec(f, (n,)) for f in ("cycle", "triangular_snake", "friendship") for n in range(6, 400, 4)]
    for spec in specs + fires:
        n, m, pieces = _graphs._pieces(spec)
        reason = _parity_reason(m) if m % 4 == 2 and 1 not in _graphs._degree_parity(n, pieces) else None
        verdict = decide_parity(generate(spec))
        assert reason == (verdict and verdict.reason), spec
        assert reason is not None or spec not in fires, spec


def test_block_constructions_tally_once(monkeypatch):
    real, calls = _construct._cut, []

    def counting(pieces, odd):
        calls.append(len(odd))
        return real(pieces, odd)

    monkeypatch.setattr(_construct, "_cut", counting)
    cases = [("path", n) for n in range(1, 201)]
    cases += [("cycle", n) for n in range(3, 201) if n % 4 != 2]
    cases += [("wheel", n) for n in range(3, 201)]
    cases += [(f, n) for f in ("triangular_snake", "friendship") for n in range(1, 101) if n % 4 != 2]
    cases += [("path", 100_000), ("friendship", 20_000), ("triangular_snake", 20_000)]
    for family, n in cases:
        calls.clear()
        got = construct(FamilySpec(family, (n,)))
        assert isinstance(got, Constructed) and len(calls) == 1, (family, n, calls)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("path", (9,)), FamilySpec("wheel", (13,)), FamilySpec("complete_bipartite", (3, 4)),
     FamilySpec("jellyfish", (7, 7)), FamilySpec("triangular_snake", (7,))],
    ids=lambda s: s.name,
)
def test_constructing_never_builds_the_assignment(spec):
    # the labeling is its pattern: tally, checks and writers read that
    got = construct(spec)
    f, g = got.labeling, generate(spec)
    assert tally(g, to_parity(f)) == got.tally and is_valid(g, f)
    assert write_labeling(f) and "".join(dot_lines(g.vertex_count, g.edges, f))
    assert "assignment" not in vars(f)
    # the first read builds it once, in vertex order
    built = f.assignment
    assert vars(f)["assignment"] is built is f.assignment and list(built) == list(range(g.vertex_count))


# ------------------------------------------------------ wide-region digest


def _wide_region():
    """Every family over a region wider than the c04 grid: past the jellyfish and
    bistar infeasibility thresholds, and the long block walks."""
    for n in range(1, 400):
        yield from (FamilySpec(f, (n,)) for f in ("path", "triangular_snake", "friendship"))
    for n in range(3, 400):
        yield from (FamilySpec(f, (n,)) for f in ("cycle", "wheel"))
    for n in range(1, 200):
        yield from (FamilySpec(f, (n,)) for f in ("complete", "star"))
    yield from (FamilySpec("complete_bipartite", (m, n)) for m in range(1, 60) for n in range(1, 60))
    yield from (FamilySpec("bistar", (m, n)) for m in range(1, 41) for n in range(1, 13 * m + 60))
    yield from (FamilySpec("jellyfish", (a, b)) for a in range(41) for b in range(13 * a + 120))


# SHA-256 over _wide_region() of each construction's pattern bytes and tally, or
# its Infeasible reason; pins every scan's `tried` count and nearest misses
WIDE_REGION_DIGEST = "b71f3621cf4cd2c2bd24eb86a4dac11391a3f5a78a0c4e0a3aeaa95e31a401f1"


def test_wide_region_constructions_match_the_recorded_digest():
    h = hashlib.sha256()
    for spec in _wide_region():
        got = construct(spec)
        if isinstance(got, Infeasible):
            h.update(f"{spec} infeasible: {got.reason}\n".encode())
        else:
            h.update(f"{spec} {got.tally.e0} {got.tally.e1}\n".encode() + _odd_bytes(to_parity(got.labeling)))
    assert h.hexdigest() == WIDE_REGION_DIGEST

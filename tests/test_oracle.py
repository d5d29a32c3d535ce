"""Exhaustive and parity deciders: verdicts, witnesses, agreement with the count scans."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import (
    Constructed,
    FamilySpec,
    Graph,
    GraphTooLargeError,
    Infeasible,
    Parity,
    SearchConfig,
    Verdict,
    construct,
    decide_exhaustive,
    decide_parity,
    even_count,
    feasible_even_counts,
    generate,
    is_cordial,
    is_valid,
    realize,
    tally,
    to_parity,
)
from perrin_cordial import oracle
from perrin_cordial.oracle import (
    HIGH,
    PROBE,
    _adjacency_masks,
    _pack,
    _rank,
    _search_sizes,
    _tables,
)
from oracles import search_size_reference
from strategies import graphs


def _decide(family, params, **cfg):
    g = generate(FamilySpec(family, params))
    return decide_exhaustive(g, SearchConfig(**cfg)) if cfg else decide_exhaustive(g)


def test_cycle_six_infeasible():
    v = _decide("cycle", (6,))
    assert not v.feasible
    assert v.witness is None
    # both admissible sizes fully enumerated
    assert v.searched == comb(6, 3) + comb(6, 4)


def test_cycle_three_feasible_with_verified_witness():
    g = generate(FamilySpec("cycle", (3,)))
    v = decide_exhaustive(g)
    assert v.feasible
    assert is_valid(g, v.witness)
    assert is_cordial(tally(g, to_parity(v.witness)))
    # first feasible even-set in (size asc, lex) order is {0, 1}
    assert v.witness.assignment == {0: 0, 1: 2, 2: 1}


def test_complete_five_matches_analytic_exhaustion():
    assert not _decide("complete", (5,)).feasible
    assert not _built("complete", (5,))


def test_witness_suppression():
    v = _decide("cycle", (3,), want_witness=False)
    assert v.feasible and v.witness is None


def test_graph_too_large_names_cap():
    g = generate(FamilySpec("complete", (30,)))
    with pytest.raises(GraphTooLargeError) as err:
        decide_exhaustive(g, SearchConfig(max_vertices=24))
    assert "24" in str(err.value) and "30" in str(err.value)


def test_searched_bounded_by_binomials():
    for family, params in [("cycle", (9,)), ("wheel", (7,)), ("jellyfish", (2, 3))]:
        g = generate(FamilySpec(family, params))
        v = decide_exhaustive(g)
        n, ec = g.vertex_count, even_count(g.vertex_count)
        assert v.searched <= comb(n, ec) + comb(n, ec - 1)


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_feasible_witnesses_always_verify(g):
    v = decide_exhaustive(g)
    if v.feasible:
        assert is_valid(g, v.witness)
        assert is_cordial(tally(g, to_parity(v.witness)))


@given(graphs(min_n=2, max_n=12), st.randoms())
@settings(max_examples=60, deadline=None)
def test_verdict_invariant_under_relabeling(g, rnd):
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    relabeled = Graph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))
    assert decide_exhaustive(g).feasible == decide_exhaustive(relabeled).feasible


def test_agreement_with_complete_analytic():
    for n in range(1, 14):
        analytic = _built("complete", (n,))
        assert _decide("complete", (n,)).feasible == analytic, n


def _built(family, params):
    return isinstance(construct(FamilySpec(family, params)), Constructed)


def test_agreement_with_bipartite_analytic():
    for m in range(1, 13):
        for n in range(1, 14 - m):
            assert (
                _decide("complete_bipartite", (m, n)).feasible
                == _built("complete_bipartite", (m, n))
            ), (m, n)


def test_agreement_with_bistar_full():
    for m in range(1, 11):
        for n in range(1, 12 - m):
            assert (
                _decide("bistar", (m, n)).feasible == _built("bistar", (m, n))
            ), (m, n)


def test_agreement_with_star_scan():
    for n in range(1, 14):
        assert _decide("star", (n,)).feasible == _built("star", (n,)), n


def test_agreement_with_jellyfish_scan():
    for m1 in range(0, 11):
        for m2 in range(0, 11 - m1):
            assert (
                _decide("jellyfish", (m1, m2)).feasible == _built("jellyfish", (m1, m2))
            ), (m1, m2)


def test_bipartite_examples():
    assert _built("complete_bipartite", (1, 1))
    assert _built("complete_bipartite", (4, 3))
    assert not _built("complete_bipartite", (28, 1))
    got = construct(FamilySpec("complete_bipartite", (2, 2)))
    g = generate(FamilySpec("complete_bipartite", (2, 2)))
    assert is_valid(g, got.labeling) and is_cordial(tally(g, to_parity(got.labeling)))


def test_star_twenty_five_is_feasible_despite_claim():
    # the claimed star list excludes 25, but the product-identity scan
    # finds an admissible split; the odd-by-odd bound (26 <= 40) agrees
    assert _built("complete_bipartite", (1, 25))
    assert _built("star", (25,))


def test_bistar_full_examples():
    assert _built("bistar", (6, 6))
    assert _built("bistar", (2, 1))
    got = construct(FamilySpec("bistar", (20, 20)))  # sum 40, beyond the claimed bound
    assert isinstance(got, Constructed)
    g = generate(FamilySpec("bistar", (20, 20)))
    assert is_valid(g, got.labeling) and is_cordial(tally(g, to_parity(got.labeling)))


def test_bistar_full_finds_mixed_apex_solutions():
    # sum 3 is unreachable with both apexes odd
    assert _built("bistar", (1, 2))
    assert _decide("bistar", (1, 2)).feasible


def test_jellyfish_small_cases():
    assert _decide("jellyfish", (0, 0)).feasible
    assert _decide("jellyfish", (0, 1)).feasible


def test_mod4_obstruction_within_cap():
    for family, sizes in (
        ("cycle", (6, 10, 14, 18, 22)),
        ("triangular_snake", (2, 6, 10)),
        ("friendship", (2, 6, 10)),
    ):
        for n in sizes:
            assert not _decide(family, (n,)).feasible, (family, n)


def test_empty_and_single_vertex_graphs():
    v = decide_exhaustive(Graph(0, ()))
    assert v.feasible
    v = decide_exhaustive(Graph(1, ()))
    assert v.feasible and v.witness.assignment in ({0: 1}, {0: 0})


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", (6,)),
        ("cycle", (10,)),
        ("cycle", (22,)),
        ("triangular_snake", (6,)),
        ("friendship", (10,)),
        ("complete", (5,)),
    ],
)
def test_parity_certificate_fires(family, params):
    v = decide_parity(generate(FamilySpec(family, params)))
    assert v is not None
    assert not v.feasible
    assert v.witness is None
    assert v.searched == 0
    assert "parity" in v.reason


@pytest.mark.parametrize(
    "family,params",
    [("cycle", (7,)), ("wheel", (8,)), ("path", (6,)), ("complete", (4,))],
)
def test_parity_certificate_silent(family, params):
    assert decide_parity(generate(FamilySpec(family, params))) is None


def test_parity_certificate_reason_is_the_constructors_reason():
    reason = (
        "degree-parity certificate: every degree is even, so every labeling has an "
        "even number of odd edges, but |E| = 10 = 2 (mod 4) needs 5 of them"
    )
    v = decide_parity(generate(FamilySpec("cycle", (10,))))
    assert v == Verdict(feasible=False, witness=None, searched=0, reason=reason)
    assert construct(FamilySpec("cycle", (10,))) == Infeasible(reason)


def test_parity_certificate_ignores_family_field():
    # a 6-cycle that claims to be a path is still proven infeasible
    c6 = generate(FamilySpec("cycle", (6,)))
    g = Graph(6, c6.edges, family=FamilySpec("path", (6,)))
    assert decide_parity(g) is not None


@st.composite
def _often_even_graphs(draw):
    """Random graphs, half of them made even-degree by toggling edges between odd vertices."""
    g = draw(graphs(max_n=12))
    if not draw(st.booleans()):
        return g
    edges = set(g.edges)
    deg = [0] * g.vertex_count
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    odd = [v for v in range(g.vertex_count) if deg[v] % 2]
    for u, v in zip(odd[::2], odd[1::2]):
        edges ^= {(u, v)}
    return Graph(g.vertex_count, tuple(edges))


@given(_often_even_graphs())
@settings(max_examples=150, deadline=None)
def test_parity_certificate_agrees_with_exhaustive(g):
    v = decide_parity(g)
    degrees = [0] * g.vertex_count
    for a, b in g.edges:
        degrees[a] += 1
        degrees[b] += 1
    expected = all(d % 2 == 0 for d in degrees) and g.edge_count % 4 == 2
    assert (v is not None) == expected
    if v is not None:
        assert not decide_exhaustive(g).feasible


def _balanced(g, even_set):
    cut = sum((a in even_set) != (b in even_set) for a, b in g.edges)
    return abs(g.edge_count - 2 * cut) <= 1


@given(graphs(max_n=12))
@settings(max_examples=100, deadline=None)
def test_searched_is_position_in_combinations_order(g):
    # sizes ascending, each in itertools.combinations order: the witness
    # set's 1-based position, after every set of the smaller sizes
    n = g.vertex_count
    expected, witness_set = 0, None
    for k in feasible_even_counts(n):
        for pos, s in enumerate(itertools.combinations(range(n), k), start=1):
            if _balanced(g, set(s)):
                expected, witness_set = expected + pos, set(s)
                break
        else:
            expected += comb(n, k)
            continue
        break
    v = decide_exhaustive(g)
    assert v.searched == expected
    assert v.feasible == (witness_set is not None)
    if v.feasible:
        pattern = to_parity(v.witness)
        assert {u for u in range(n) if pattern[u] is Parity.EVEN} == witness_set


def _reference_walk(g, sizes):
    # the sizes one after another, one set at a time
    adj = _adjacency_masks(g)
    deg = [a.bit_count() for a in adj]
    searched = 0
    for k in sizes:
        hit, examined = search_size_reference(g.vertex_count, k, adj, deg, g.edge_count)
        searched += examined
        if hit is not None:
            return hit, searched
    return None, searched


def _reference_verdict(g):
    # the whole decide_exhaustive verdict, rebuilt from the reference search
    n = g.vertex_count
    sizes = feasible_even_counts(n)
    hit, searched = _reference_walk(g, sizes)
    if hit is None:
        return Verdict(
            feasible=False,
            searched=searched,
            reason=f"no even-vertex set of size in {sizes} balances the edge labels",
        )
    pattern = tuple(Parity.EVEN if v in hit else Parity.ODD for v in range(n))
    return Verdict(feasible=True, witness=realize(g, pattern), searched=searched)


def _walk(g, sizes):
    # (hit, searched) from the package's walk over the sizes, ranked as decide_exhaustive does
    n, m = g.vertex_count, g.edge_count
    adj = _adjacency_masks(g)
    deg = [a.bit_count() for a in adj]
    hit = _search_sizes(n, sizes, adj, deg, m)
    if hit is None:
        return None, sum(comb(n, k) for k in sizes)
    return hit, sum(comb(n, k) for k in sizes if k < len(hit)) + _rank(n, hit)


def _sizes_match_the_reference(g):
    # both sizes, and k2 alone as when the probe exhausts k1
    sizes = feasible_even_counts(g.vertex_count)
    for i in range(len(sizes)):
        assert _walk(g, sizes[i:]) == _reference_walk(g, sizes[i:])


def test_rank_is_the_position_in_combinations_order():
    for n in range(9):
        for k in range(n + 1):
            for position, subset in enumerate(itertools.combinations(range(n), k), start=1):
                assert _rank(n, subset) == position


@given(graphs(min_n=0, max_n=16))
@settings(max_examples=150, deadline=None)
def test_block_search_matches_the_one_set_at_a_time_reference(g):
    # n <= 12 leaves every vertex high; n > 12 gives a low part of up to 4
    _sizes_match_the_reference(g)
    assert decide_exhaustive(g) == _reference_verdict(g)


def _even_set(v):
    pattern = to_parity(v.witness)
    return {u for u in range(len(pattern)) if pattern[u] is Parity.EVEN}


def test_complete_24_exhausts_both_sizes():
    # the largest cuts the search meets: k (24 - k) never equals |E| / 2 = 138
    v = decide_exhaustive(generate(FamilySpec("complete", (24,))))
    assert not v.feasible
    assert v.searched == comb(24, 11) + comb(24, 12) == 5_200_300


def test_edgeless_24_takes_the_first_set():
    # every cut is 0, so the first 11-set, all in the low part, balances
    v = decide_exhaustive(Graph(24, ()))
    assert v.feasible and v.searched == 1
    assert _even_set(v) == set(range(11))


def test_cycle_22_proof_counts_every_set():
    v = decide_exhaustive(generate(FamilySpec("cycle", (22,))))
    assert not v.feasible
    assert v.searched == comb(22, 9) + comb(22, 10) == 1_144_066


def test_hit_in_a_single_set_block():
    # jellyfish(15, 3) has 22 vertices, low part 0..9: the hit has no high
    # vertex, so its block is the one set of its low part alone
    g = generate(FamilySpec("jellyfish", (15, 3)))
    v = decide_exhaustive(g)
    assert _even_set(v) == {0, 1, 2, 4, 5, 6, 7, 8, 9}
    assert v == _reference_verdict(g)
    assert v.searched == 8569


def test_hit_inside_a_multi_set_block():
    # path(13), low part {0}: the hit takes the high part {1, 2, 4, 6, 12},
    # the 49th of the 792 five-sets in the block of {0}; decide_exhaustive's
    # probe finds it first, so the walk is called directly
    g = generate(FamilySpec("path", (13,)))
    assert _walk(g, (6, 7)) == ((0, 1, 2, 4, 6, 12), 49)
    _sizes_match_the_reference(g)
    assert decide_exhaustive(g) == _reference_verdict(g)


def _seeded_gnp(n, seed):
    rng = random.Random(seed)
    p = rng.uniform(0.2, 0.8)
    return Graph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p))


@pytest.mark.parametrize(
    "n, seed, searched, packs",
    [(16, 1623, PROBE, 0), (13, 471, PROBE + 1, 1)],
    ids=["last_probe_set", "first_block_set"],
)
def test_probe_and_block_meet_without_a_gap(monkeypatch, n, seed, searched, packs):
    # first hits at the probe's last set, found with no table built, and at
    # the first set after it, found by the block search
    g = _seeded_gnp(n, seed)
    built = []

    def counting_pack(*args):
        built.append(_pack(*args))
        return built[-1]

    monkeypatch.setattr(oracle, "_pack", counting_pack)
    v = decide_exhaustive(g)
    assert v.searched == searched and len(built) == packs
    assert v == _reference_verdict(g)


def test_graphs_up_to_the_cli_ceiling_match_the_reference():
    # 25..28 vertices, past the default cap and up to CLI decide's --max-n
    # ceiling: a low part of up to 16 vertices, 8 of the 60 hits past the probe
    for seed in range(60):
        g = _seeded_gnp(25 + seed % 4, seed)
        assert decide_exhaustive(g, SearchConfig(max_vertices=28)) == _reference_verdict(g), seed


def _ring_with_triangles(n, seed, count=1):
    # a Hamiltonian cycle in seeded order plus `count` vertex-disjoint triangles,
    # each on three pairwise non-adjacent cycle vertices: every degree even,
    # |E| = n + 3 count
    order = list(range(n))
    random.Random(seed).shuffle(order)
    ring = {tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])}
    triangles = {
        tuple(sorted(e))
        for i in range(0, 2 * count, 2)
        for e in itertools.combinations(order[i : i + 15 : 5], 2)
    }
    return Graph(n, tuple(sorted(ring | triangles)))


@pytest.mark.parametrize(
    "g, feasible",
    [
        (_seeded_gnp(17, 1217), True),
        (_seeded_gnp(18, 1103), True),
        (_ring_with_triangles(19, 4), False),
        (_seeded_gnp(20, 1033), True),
        (_ring_with_triangles(20, 7, count=2), False),
    ],
    ids=["gnp17", "gnp18", "infeasible19", "gnp20", "infeasible20"],
)
def test_block_search_matches_the_reference_with_a_wide_low_part(g, feasible):
    # n = 17..20 leave 5..8 low vertices below the block
    assert g.vertex_count - HIGH in range(5, 9)
    _sizes_match_the_reference(g)
    v = decide_exhaustive(g)
    assert v == _reference_verdict(g)
    assert v.feasible == feasible


def _first_hits(g):
    # ((first k1 hit, its position), (first k2 hit, its position)), one set at a time
    adj = _adjacency_masks(g)
    deg = [a.bit_count() for a in adj]
    sizes = feasible_even_counts(g.vertex_count)
    return [search_size_reference(g.vertex_count, k, adj, deg, g.edge_count) for k in sizes]


@pytest.mark.parametrize(
    "g, k1_hit, k2_hit",
    [
        (_seeded_gnp(16, 2704), ((0, 1, 2, 4, 5, 7, 10), 232), ((0, 1, 2, 3, 4, 5, 7, 8), 10)),
        (
            _seeded_gnp(22, 73),
            ((0, 1, 2, 3, 4, 5, 7, 8, 14), 111),
            ((0, 1, 2, 3, 4, 5, 6, 7, 8, 14), 6),
        ),
    ],
    ids=["in_a_block", "beside_a_k1_leaf"],
)
def test_a_k1_hit_wins_over_an_earlier_k2_hit(g, k1_hit, k2_hit):
    # the walk meets the k2 hit first.  At n = 16 it lies in the block of
    # (0, 1, 2, 3), an extension of the k1 hit's low part (0, 1, 2), so that
    # block comes first; at n = 22 it is (0..8) + 14, tested one at a time
    # beside the k1-set (0..8), which the walk reaches before the k1 hit's low
    # part (0..5, 7, 8).  The k1 hit still decides, at its own position.
    assert _first_hits(g) == [k1_hit, k2_hit]
    v = decide_exhaustive(g)
    assert _even_set(v) == set(k1_hit[0]) and v.searched == k1_hit[1]
    assert v == _reference_verdict(g)
    _sizes_match_the_reference(g)


def _odd_degree_gnp(n, seed):
    # a seeded G(n, p) with one edge toggled per pair of even-degree vertices:
    # every degree odd
    g = _seeded_gnp(n, seed)
    deg = [a.bit_count() for a in _adjacency_masks(g)]
    even = [v for v in range(n) if deg[v] % 2 == 0]
    return Graph(n, tuple(sorted(set(g.edges) ^ set(zip(even[::2], even[1::2])))))


@pytest.mark.parametrize(
    "g, k2_hit",
    [
        (_odd_degree_gnp(16, 11), ((0, 1, 2, 3, 4, 6, 7, 13), 51)),
        (_odd_degree_gnp(22, 0), ((0, 1, 2, 3, 4, 5, 6, 7, 8, 12), 4)),
    ],
    ids=["in_a_block", "beside_a_k1_leaf"],
)
def test_without_a_k1_hit_the_first_k2_set_is_the_witness(g, k2_hit):
    # every degree is odd, so cut(S) = |S| (mod 2), and |E| = 0 (mod 4) needs
    # the even cut |E| / 2, which no set of the odd size k1 has; the walk meets
    # the k2 hit in its first block (or first k1 leaf) and then exhausts k1
    n = g.vertex_count
    k1 = feasible_even_counts(n)[0]
    assert k1 % 2 == 1 and g.edge_count % 4 == 0
    assert _first_hits(g) == [(None, comb(n, k1)), k2_hit]
    v = decide_exhaustive(g)
    assert _even_set(v) == set(k2_hit[0]) and v.searched == comb(n, k1) + k2_hit[1]
    assert v == _reference_verdict(g)
    _sizes_match_the_reference(g)


@pytest.mark.parametrize("h", range(9))
def test_doubled_tables_match_a_per_field_build(h):
    # field x holds the H with high vertex i at bit h - 1 - i of x
    def members(x):
        return {i for i in range(h) if x >> (h - 1 - i) & 1}

    for width in (4, 7, 10):
        ones, guard, chunks, size_masks, pairs = _tables(h, width)
        fields = range(1 << h)
        assert ones == sum(1 << (x * width) for x in fields)
        assert guard == ones << (width - 1)
        assert size_masks == [
            sum(1 << (x * width + width - 1) for x in fields if len(members(x)) == s)
            for s in range(h + 1)
        ]
        assert pairs == [size_masks[s] | (size_masks + [0])[s + 1] for s in range(h + 1)]
        assert len(chunks) == HIGH // 4
        for c, table in enumerate(chunks):
            assert len(table) == 1 << len(range(4 * c, min(h, 4 * c + 4)))
            for m4, packed in enumerate(table):
                mask = {4 * c + j for j in range(4) if m4 >> j & 1}
                assert packed == sum(2 * len(members(x) & mask) << (x * width) for x in fields)

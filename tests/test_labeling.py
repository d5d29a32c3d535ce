"""Tallies, validity, parity patterns, and realization."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import (
    FAMILY_NAMES,
    Constructed,
    EdgeTally,
    FamilySpec,
    InvalidLabelingError,
    LabelSupplyError,
    Parity,
    PatternLengthError,
    PerrinLabeling,
    construct,
    even_indices,
    feasible_even_counts,
    generate,
    is_cordial,
    is_valid,
    odd_indices,
    realize,
    tally,
    to_parity,
)
from perrin_cordial.labeling import _index_chunk, _index_chunks, _ranked, _realize
from perrin_cordial.perrin import _EVEN_OFFSETS, _ODD_OFFSETS
from strategies import graph_and_pattern, graph_and_valid_labeling
from test_graphs import TRUSTED_GRID

E, O = Parity.EVEN, Parity.ODD


def test_tally_path3():
    g = generate(FamilySpec("path", (3,)))
    t = tally(g, (E, E, O))
    assert (t.e0, t.e1, t.epsilon) == (1, 1, 0)


def test_tally_monochromatic_cycle():
    g = generate(FamilySpec("cycle", (4,)))
    t = tally(g, (E, E, E, E))
    assert (t.e0, t.e1, t.epsilon) == (4, 0, 4)


def test_tally_bipartite_matches_product():
    # 2 evens on the 4-side, 1 even on the 3-side: (4-4)(3-2) = 0
    g = generate(FamilySpec("complete_bipartite", (4, 3)))
    t = tally(g, (E, E, O, O, E, O, O))
    assert t.epsilon == 0


def test_tally_length_mismatch():
    g = generate(FamilySpec("path", (3,)))
    with pytest.raises(PatternLengthError):
        tally(g, (E, O))


def test_is_cordial_examples():
    assert is_cordial(EdgeTally(3, 3))
    assert not is_cordial(EdgeTally(4, 2))
    assert is_cordial(EdgeTally(0, 1))


def test_is_valid_examples():
    g = generate(FamilySpec("path", (2,)))
    assert is_valid(g, PerrinLabeling({0: 0, 1: 1}, 2))
    assert not is_valid(g, PerrinLabeling({0: 0, 1: 0}, 2))
    assert not is_valid(g, PerrinLabeling({0: 0, 1: 3}, 2))
    assert not is_valid(g, PerrinLabeling({0: 0}, 2))


def test_to_parity_examples():
    assert to_parity(PerrinLabeling({0: 0, 1: 1}, 2)) == (E, O)
    assert to_parity(PerrinLabeling({0: 3, 1: 5}, 2)) == (E, E)
    assert to_parity(PerrinLabeling({0: 6, 1: 8, 2: 1}, 8)) == (O, O, O)


def test_to_parity_rejects_duplicates():
    from perrin_cordial import InvalidLabelingError

    with pytest.raises(InvalidLabelingError):
        to_parity(PerrinLabeling({0: 1, 1: 1}, 2))


def test_realize_examples():
    g3 = generate(FamilySpec("path", (3,)))
    assert realize(g3, (E, O, E)).assignment == {0: 0, 1: 1, 2: 2}
    c3 = generate(FamilySpec("cycle", (3,)))
    assert realize(c3, (E, E, E)).assignment == {0: 0, 1: 2, 2: 3}
    with pytest.raises(LabelSupplyError) as err:
        realize(g3, (O, O, O))
    assert err.value.required == 3 and err.value.available == 1


def test_realize_supply_error_reports_even_side():
    g = generate(FamilySpec("cycle", (4,)))
    with pytest.raises(LabelSupplyError) as err:
        realize(g, (E, E, E, E))
    assert err.value.parity is Parity.EVEN
    assert err.value.required == 4 and err.value.available == 3


@given(graph_and_pattern())
@settings(max_examples=150)
def test_tally_counts_every_edge(gp):
    g, pattern = gp
    t = tally(g, pattern)
    assert t.e0 + t.e1 == g.edge_count
    assert t.epsilon == t.e0 - t.e1


@given(graph_and_pattern())
@settings(max_examples=150)
def test_flip_invariance(gp):
    g, pattern = gp
    flipped = tuple(Parity(1 - p.value) for p in pattern)
    assert tally(g, pattern) == tally(g, flipped)


@given(graph_and_pattern())
@settings(max_examples=150)
def test_cut_identity_against_independent_scan(gp):
    g, pattern = gp
    bichromatic = 0  # independent edge scan, no EdgeTally involved
    for u, v in g.edges:
        if (pattern[u] is Parity.EVEN) != (pattern[v] is Parity.EVEN):
            bichromatic += 1
    assert tally(g, pattern).epsilon == g.edge_count - 2 * bichromatic


@pytest.mark.parametrize("n", range(3, 13))
def test_cycles_always_have_even_e1(n):
    g = generate(FamilySpec("cycle", (n,)))
    for bits in itertools.product((E, O), repeat=n):
        assert tally(g, bits).e1 % 2 == 0


def test_triangle_odd_edge_counts():
    g = generate(FamilySpec("cycle", (3,)))
    counts = {tally(g, bits).e1 for bits in itertools.product((E, O), repeat=3)}
    assert counts == {0, 2}


@given(st.integers(13, 60), st.randoms())
@settings(max_examples=60)
def test_large_cycles_have_even_e1_on_random_patterns(n, rnd):
    g = generate(FamilySpec("cycle", (n,)))
    pattern = tuple(rnd.choice((E, O)) for _ in range(n))
    assert tally(g, pattern).e1 % 2 == 0


@given(graph_and_valid_labeling())
@settings(max_examples=100)
def test_realize_round_trip(gf):
    g, f = gf
    assert is_valid(g, f)
    again = realize(g, to_parity(f))
    assert is_valid(g, again)
    assert tally(g, to_parity(again)) == tally(g, to_parity(f))


@given(graph_and_valid_labeling())
@settings(max_examples=100)
def test_canonical_realize_is_idempotent(gf):
    g, f = gf
    canonical = realize(g, to_parity(f))
    assert realize(g, to_parity(canonical)).assignment == canonical.assignment


def test_feasible_even_counts():
    # even_count(4) = 3 available even indices among {0..4}
    assert feasible_even_counts(4) == (2, 3)
    assert feasible_even_counts(1) == (0, 1)


@given(st.integers(0, 3000), st.data())
@settings(max_examples=200)
def test_rank_arithmetic_is_the_index_lists(n, data):
    # even rank r >= 1 and odd rank r, each rank alone and from any rank on
    evens, odds = even_indices(n), odd_indices(n)
    assert [_ranked(_EVEN_OFFSETS, r - 1, r) for r in range(1, len(evens))] == [[i] for i in evens[1:]]
    assert [_ranked(_ODD_OFFSETS, r, r + 1) for r in range(len(odds))] == [[i] for i in odds]
    a, b = data.draw(st.integers(1, len(evens))), data.draw(st.integers(0, len(odds)))
    assert _ranked(_EVEN_OFFSETS, a - 1, len(evens) - 1) == evens[a:]
    assert _ranked(_ODD_OFFSETS, b, len(odds)) == odds[b:]


@given(st.integers(0, 300), st.integers(1, 40), st.data())
@settings(max_examples=200)
def test_index_chunks_give_each_vertex_the_next_index_of_its_parity(n, size, data):
    # each chunk starts at the ranks its earlier chunks reached
    s = data.draw(st.sampled_from(feasible_even_counts(n)))
    odd = bytes(data.draw(st.permutations([0] * s + [1] * (n - s))))
    evens, odds = iter(even_indices(n)), iter(odd_indices(n))
    expected = {v: next(odds if p else evens) for v, p in enumerate(odd)}
    chunks = list(_index_chunks(_realize(n, odd), size))
    assert [list(c) for c in chunks] == [list(range(v, min(v + size, n))) for v in range(0, n, size)]
    assert {v: i for c in chunks for v, i in c.items()} == expected == _realize(n, odd).assignment


@given(graph_and_valid_labeling(max_n=40))
@settings(max_examples=100)
def test_a_realized_labeling_agrees_with_its_assignment(gf):
    # realize's labeling holds its pattern; each check gets a fresh one, whose
    # assignment no earlier read has built
    g, pattern = gf[0], to_parity(gf[1])
    n = g.vertex_count
    plain = PerrinLabeling(dict(realize(g, pattern).assignment), n)
    assert realize(g, pattern) == plain and plain == realize(g, pattern)
    assert to_parity(realize(g, pattern)) == to_parity(plain) == pattern
    assert is_valid(g, realize(g, pattern)) and is_valid(g, plain)
    assert not is_valid(generate(FamilySpec("path", (n + 1,))), realize(g, pattern))
    # replace gives a labeling of the assignment it is handed
    if n >= 2:
        reused = {**plain.assignment, 0: plain.assignment[1]}
        swapped = dataclasses.replace(realize(g, pattern), assignment=reused)
        assert swapped.assignment is reused and swapped == PerrinLabeling(reused, n)
        assert not is_valid(g, swapped)
        with pytest.raises(InvalidLabelingError):
            to_parity(swapped)
    assert dataclasses.replace(realize(g, pattern), domain_max=n + 1) == PerrinLabeling(plain.assignment, n + 1)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a_constructed_assignment_reads_as_its_dict(family):
    # a constructed labeling's assignment is a read-only view, 4 bytes a vertex,
    # that reads as the dict realize's indices make
    read = 0
    for name, params in TRUSTED_GRID:
        got = construct(FamilySpec(name, params)) if name == family else None
        if not isinstance(got, Constructed):
            continue
        f = got.labeling
        view, d = f.assignment, _index_chunk(f._odd, 0, 0)
        assert view == d and d == view and not view != d and not d != view
        assert repr(view) == repr(d) and repr(f) == repr(PerrinLabeling(d, f.domain_max))
        assert list(view) == list(d) and len(view) == len(d) and list(view.items()) == list(d.items())
        assert view.items() == d.items() and list(view.values()) == list(d.values())
        assert all(v in view and view.get(v) == d[v] for v in d)
        n = len(d)
        for key in (-1, n, "0", 1.5):
            with pytest.raises(KeyError):
                view[key]
            assert key not in view and view.get(key) is None
        # a changed index, a missing vertex or an extra key tells them apart, from either side
        for other in ({**d, 0: d[0] + 1}, {v: d[v] for v in range(n - 1)}, {**d, n: 0}):
            assert view != other and other != view
        for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), dataclasses.replace(f)):
            assert copied == f and copied.assignment == d and d == copied.assignment
        assert pickle.loads(pickle.dumps(view)) == d == copy.deepcopy(view)
        for unhashable in (view, f):
            with pytest.raises(TypeError):
                hash(unhashable)
        read += 1
    assert read

"""Tallies, validity, parity patterns, and realization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import (
    EdgeTally,
    FamilySpec,
    LabelSupplyError,
    Parity,
    PatternLengthError,
    PerrinLabeling,
    feasible_even_counts,
    generate,
    is_cordial,
    is_valid,
    realize,
    tally,
    to_parity,
)
from strategies import graph_and_pattern, graph_and_valid_labeling

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

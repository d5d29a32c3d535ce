"""Sequence values, parities, and the even-count closed form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import perrin as perrin_mod
from perrin_cordial import (
    Parity,
    even_count,
    even_indices,
    odd_indices,
    perrin_parity,
    perrin_value,
)

from oracles import even_count_scan


def test_seed_values():
    assert [perrin_value(i) for i in range(7)] == [0, 3, 0, 2, 3, 2, 5]


def test_recurrence_from_index_four():
    vals = [perrin_value(i) for i in range(200)]
    for i in range(4, 200):
        assert vals[i] == vals[i - 2] + vals[i - 3]


def test_value_examples():
    assert perrin_value(1) == 3
    assert perrin_value(6) == 5
    assert perrin_value(9) == 10


def test_parity_examples():
    assert perrin_parity(0) is Parity.EVEN
    assert perrin_parity(8) is Parity.ODD
    assert perrin_parity(10) is Parity.EVEN


def test_even_count_examples():
    assert even_count(0) == 1
    assert even_count(9) == 5
    assert even_count(13) == 7


def test_even_count_scan_examples():
    assert even_count_scan(0) == 1
    assert even_count_scan(6) == 4
    assert even_count_scan(13) == 7


def test_even_indices_examples():
    assert even_indices(6) == [0, 2, 3, 5]
    assert even_indices(0) == [0]
    assert even_indices(13) == [0, 2, 3, 5, 9, 10, 12]


def test_even_and_odd_indices_partition():
    for n in (0, 1, 7, 40):
        assert sorted(even_indices(n) + odd_indices(n)) == list(range(n + 1))
        assert len(even_indices(n)) == even_count(n)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        perrin_value(-1)
    with pytest.raises(ValueError):
        perrin_parity(-3)
    with pytest.raises(ValueError):
        even_count(-1)


@given(st.integers(0, 3000))
@settings(max_examples=120)
def test_even_count_matches_scan(n):
    assert even_count(n) == even_count_scan(n)


def test_even_count_closed_form_matches_scan_below_100000():
    # a stride of 11, coprime to the period 7, meets every residue at every scale
    for n in [*range(0, 100_000, 11), *range(99_986, 100_000)]:
        assert even_count(n) == even_count_scan(n), n


@given(st.integers(1, 500))
@settings(max_examples=80)
def test_parity_period_seven_from_one(i):
    assert perrin_parity(i) is perrin_parity(i + 7)


def test_index_zero_breaks_periodicity():
    assert perrin_parity(0) is Parity.EVEN
    assert perrin_parity(7) is Parity.ODD


def test_strict_growth_from_seven():
    vals = [perrin_value(i) for i in range(7, 1002)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_even_count_steps_by_zero_or_one():
    prev = even_count(0)
    for n in range(1, 10_001):
        cur = even_count(n)
        assert cur - prev in (0, 1)
        prev = cur


def test_parity_avoids_big_values():
    size = len(perrin_mod._VALUES)
    assert perrin_parity(size + 5000) in (Parity.EVEN, Parity.ODD)
    # the big-value memo must not have been extended by parity queries
    assert len(perrin_mod._VALUES) == size


def test_parity_matches_value_parity():
    for i in range(2000):
        assert perrin_parity(i).value == perrin_value(i) % 2, i


def test_huge_parity_index_grows_no_memo():
    size = len(perrin_mod._VALUES)
    assert perrin_parity(10**18) is Parity.ODD  # 10**18 = 1 (mod 7)
    assert len(perrin_mod._VALUES) == size


def test_indices_match_value_parities():
    parities = [perrin_value(i) % 2 for i in range(500)]
    for n in range(500):
        assert even_indices(n) == [i for i in range(n + 1) if parities[i] == 0], n
        assert odd_indices(n) == [i for i in range(n + 1) if parities[i] == 1], n

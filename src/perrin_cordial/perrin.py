"""Reindexed Perrin sequence: values, parities, and even-term counts.

The sequence used throughout this package starts 0, 3, 0, 2, 3, 2, 5, ...
with every later term the sum of the terms two and three places back.
Indexing is fixed to this convention; the classical offset (3, 0, 2, ...)
is deliberately not offered, to avoid silent off-by-one drift.

Only parities ever reach the edge-labeling machinery.  Mod 2 the
recurrence is driven by x^3 + x + 1, which is primitive over GF(2), so
from index 1 the parity has period 7 and is read from a 7-entry table in
O(1), never from the big integers.
"""

from __future__ import annotations

import enum


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1


_SEEDS = (0, 3, 0, 2)
_E, _O = Parity.EVEN, Parity.ODD
# parity of the term at index i >= 1, by i % 7; index 0 is even
_PARITY_MOD7 = (_O, _O, _E, _E, _O, _E, _O)
# offsets r in 1..7 of the even / odd terms b + r of each period b = 0, 7, 14, ...
_EVEN_OFFSETS = tuple(r for r in range(1, 8) if _PARITY_MOD7[r % 7] is _E)
_ODD_OFFSETS = tuple(r for r in range(1, 8) if _PARITY_MOD7[r % 7] is _O)
# the terms computed so far, grown by perrin_value only
_VALUES = list(_SEEDS)


def _check_index(i: int, what: str = "sequence index") -> None:
    if i < 0:
        raise ValueError(f"{what} must be >= 0, got {i}")


def perrin_value(i: int) -> int:
    """Term at index i of the reindexed sequence (arbitrary precision)."""
    _check_index(i)
    while len(_VALUES) <= i:
        _VALUES.append(_VALUES[-2] + _VALUES[-3])
    return _VALUES[i]


def perrin_parity(i: int) -> Parity:
    """Parity of the term at index i, from the period-7 table."""
    _check_index(i)
    return _PARITY_MOD7[i % 7] if i else _E


def even_count(n: int) -> int:
    """Closed-form count of even terms among indices 0..n, for n = 7p + r:
    index 0, three in each full period, and the even offsets up to r."""
    _check_index(n, "count bound")
    p, r = divmod(n, 7)
    return 3 * p + 1 + sum(o <= r for o in _EVEN_OFFSETS)


def even_indices(n: int) -> list[int]:
    """Ascending list of indices i <= n whose term is even."""
    _check_index(n, "count bound")
    return [0] + [b + r for b in range(0, n, 7) for r in _EVEN_OFFSETS if b + r <= n]


def odd_indices(n: int) -> list[int]:
    """Ascending list of indices i <= n whose term is odd."""
    _check_index(n, "count bound")
    return [b + r for b in range(0, n, 7) for r in _ODD_OFFSETS if b + r <= n]

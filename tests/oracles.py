"""Independent reference implementations the tests compare the package against."""

# parities of the terms 0, 3, 0, 2, ... at indices 0, 1, 2, ..., grown by the
# mod-2 recurrence, never read from the package's period-7 table
_PARITIES = bytearray(v % 2 for v in (0, 3, 0, 2))


def even_count_scan(n: int) -> int:
    """Count even terms among indices 0..n by direct parity scan."""
    if n < 0:
        raise ValueError(f"count bound must be >= 0, got {n}")
    while len(_PARITIES) <= n:
        _PARITIES.append(_PARITIES[-2] ^ _PARITIES[-3])
    return _PARITIES.count(0, 0, n + 1)

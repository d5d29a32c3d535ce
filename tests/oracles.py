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


def is_connected(g) -> bool:
    """Depth-first reachability from vertex 0 over g's edges."""
    if g.vertex_count <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.vertex_count

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


def search_size_reference(n, k, adj, deg, edge_total):
    """First k-subset (ascending-lex) with ||E| - 2 cut| <= 1, one set at a time.

    The depth-first search the package used before its packed block search:
    returns (hit_or_None, sets_examined), the hit's 1-based position when
    there is one.
    """
    examined = 0
    hit = None

    def rec(start, chosen, mask, degsum, within):
        nonlocal examined, hit
        remaining = k - len(chosen)
        if remaining == 0:
            examined += 1
            cut = degsum - 2 * within
            if abs(edge_total - 2 * cut) <= 1:
                hit = tuple(chosen)
                return True
            return False
        if remaining == 1:
            # last vertex: one leaf per v, scanned inline instead of recursing
            base = degsum - 2 * within
            for v in range(start, n):
                cut = base + deg[v] - 2 * (adj[v] & mask).bit_count()
                if abs(edge_total - 2 * cut) <= 1:
                    examined += v - start + 1
                    hit = (*chosen, v)
                    return True
            examined += n - start
            return False
        for v in range(start, n - remaining + 1):
            gained = (adj[v] & mask).bit_count()
            chosen.append(v)
            if rec(v + 1, chosen, mask | (1 << v), degsum + deg[v], within + gained):
                return True
            chosen.pop()
        return False

    rec(0, [], 0, 0, 0)
    return hit, examined

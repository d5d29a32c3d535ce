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


def _class_cut(sizes, cliques, joins, a) -> int:
    """Odd edges when class i holds a[i] evens: clique classes and joined pairs."""
    cut = sum([a[i] * (sizes[i] - a[i]) for i in cliques])
    for i, j in joins:
        cut += a[i] * (sizes[j] - a[j]) + a[j] * (sizes[i] - a[i])
    return cut


def _run(r: int, sizes) -> tuple:
    """(first, n): the n splits _step(first, j) of r evens over one or two classes;
    the first fills the lower class first and each step moves one even upwards."""
    if len(sizes) == 1:
        return (r,), int(0 <= r <= sizes[0])
    hi = min(sizes[0], r)
    return (hi, r - hi), max(0, hi - max(0, r - sizes[1]) + 1)


def _step(fill, j: int):
    return (*fill[:-2], fill[-2] - j, fill[-1] + j) if j else fill


def class_scan_reference(spec, sizes, cliques=(), joins=(), singles=0, preferred=()):
    """construct._class_scan as it stepped through every count vector of a run, each cut
    from _class_cut; its hit goes through the package's tally gate and realize."""
    from perrin_cordial.construct import E, O, Infeasible, _blocks_pattern, _gate, _name, _pieces
    from perrin_cordial.labeling import feasible_even_counts

    binary = (tuple(i for i in range(singles) if bits >> i & 1) for bits in range(1 << singles))
    heads = [tuple(int(i in e) for i in range(singles)) for e in dict.fromkeys([*preferred, *binary])]
    n, total = sum(sizes), sum(sizes[i] * sizes[j] for i, j in joins)
    total += sum(sizes[i] * (sizes[i] - 1) // 2 for i in cliques)
    counts, multi = feasible_even_counts(n), sizes[singles:]
    p, q = len(sizes) - 2, len(sizes) - 1
    dd = 4 * ((p in cliques) + (q in cliques)) - 8 * ((p, q) in joins or (q, p) in joins)
    tried, below, above = 0, -total - 2, total + 2
    for head in heads:
        for s in counts:
            first, length = _run(s - sum(head), multi)
            e, d = total - 2 * _class_cut(sizes, cliques, joins, head + first), 0
            for j in range(length):
                if -1 <= e <= 1:
                    a = head + _step(first, j)
                    blocks = [b for t, k in zip(sizes, a) for b in ((k, E, E), (t - k, O, O))]
                    return _gate(spec, _blocks_pattern(blocks), *_pieces(spec))
                if below < e < 0:
                    below = e
                elif 0 < e < above:
                    above = e
                if j == 0 and length > 1:
                    d = total - 2 * _class_cut(sizes, cliques, joins, head + _step(first, 1)) - e
                    if d == dd == 0:
                        break  # eps is constant along this run, so the rest misses too
                e, d = e + d, d + dd
            tried += length
    nearest = [f"epsilon={e}" for e in (below, above) if abs(e) <= total]
    return Infeasible(
        f"{_name(spec)}: none of {tried} even-count vectors over classes {sizes} reaches "
        f"|epsilon| <= 1 (nearest: {', '.join(nearest) or 'none'}); vertices within a class "
        "are exchangeable, so no labeling does"
    )

"""Shared hypothesis strategies for random graphs, patterns and labelings."""

import itertools
import json

from hypothesis import strategies as st

from perrin_cordial import FamilySpec, Graph, Parity, feasible_even_counts, realize


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = set()
    return Graph(n, tuple(edges))


@st.composite
def graph_json(draw, max_n=30):
    """Graph JSON text plus the (n, edges, family) it spells.

    Edges come in shuffled order, each written [u, v] or [v, u]; family is
    optional, and is either left out or null when absent.  The family is
    any valid spec: read_graph records it without checking it against the
    edges.  Some files also carry a roles key, which the format no longer
    defines and read_graph ignores: an old-style vertex map or any JSON
    value.
    """
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [e if draw(st.booleans()) else e[::-1] for e in edges]
    doc = {"vertex_count": n, "edges": [list(e) for e in edges]}
    if draw(st.booleans()):
        doc["roles"] = draw(
            st.dictionaries(st.integers(0, max_n).map(str), st.sampled_from(("apex", "rim", "wizard")))
            | st.none()
            | st.integers()
            | st.text(max_size=5)
        )
    family = draw(
        st.none()
        | st.builds(FamilySpec, st.just("cycle"), st.tuples(st.integers(3, 40)))
        | st.builds(FamilySpec, st.just("jellyfish"), st.tuples(st.integers(0, 9), st.integers(0, 9)))
    )
    if family is not None:
        doc["family"] = {"name": family.name, "params": list(family.params)}
    elif draw(st.booleans()):
        doc["family"] = None
    return json.dumps(doc), (n, tuple(edges), family)


@st.composite
def graph_and_pattern(draw, max_n=10):
    g = draw(graphs(max_n=max_n))
    pattern = tuple(
        draw(
            st.lists(
                st.sampled_from((Parity.EVEN, Parity.ODD)),
                min_size=g.vertex_count,
                max_size=g.vertex_count,
            )
        )
    )
    return g, pattern


@st.composite
def graph_and_valid_labeling(draw, max_n=10):
    """A graph plus an arbitrary (not necessarily canonical) valid labeling."""
    g = draw(graphs(max_n=max_n))
    n = g.vertex_count
    s = draw(st.sampled_from(feasible_even_counts(n)))
    order = draw(st.permutations(range(n)))
    even_set = set(order[:s])
    pattern = tuple(Parity.EVEN if v in even_set else Parity.ODD for v in range(n))
    f = realize(g, pattern)
    # shuffle indices within each parity class; tally must not change
    evens = [v for v in range(n) if pattern[v] is Parity.EVEN]
    odds = [v for v in range(n) if pattern[v] is Parity.ODD]
    shuffled = dict(f.assignment)
    for group in (evens, odds):
        perm = draw(st.permutations(group))
        indices = [f.assignment[v] for v in group]
        for v, idx in zip(perm, indices):
            shuffled[v] = idx
    from perrin_cordial import PerrinLabeling

    return g, PerrinLabeling(assignment=shuffled, domain_max=n)

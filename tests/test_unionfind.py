"""Graph primitives: components against the union-find class, the signed walk against brute force and the dict colouring."""

from itertools import accumulate, product

from hypothesis import given, settings, strategies as st

import oracles
from multisect.unionfind import components, signed_walk


@st.composite
def slot_graphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    # loops and parallel edges are drawn like any other edge; an open slot leads nowhere
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 1)), max_size=12))
    open_at = draw(st.lists(node, max_size=3))
    # each node's slots in a drawn order
    slots = [[] for _ in range(n)]
    for x, y, rel in edges:
        slots[x].append((y, rel))
        slots[y].append((x, rel))
    for x in open_at:
        slots[x].append((-1, 0))
    slots = [draw(st.permutations(row)) for row in slots]
    return n, edges, open_at, slots


@given(slot_graphs())
@settings(max_examples=300)
def test_signed_walk_matches_brute_force(graph):
    n, edges, open_at, slots = graph
    start = list(accumulate((len(row) for row in slots), initial=0))
    nbr = [y for row in slots for y, _ in row]
    rel = bytes(r for row in slots for _, r in row)
    walk = signed_walk(n, start, nbr, rel)

    uf = oracles.UnionFind(n)
    for x, y, _ in edges:
        uf.union(x, y)
    # components are UnionFind's, numbered by their least nodes
    number = {}
    want = [number.setdefault(uf.find(x), len(number)) for x in range(n)]
    assert list(walk.component) == want
    least = [want.index(k) for k in range(uf.n_sets)]
    assert all(walk.side[x] == 0 for x in least)
    # closed exactly when no slot of the component is open
    assert list(walk.closed) == [all(want[x] != k for x in open_at) for k in range(uf.n_sets)]
    # consistent exactly when some signing exists, and then the sides are one
    exists = any(all(bits[y] == bits[x] ^ r for x, y, r in edges) for bits in product((0, 1), repeat=n))
    assert walk.consistent == exists
    if exists:
        assert all(walk.side[y] == walk.side[x] ^ r for x, y, r in edges)
    adj = [[(y, -1 if r else 1) for y, r in row if y >= 0] for row in slots]
    sign = oracles.signed_colouring(range(n), adj)
    assert (sign is not None) == walk.consistent
    if sign is not None:
        assert [sign[x] for x in range(n)] == [1 - 2 * s for s in walk.side]


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    # loops and parallel edges come up among drawn pairs; nodes no pair names stay isolated
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    loops = draw(st.lists(node, max_size=3))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return n, draw(st.permutations(pairs + [(x, x) for x in loops] + repeats))


@given(pair_lists())
@settings(max_examples=300)
def test_components_match_union_find_and_signed_walk(graph):
    n, pairs = graph
    component, count = components(n, [x for x, _ in pairs], [y for _, y in pairs])

    uf = oracles.UnionFind(n)
    for x, y in pairs:
        uf.union(x, y)
    number = {}
    want = [number.setdefault(uf.find(x), len(number)) for x in range(n)]
    assert list(component) == want
    assert count == uf.n_sets

    # the same graph as a slot table with zero relation bits
    slots = [[] for _ in range(n)]
    for x, y in pairs:
        slots[x].append(y)
        slots[y].append(x)
    start = list(accumulate((len(row) for row in slots), initial=0))
    walk = signed_walk(n, start, [y for row in slots for y in row], bytes(start[-1]))
    assert component == walk.component

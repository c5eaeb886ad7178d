"""Graph primitives: signed 2-colouring against brute force."""

from itertools import product

from hypothesis import given, settings, strategies as st

from multisect.unionfind import UnionFind, signed_colouring


@st.composite
def signed_graphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    # loops and parallel edges are drawn like any other edge
    edges = draw(st.lists(st.tuples(node, node, st.sampled_from([1, -1])), max_size=12))
    nodes = draw(st.permutations(list(range(n))))
    return nodes, edges


@given(signed_graphs())
@settings(max_examples=300)
def test_signed_colouring_matches_brute_force(graph):
    nodes, edges = graph
    n = len(nodes)
    adj = [[] for _ in range(n)]
    uf = UnionFind(n)
    for x, y, rel in edges:
        adj[x].append((y, rel))
        adj[y].append((x, rel))
        uf.union(x, y)
    exists = any(
        all(signs[y] == rel * signs[x] for x, y, rel in edges) for signs in product((1, -1), repeat=n)
    )
    sign = signed_colouring(nodes, adj)
    if sign is None:
        assert not exists
        return
    assert exists
    assert sorted(sign) == list(range(n))
    assert all(sign[y] == rel * sign[x] for x, y, rel in edges)
    seen = set()
    for x in nodes:
        root = uf.find(x)
        if root not in seen:
            seen.add(root)
            assert sign[x] == 1


"""GF(2) rank and Betti numbers against the frozenset oracles."""

from itertools import combinations

from hypothesis import given, strategies as st

import oracles
from multisect import gf2


def bits(v):
    return frozenset(j for j in range(v.bit_length()) if v >> j & 1)


@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=16))
def test_rank_matches_set_elimination_oracle(vectors):
    assert gf2.rank(vectors) == oracles.gf2_rank_sets(map(bits, vectors))


@given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8))
def test_betti_matches_simplicial_oracle(simplices):
    faces = {frozenset(c) for s in simplices for r in range(1, len(s) + 1) for c in combinations(sorted(s), r)}
    by_dim = [sorted((f for f in faces if len(f) == d + 1), key=sorted) for d in range(max(map(len, faces)))]
    index = [{f: j for j, f in enumerate(fs)} for fs in by_dim]

    def columns(d):
        return [sum(1 << index[d - 1][f - {v}] for v in f) for f in by_dim[d]]

    assert list(gf2.betti([len(fs) for fs in by_dim], columns)) == oracles.simplicial_betti(faces)

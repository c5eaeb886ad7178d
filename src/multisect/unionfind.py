"""Graph primitives: array-backed union-find and signed 2-colouring."""

from __future__ import annotations

from typing import Dict, Iterable, Optional


class UnionFind:
    """Disjoint sets over the integers 0..n-1."""

    __slots__ = ("parent", "size", "n_sets")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_sets = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b.  Returns True if they were distinct."""
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_sets -= 1
        return True


def signed_colouring(nodes: Iterable[int], adj) -> Optional[Dict[int, int]]:
    """Signs +1/-1 with sign[y] == rel * sign[x] for every (y, rel) in adj[x].

    The first node of each component, in `nodes` order, gets +1.  Returns
    None when no such signs exist; a loop with rel -1 is such a conflict.
    """
    sign: Dict[int, int] = {}
    for root in nodes:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for y, rel in adj[x]:
                want = rel * sign[x]
                got = sign.get(y)
                if got is None:
                    sign[y] = want
                    stack.append(y)
                elif got != want:
                    return None
    return sign

"""Graph primitives: union-find over pairs, and one signed walk over slot tables.

`signed_walk` serves every ±1 propagation: facet components and
orientations across gluings, the closed components and orientability of
a cell complex's top cells, and the dual bipartition of `infer_sides`.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence


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


class Walk(NamedTuple):
    """What `signed_walk` finds: components, sides, and whether the relations hold."""

    component: array      # per node, its component; components are numbered by their least nodes
    side: bytearray       # per node, 0 or 1; 0 at each component's least node
    closed: bytearray     # per component, 1 when none of its slots is open
    consistent: bool      # some sides satisfy every slot's relation; only then do `side` satisfy them


def signed_walk(n: int, start: Sequence[int], nbr: Sequence[int], rel: Sequence[int]) -> Walk:
    """Walk nodes 0..n-1 across their slots, giving side[nbr[j]] = side[x] ^ rel[j].

    Node x's slots are start[x]..start[x+1]-1; slot j leads to node
    nbr[j], or nowhere when that is -1 (an open slot), with relation bit
    rel[j].  Each component is walked from its least node, which takes
    side 0.  A slot whose relation the sides so far break, a loop with
    bit 1 among them, makes the walk inconsistent; it still walks on.
    """
    component = array("i", [-1]) * n
    side = bytearray(n)
    closed = bytearray()
    consistent = True
    for root in range(n):
        if component[root] >= 0:
            continue
        k = len(closed)
        component[root] = k
        closed.append(1)
        stack = [root]
        while stack:
            x = stack.pop()
            a, b, sx = start[x], start[x + 1], side[x]
            for y, r in zip(nbr[a:b], rel[a:b]):
                if y < 0:
                    closed[k] = 0
                elif component[y] < 0:
                    component[y] = k
                    side[y] = sx ^ r
                    stack.append(y)
                elif side[y] != sx ^ r:
                    consistent = False
    return Walk(component, side, closed, consistent)

"""Graph primitives, one per input form, numbering components alike.

`components` takes edges as pairs: the 1-skeleton's edge cells,
`symmetric_representation`'s orbits and `twisted_admissible`'s union
graph.  `signed_walk` takes a table of what lies across each slot and
serves every ±1 propagation: facet components and orientations across
gluings, the closed components and orientability of a cell complex's top
cells, and the dual bipartition of `infer_sides`.  Both number each
component by its least node.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Sequence, Tuple


def components(n: int, a: Iterable[int], b: Iterable[int]) -> Tuple[array, int]:
    """Components of nodes 0..n-1 joined by the pairs (a[j], b[j]), and how many there are.

    Components are numbered by their least nodes, as in `Walk.component`.
    Union-find with path halving that keeps each root at the least node of
    its set: every parent is then at most its child, so one ascending pass
    numbers the components in place.
    """
    parent = list(range(n))
    for x, y in zip(a, b):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    count = 0
    for x, p in enumerate(parent):
        if p == x:
            parent[x] = count
            count += 1
        else:
            parent[x] = parent[p]
    return array("i", parent), count


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

"""GF(2) linear algebra on vectors packed into Python integers.

A vector over GF(2) is an int whose set bits are the nonzero coordinates.
Addition is ^, which keeps the elimination loop short and avoids any
array dependency.  `Basis` is the one elimination routine: `rank` and
`betti` are loops over `Basis.add`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence, Tuple


def rank(vectors: Iterable[int]) -> int:
    """Dimension of the GF(2) span of the given bit-vectors; zeros are ignored."""
    basis = Basis()
    for v in vectors:
        basis.add(v)
    return basis.rank


def betti(
    counts: Sequence[int], columns: Callable[[int], Iterable[int]], known: Mapping[int, int] = {}
) -> Tuple[int, ...]:
    """Mod-2 Betti numbers in dimensions 0..len(counts)-1, from the cell count per dimension.

    `known` maps a dimension d to the rank of the boundary map from it,
    where the caller has that rank without elimination, typically from a
    component count.  Every other boundary map is eliminated from
    columns(d), one bit-vector per d-cell read one at a time; each such
    column is as wide as the cell count one dimension down, so the basis
    of a dimension eliminated here can grow with the square of it.
    """
    ranks = [0] + [known[d] if d in known else rank(columns(d)) for d in range(1, len(counts))] + [0]
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))


class Basis:
    """Incremental row basis; membership tests may interleave with inserts."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        """Residue of v modulo the current span."""
        pivots = self.pivots
        while v:
            p = v.bit_length() - 1
            row = pivots.get(p)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
            return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

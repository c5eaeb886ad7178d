"""GF(2) linear algebra on vectors packed into Python integers.

A vector over GF(2) is an int whose set bits are the nonzero coordinates.
Addition is ^, which keeps the elimination loops short and avoids any
array dependency.
"""

from __future__ import annotations

from typing import Iterable


def rank(vectors: Iterable[int]) -> int:
    """Rank of the span of the given bit-vectors.

    Args:
        vectors: iterable of ints; zero entries are allowed and ignored.

    Returns:
        Dimension of the GF(2) span.
    """
    pivots: dict[int, int] = {}
    r = 0
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            row = pivots.get(p)
            if row is None:
                pivots[p] = v
                r += 1
                break
            v ^= row
    return r


class Basis:
    """Incremental row basis, used where membership tests interleave with inserts."""

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


"""Small generator families: doubled simplices and crosspolytope spheres.

Every generator keeps each vertex class at one corner slot in every
facet, axis i of a crosspolytope at slot i; that slot is the coordinate
the `pairs` partition scheme reads.
The crosspolytope generators refuse to exceed a facet ceiling, by
default `triangulation.default_ceiling()`.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .triangulation import Limits, Triangulation, TriangulationError


def double_simplex(n: int) -> Triangulation:
    """Two n-simplices glued by the identity along all n+1 faces; PL n-sphere."""
    if n < 1:
        raise TriangulationError("double_simplex needs n >= 1")
    ident = tuple(range(n + 1))
    row0 = tuple((1, ident) for _ in range(n + 1))
    row1 = tuple((0, ident) for _ in range(n + 1))
    return Triangulation(n, (row0, row1))


def cross_sphere(n: int, ceiling: Optional[int] = None) -> Triangulation:
    """Boundary of the (n+1)-crosspolytope: one facet per sign orthant.

    Vertex 2i is the positive, 2i+1 the negative endpoint of axis i; the
    facet for a sign vector picks one endpoint per axis, and orthants
    meeting in a sign change share the facet opposite that axis.
    """
    if n < 1:
        raise TriangulationError("cross_sphere needs n >= 1")
    m = 1 << (n + 1)
    ceiling = Limits(ceiling).ceiling()
    if m > ceiling:
        raise TriangulationError("cross_sphere(%d) needs %d facets, over the ceiling %d" % (n, m, ceiling))
    facets = []
    for bits in product((0, 1), repeat=n + 1):
        facets.append(tuple(2 * i + b for i, b in enumerate(bits)))
    return Triangulation.from_vertex_facets(n, facets)


def cross_projective(n: int, ceiling: Optional[int] = None) -> Triangulation:
    """Antipodal quotient of the crosspolytope sphere; 2^n facets, n+1 vertex classes.

    Facets are orthants whose first sign is positive; crossing axis i
    flips that sign and renormalises through the antipodal map, which is
    the identity on corner positions.
    """
    if n < 2:
        raise TriangulationError("cross_projective needs n >= 2 (the quotient of a circle is again a circle)")
    m = 1 << n
    ceiling = Limits(ceiling).ceiling()
    if m > ceiling:
        raise TriangulationError("cross_projective(%d) needs %d facets, over the ceiling %d" % (n, m, ceiling))
    ident = tuple(range(n + 1))
    gluings = []
    for code in range(m):
        # code bit j is the sign of axis j+1; axis 0 is pinned positive
        row = []
        for i in range(n + 1):
            if i == 0:
                target = (m - 1) ^ code  # negate every free sign
            else:
                target = code ^ (1 << (i - 1))
            row.append((target, ident))
        gluings.append(row)
    return Triangulation(n, gluings)

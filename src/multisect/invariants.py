"""Derived invariants of a partitioned triangulation.

Genera of the region graphs, the central complex summary, the Euler
identity in dimension four, edge-path fundamental group presentations,
and the homology-level surjectivity checks for the inclusion of the
central complex into the ambient manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import cells as cells_mod
from . import gf2
from .partition import ValidationReport, VertexPartition, validate
from .triangulation import Triangulation, TriangulationError


@dataclass(eq=False)
class MultisectionReport:
    n: int
    k: int
    ambient_euler: int
    genera: Tuple[int, ...]
    spine_dims: Tuple[Tuple[Tuple[int, ...], int], ...]   # (subset, collapsed dim)
    central_summary: dict
    central_betti: Tuple[int, ...]
    central_genus: Optional[int]       # surface genus / crosscap number when n-k == 2
    npc_ok: Optional[bool]
    supports_multisection: bool
    supports_generalized: bool
    diagnostics: Tuple[str, ...]       # validation's, its manifold checks last
    validation: ValidationReport = field(repr=False)

    @property
    def euler_identity(self) -> Optional[bool]:
        """chi(M) = 2 + g(central) - sum of genera, in dimension 4 with a central genus; else None."""
        if self.n != 4 or self.central_genus is None:
            return None
        return self.ambient_euler == 2 + self.central_genus - sum(self.genera)


def multisection_report(T: Triangulation, P: VertexPartition) -> MultisectionReport:
    """Validate the partition and summarise the induced decomposition.

    The verdicts and diagnostics are `validate`'s, whose kept report is read.
    `npc_ok` checks every nonempty central cube complex, else it is None.
    """
    rep = validate(T, P)
    n, k = rep.n, rep.k
    central = cells_mod.extract(T, P, tuple(range(k + 1)))
    summ = central.summary()
    betti = central.betti()
    genus = None
    if summ["dimension"] == 2 and summ["closed"] and summ["connected"]:
        if summ["orientable"]:
            genus = (2 - summ["euler"]) // 2
        else:
            genus = 2 - summ["euler"]
    npc_ok = None
    if central.all_cubes and central.cells:
        npc_ok = cells_mod.npc_check(central).ok
    return MultisectionReport(
        n=n,
        k=k,
        ambient_euler=T.euler(),
        genera=rep.genera(),
        spine_dims=tuple((r.subset, r.spine_dim) for r in rep.subsets),
        central_summary=summ,
        central_betti=betti,
        central_genus=genus,
        npc_ok=npc_ok,
        supports_multisection=rep.supports_multisection,
        supports_generalized=rep.supports_generalized,
        diagnostics=rep.diagnostics,
        validation=rep,
    )


@dataclass(frozen=True)
class TrisectionVerdict:
    ok: bool
    ambient_euler: int
    central_genus: int
    genera: Tuple[int, ...]
    gk: Optional[Tuple[int, int]]   # (g, k) when all region genera agree

    def __bool__(self) -> bool:
        return self.ok


def euler_trisection_check(R: MultisectionReport) -> TrisectionVerdict:
    """The report's four-dimensional `euler_identity`, with (g, k) when the genera agree."""
    if R.n != 4:
        raise TriangulationError("the trisection Euler identity needs dimension 4, got %d" % R.n)
    if R.central_genus is None:
        raise TriangulationError("central complex is not a closed connected surface")
    gk = None
    if len(set(R.genera)) == 1:
        gk = (R.central_genus, R.genera[0])
    return TrisectionVerdict(
        ok=R.euler_identity,
        ambient_euler=R.ambient_euler,
        central_genus=R.central_genus,
        genera=R.genera,
        gk=gk,
    )


@dataclass(eq=False)
class GroupPresentation:
    """Generators 0..g-1; relator letters are +-(index+1)."""

    generators: int
    relators: Tuple[Tuple[int, ...], ...]
    provenance: str

    def abelian_rank_gf2(self) -> int:
        return self.generators - gf2.rank(map(_parity, self.relators))


def _parity(word) -> int:
    """A word's GF(2) abelianization: bit j counts the letters +-(j+1) mod 2."""
    v = 0
    for letter in word:
        v ^= 1 << (abs(letter) - 1)
    return v


def free_reduce(word) -> Tuple[int, ...]:
    out: List[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def pi1_presentation(C: cells_mod.CellComplex) -> GroupPresentation:
    """Edge-path presentation from the 2-skeleton of a cube complex.

    Generators are the edges outside a breadth-first spanning tree;
    every square contributes the boundary word of its 4-cycle, freely
    reduced.  The provenance names the subset and the tree's root.
    """
    if not C.all_cubes:
        raise TriangulationError("presentations are computed for cube complexes only")
    if C.dimension < 1:
        raise TriangulationError("complex has no edges")
    parent, cotree = C.spanning_forest
    roots = [v for v, step in parent.items() if step is None]
    if not roots:
        raise TriangulationError("complex has no vertices")
    if len(roots) > 1:
        raise TriangulationError("complex is disconnected")
    gen = {e: j + 1 for j, e in enumerate(cotree)}
    relators = []
    for i in C.squares():
        word = [dr * gen[e] for e, dr in C.square_path(i) if e in gen]
        relators.append(free_reduce(word))
    return GroupPresentation(
        generators=len(cotree),
        relators=tuple(relators),
        provenance="subset=%s root=%d" % (",".join(map(str, C.subset)), roots[0]),
    )


@dataclass(eq=False)
class InclusionReport:
    label: int
    target_rank: int
    generator_words: Tuple[Tuple[int, ...], ...]
    relators_die: bool
    abelian_image_rank: int
    surjective: bool

    def __bool__(self) -> bool:
        return self.relators_die and self.surjective


def inclusion_epimorphism(T: Triangulation, P: VertexPartition, label: int) -> InclusionReport:
    """Push the central complex's loops into one region graph.

    Central vertices map to their class-`label` ambient vertex; a
    central edge maps to the monochromatic edge between its doubled
    vertices when the doubled class is `label`, else to a constant
    path.  Every relator of the central complex must die in the free
    group of the graph, and the abelianized images must span it.
    """
    k = P.k
    if not 0 <= label <= k:
        raise TriangulationError("class label %d out of range 0..%d" % (label, k))
    fp = T.face_poset
    central = cells_mod.extract(T, P, tuple(range(k + 1)))
    graph = cells_mod.extract(T, P, (label,))
    if graph.dimension > 1:
        raise TriangulationError("region %d is not a graph (contains higher cells)" % label)
    if not central.connected() or not graph.connected():
        raise TriangulationError("central complex and region graph must be connected")
    if not central.all_cubes:
        raise TriangulationError("presentations are computed for cube complexes only")

    # an edge's children are [head, tail]; see `CellComplex.spanning_forest`
    c_parent, c_cotree = central.spanning_forest
    _, g_cotree = graph.spanning_forest
    g_gen = {e: j + 1 for j, e in enumerate(g_cotree)}

    def letter(e: int) -> int:
        """The letter central edge e maps to along its canonical direction, 0 for none."""
        f, _, _, (doubled,), ((a, b),) = central.cube(e)
        if doubled != label:
            return 0
        gi = graph._index(fp.class_of(f, (a, b)))
        # its ends lie on the graph vertices at corners a and b
        tail, head = graph._index(fp.facet_vertices[f * fp.L + a]), graph._index(fp.facet_vertices[f * fp.L + b])
        gvb, gva = graph.children_of(gi)
        if head not in (gva, gvb) or tail not in (gva, gvb):
            raise TriangulationError("inclusion image of an edge misses its endpoints")
        sign = 1 if tail == gva else -1
        return sign * g_gen[gi] if gi in g_gen else 0

    # once per edge; paths cross edges many times
    letters = {e: letter(e) for e, d in enumerate(central.dims) if d == 1}

    def edge_image(e: int, dr: int) -> Tuple[int, ...]:
        return (dr * letters[e],) if letters[e] else ()

    # image of the tree path from the root to each central vertex, reduced;
    # the spanning forest lists each vertex after the one it was reached from
    pot: Dict[int, Tuple[int, ...]] = {}
    for v, step in c_parent.items():
        if step is None:
            pot[v] = ()
        else:
            e, dr = step
            vb, va = central.children_of(e)
            pot[v] = free_reduce(pot[va if dr == 1 else vb] + edge_image(e, dr))

    # generator words: tree path to tail, the edge, tree path back
    words = []
    for e in c_cotree:
        vb, va = central.children_of(e)
        back = tuple(-x for x in reversed(pot[vb]))
        words.append(free_reduce(pot[va] + edge_image(e, 1) + back))

    relators_die = not any(
        free_reduce([x for e, dr in central.square_path(i) for x in edge_image(e, dr)]) for i in central.squares()
    )

    rank = gf2.rank(map(_parity, words))
    target = len(g_gen)
    return InclusionReport(
        label=label,
        target_rank=target,
        generator_words=tuple(words),
        relators_die=relators_die,
        abelian_image_rank=rank,
        surjective=rank == target,
    )


def h1_onto_check(T: Triangulation, P: VertexPartition, cls: int = 0) -> bool:
    """Surjectivity of first GF(2) homology under the central inclusion.

    The cellular approximation sends a central edge with doubled class
    `cls` to the ambient monochromatic edge on its doubled pair, and
    every other central edge to a constant path.  H_1 is onto when the
    images of the central cycles, one per cotree edge of the spanning
    forest, gain b_1 dimensions over the ambient boundaries.

    The images are taken in the coordinates of the distinct ambient
    edges that central edges map to, numbered as met, and reduced there
    to a basis A; only A's vectors are rewritten in ambient edge bits
    and added to the ambient boundary basis.  Renaming coordinates is an
    injective linear map, so A spans what the images span and gains the
    same rank.  rank ∂_1 is the vertex classes minus the facet
    components.  The ∂_2 basis is eliminated on each call, from columns
    as wide as the ambient edge count, so it can grow with the square
    of T.
    """
    if not 0 <= cls <= P.k:
        raise TriangulationError("class label %d out of range 0..%d" % (cls, P.k))
    fp = T.face_poset
    central = cells_mod.extract(T, P, tuple(range(P.k + 1)))
    e_start = fp.dim_start[1]  # bit j of an ambient edge chain is edge class e_start + j
    # an edge's children are [head, tail]; see `CellComplex.spanning_forest`
    parent, cotree = central.spanning_forest
    number: Dict[int, int] = {}  # ambient edge bit -> image coordinate, numbered as met

    def image(e: int) -> int:
        ((a, b),) = central.pairs(e)  # the corners of the edge's doubled label
        f = fp.canonical(central.cells[e])[0]
        if P.labels[fp.facet_vertices[f * fp.L + a]] != cls:
            return 0
        return 1 << number.setdefault(fp.class_of(f, (a, b)) - e_start, len(number))

    # image of the forest path from its root to each central vertex; the
    # fundamental cycle of a cotree edge then images to pot[va] ^ image ^ pot[vb]
    pot: Dict[int, int] = {}
    for v, step in parent.items():
        if step is None:
            pot[v] = 0
        else:
            e, dr = step
            vb, va = central.children_of(e)
            pot[v] = pot[va if dr == 1 else vb] ^ image(e)
    images = gf2.Basis()
    for e in cotree:
        vb, va = central.children_of(e)
        images.add(pot[va] ^ image(e) ^ pot[vb])
    del pot  # before the ∂_2 basis, which sets the peak
    bit_of = list(number)  # per image coordinate, its ambient edge bit

    # one column at a time: a list of them all, each as wide as the edge
    # count, would outweigh the basis
    base = gf2.Basis()
    for v in T.boundary_columns(2):
        base.add(v)
    b1 = len(fp.class_ids_of_dim(1)) - (e_start - T._facet_components().n_sets) - base.rank
    extra = 0
    for v in images.pivots.values():
        ambient = 0
        while v:
            low = v & -v
            ambient |= 1 << bit_of[low.bit_length() - 1]
            v ^= low
        extra += base.add(ambient)
    return extra == b1

"""Derived invariants of a partitioned triangulation.

Genera of the region graphs, the central complex summary, the Euler
identity in dimension four, edge-path fundamental group presentations,
and the homology-level surjectivity checks for the inclusion of the
central complex into the ambient manifold.
"""

from __future__ import annotations

from bisect import bisect_left
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
    forest = C.spanning_forest
    if not forest.order:
        raise TriangulationError("complex has no vertices")
    if not C.connected():
        raise TriangulationError("complex is disconnected")
    gen = {e: j + 1 for j, e in enumerate(forest.cotree)}
    relators = []
    for i in C.squares():
        word = [dr * gen[e] for e, dr in C.square_path(i) if e in gen]
        relators.append(free_reduce(word))
    return GroupPresentation(
        generators=len(forest.cotree),
        relators=tuple(relators),
        provenance="subset=%s root=%d" % (",".join(map(str, C.subset)), forest.order[0]),
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
    group of the graph, and the abelianized images must span it.  Each
    central edge's letter is computed once, into a list indexed by edge,
    and a square whose four edges all have letter 0 is skipped: its
    relator is empty.
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
    cs, cflat, gs, gflat = central.child_start, central.child_flat, graph.child_start, graph.child_flat
    g_cotree = graph.spanning_forest.cotree
    gen = [0] * len(graph.cells)  # per graph edge outside its forest, its generator
    for j, e in enumerate(g_cotree):
        gen[e] = j + 1
    table, canon, fv, L = fp._table, fp.cls_canon, fp.facet_vertices, fp.L
    local, shape_of = central.local, central.shape_of
    pair = [shape.pairs[0] if shape.dirs == (label,) else None for shape in central.shapes]
    # per central edge, the letter it maps to along its canonical direction, 0 for none
    n0, n1 = bisect_left(central.dims, 1), bisect_left(central.dims, 2)
    letters = [0] * n1
    for e, cid in enumerate(central.cells[n0:n1], n0):
        if pair[shape_of[cid]] is None:
            continue
        (a, b), f = pair[shape_of[cid]], canon[cid] >> L
        gi = local[table[f << L | 1 << a | 1 << b]]
        # its ends lie on the graph vertices at corners a and b
        tail, head = local[fv[f * L + a]], local[fv[f * L + b]]
        ends = gflat[gs[gi] : gs[gi] + 2]
        if head not in ends or tail not in ends:
            raise TriangulationError("inclusion image of an edge misses its endpoints")
        letters[e] = gen[gi] if tail == ends[1] else -gen[gi]

    # image of the tree path from the root to each central vertex, reduced; the
    # forest lists each vertex after the one it was reached from, its edge's
    # tail when the direction is 1 and its head otherwise
    forest = central.spanning_forest
    pot: List[Tuple[int, ...]] = [()] * n0
    for v in forest.order:
        e = forest.edge[v]
        if e >= 0:
            dr = forest.direction[v]
            w, x = pot[cflat[cs[e] + (dr > 0)]], dr * letters[e]
            pot[v] = free_reduce(w + (x,)) if x else w

    # generator words: tree path to tail, the edge, tree path back
    words = []
    for e in forest.cotree:
        head, tail = cflat[cs[e]], cflat[cs[e] + 1]
        back = tuple(-x for x in reversed(pot[head]))
        words.append(free_reduce(pot[tail] + ((letters[e],) if letters[e] else ()) + back))

    relators_die = not any(
        free_reduce([dr * letters[e] for e, dr in central.square_path(i) if letters[e]])
        for i in central.squares()
        if any(map(letters.__getitem__, cflat[cs[i] : cs[i + 1]]))
    )

    rank = gf2.rank(map(_parity, words))
    target = len(g_cotree)
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

    Each central edge's image is computed once, into a list indexed by
    edge, and the tree-path images into a list indexed by vertex.  The
    images are taken in the coordinates of the distinct ambient edges
    that central edges map to, numbered as met, and reduced there to a
    basis A; only A's vectors are rewritten in ambient edge bits
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
    table, canon, L, shape_of = fp._table, fp.cls_canon, fp.L, central.shape_of
    # the corner mask of each edge shape's doubled pair, when its label is cls
    pair = [sum(1 << c for c in shape.pairs[0]) if shape.dirs == (cls,) else 0 for shape in central.shapes]
    number: Dict[int, int] = {}  # ambient edge bit -> image coordinate, numbered as met
    n0, n1 = bisect_left(central.dims, 1), bisect_left(central.dims, 2)
    image = [0] * n1  # per central edge, its image: one coordinate bit, or 0
    for e, cid in enumerate(central.cells[n0:n1], n0):
        if pair[shape_of[cid]]:
            image[e] = 1 << number.setdefault(table[canon[cid] >> L << L | pair[shape_of[cid]]] - e_start, len(number))

    # image of the forest path from its root to each central vertex; the
    # fundamental cycle of a cotree edge then images to pot[tail] ^ image ^ pot[head].
    # An edge's children are [head, tail], and a vertex was reached from the tail
    # of its edge when its direction is 1; see `CellComplex.spanning_forest`
    forest, cs, cflat = central.spanning_forest, central.child_start, central.child_flat
    pot = [0] * n0
    for v in forest.order:
        e = forest.edge[v]
        if e >= 0:
            pot[v] = pot[cflat[cs[e] + (forest.direction[v] > 0)]] ^ image[e]
    images = gf2.Basis()
    for e in forest.cotree:
        images.add(pot[cflat[cs[e]]] ^ image[e] ^ pot[cflat[cs[e] + 1]])
    del pot, image  # before the ∂_2 basis, which sets the peak
    bit_of = list(number)  # per image coordinate, its ambient edge bit

    # one column at a time: a list of them all, each as wide as the edge
    # count, would outweigh the basis
    base = gf2.Basis()
    for v in T.boundary_columns(2):
        base.add(v)
    b1 = len(fp.class_ids_of_dim(1)) - (e_start - len(T._facet_walk().closed)) - base.rank
    extra = 0
    for v in images.pivots.values():
        ambient = 0
        while v:
            low = v & -v
            ambient |= 1 << bit_of[low.bit_length() - 1]
            v ^= low
        extra += base.add(ambient)
    return extra == b1

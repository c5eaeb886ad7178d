"""Cell complexes cut out of a triangulation by a vertex partition.

Fix a labeling of the vertex classes and a subset S of the labels.  The
faces whose vertices touch exactly the labels in S carry a polytopal
cell each: the product, over the labels, of a simplex on that label's
vertices.  A face with every label multiplicity at most 2 carries a
cube.  Facets of a cell are obtained by deleting one vertex from a
label of multiplicity at least 2, which stays inside the same subset.

The complex over the full label set is the central object; the ones
over proper subsets are what the surrounding regions collapse onto, so
their collapsed dimension bounds spine dimensions.

One label pass per labelling is where a class's corners meet their
labels.  It keys every class by one int, its canonical corner mask above
the labels at those corners (each facet's labels are packed once), and
numbers the distinct keys as shapes, few and each built once; every
class gets its shape and its index `local` among its support's
ascending class ids.  Supports partition the classes, so that index is
the class's cell index in the one complex it lies in.  A complex keeps
its cells' class ids and dimensions and its children in CSR form, each
filled by one generator straight into its array, a cell's children read
at `canon ^ bit` for each bit its shape may delete, and shares the
pass's `local`, `shape_of` and `shapes`.  It holds its face poset, not
its triangulation or the record, so no reference cycle keeps a dropped
triangulation alive.  The record keeps the central complex once built,
and `validate`'s report; complexes over proper subsets are rebuilt on
each request.  A complex counts its parents once: `closed`, `collapse`
and the top-cell pairing read the counts, and a collapse with no cell
of one parent, as of every closed complex, stops at once.

Homology goes through `gf2.betti`, which eliminates only the middle
dimensions.  The outer boundary ranks are component counts: of the
1-skeleton, and of the top cells joined across shared codimension-1
cells, which one pairing of each codimension-1 cell with its top cells
gives.  The same pairing, kept on the complex, with the parity of the
two transfer signs decides orientability.  The 1-skeleton's spanning
forest, which the group checks read, is flat arrays too.

A cube's faces are reached one way, by corner mask through its shape's
pairs and corner templates: the face with mask `mask` in facet f sits at
`f * M + mask` of the face poset's tables, which give its class and its
corner map.  Orientation signs, square boundaries, link vertices and
link ridges are all read there.  Every cube corner files one int code at
its vertex, and a link is read off its vertex's codes alone.  A link
vertex is the int edge cell * L + the edge's canonical end corner; a
link simplex is a bitmask over the link's vertices, so the simplicial
test compares masks and the flag test takes common neighbours as the AND
of adjacency masks.  Vertex links are never kept: `npc_check` and
`vertex_link` hold one at a time, `vertex_links` all, and only
`vertex_links` and `vertex_link` build `LinkComplex` records.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, product, repeat
from operator import lshift, or_, sub
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .triangulation import FacePoset, Triangulation, TriangulationError
from .unionfind import UnionFind
from . import gf2

if TYPE_CHECKING:
    from .partition import ValidationReport, VertexPartition


class Shape(NamedTuple):
    """A canonical corner set with the labels at its corners, shared by the classes that have both.

    The labels of multiplicity two span the cube's directions; corners of
    a label of higher multiplicity (a cell that is not a cube) appear in
    neither `fixed` nor `pairs`.  The templates run in `product(*pairs)`
    order, one per corner of the cube: (corner mask, corner face, edges),
    where the corner face is `fixed` plus the chosen corner of each pair,
    and edges holds per direction the mask of the edge leaving the corner
    that way and the corner of the pair that sits at the corner.
    """

    corners: Tuple[int, ...]              # canonical corners, ascending
    multiset: Tuple[int, ...]             # the corners' labels, sorted
    support: Tuple[int, ...]              # the distinct labels, ascending
    delete: Tuple[int, ...]               # 1 << c per corner c whose label occurs twice or more, ascending
    cube: bool                            # no label occurs more than twice
    fixed: Tuple[int, ...]                # corners whose label occurs once
    dirs: Tuple[int, ...]                 # doubled labels, ascending
    pairs: Tuple[Tuple[int, int], ...]    # (lo, hi) corners of each doubled label
    templates: Tuple[Tuple[int, Tuple[int, ...], Tuple[Tuple[int, int], ...]], ...]


def _shape(corners: Tuple[int, ...], at: Tuple[int, ...]) -> Shape:
    """The shape of `corners` with labels `at`, corner by corner."""
    groups: Dict[int, List[int]] = {}
    for c, l in zip(corners, at):
        groups.setdefault(l, []).append(c)
    dirs = tuple(sorted(l for l, cs in groups.items() if len(cs) == 2))
    fixed = tuple(cs[0] for cs in groups.values() if len(cs) == 1)
    pairs = tuple(tuple(groups[l]) for l in dirs)
    templates = []
    for choice in product(*pairs):
        corner = sum(1 << c for c in fixed + choice)
        edges = tuple((corner | 1 << a | 1 << b, c) for c, (a, b) in zip(choice, pairs))
        templates.append((corner, fixed + choice, edges))
    delete = tuple(1 << c for c, l in zip(corners, at) if len(groups[l]) >= 2)
    cube = all(len(cs) <= 2 for cs in groups.values())
    multiset, support = tuple(sorted(at)), tuple(sorted(groups))
    return Shape(corners, multiset, support, delete, cube, fixed, dirs, pairs, tuple(templates))  # type: ignore[arg-type]


@dataclass(eq=False)
class Labelling:
    """One labelling of a triangulation's vertex classes, read in one pass."""

    labels: Tuple[int, ...]
    shape_of: array                               # shape id per class id
    shapes: List[Shape]
    by_support: Dict[Tuple[int, ...], array]      # ascending class ids per sorted label set
    local: array                                  # per class id, its index in its support's class ids
    central: Optional[CellComplex] = None         # kept once built
    report: Optional[ValidationReport] = None     # `validate`'s, kept for the k it was made under


def labelling(T: Triangulation, P: VertexPartition) -> Labelling:
    """T's record of P's labels; T keeps the latest and replaces it when the labels differ."""
    labels = tuple(P.labels)
    rec = T._labelling
    if rec is None or rec.labels != labels:
        rec = T._labelling = _label_pass(T, labels)
    return rec


def _label_pass(T: Triangulation, labels: Tuple[int, ...]) -> Labelling:
    fp = T.face_poset
    if len(labels) != fp.dim_start[1]:
        raise TriangulationError(
            "expected %d vertex labels, got %d" % (fp.dim_start[1], len(labels))
        )
    canon, L, corners_of, fv = fp.cls_canon, fp.L, fp._corners_of, fp.facet_vertices
    # a class's key is its mask above the labels at its corners, b bits a corner:
    # each facet's labels are packed once, and each mask keeps its corners' fields
    b, low = max(labels).bit_length() or 1, fp.M - 1
    top = b * L
    word = [-1 << top] * fp.facet_count
    for c in range(L):
        word = list(map(or_, word, map(lshift, [labels[v] for v in fv[c::L]], repeat(b * c))))
    fields = [mask << top | sum(((1 << b) - 1) << b * c for c in cs) for mask, cs in enumerate(corners_of)]
    ids: Dict[int, int] = {}
    shape_of = array("i", (ids.setdefault(fields[enc & low] & word[enc >> L], len(ids)) for enc in canon))
    shapes = []
    for key in ids:
        corners = corners_of[key >> top]
        shapes.append(_shape(corners, tuple(key >> b * c & (1 << b) - 1 for c in corners)))
    by_support: Dict[Tuple[int, ...], array] = {}
    # per shape, its support's class ids
    members = [by_support.setdefault(shape.support, array("i")) for shape in shapes]
    local = array("i")
    for cid, m in enumerate(map(members.__getitem__, shape_of)):
        local.append(len(m))
        m.append(cid)
    return Labelling(labels, shape_of, shapes, by_support, local)


def class_label_multisets(T: Triangulation, P: VertexPartition) -> List[Tuple[int, ...]]:
    """Sorted label multiset of every face class; index = class id; read off the shapes on each call."""
    rec = labelling(T, P)
    return [rec.shapes[s].multiset for s in rec.shape_of]


class Forest(NamedTuple):
    """A breadth-first spanning forest of a complex's 1-skeleton; vertex cells are 0..len(edge)-1."""

    order: array                          # vertex cells, each after the one it was reached from
    edge: array                           # per vertex cell, the edge cell that reached it; -1 at a root
    direction: array                      # per vertex cell, 1 when reached from its edge's tail, -1 from the head, 0 at a root
    cotree: array                         # the edge cells outside the forest, ascending


class Cube(NamedTuple):
    """The public view of one cell, made on each `cube(i)` from its facet and its `Shape`'s cube fields."""

    facet: int
    corners: Tuple[int, ...]              # canonical corners, ascending
    fixed: Tuple[int, ...]                # corners whose label occurs once
    dirs: Tuple[int, ...]                 # doubled labels, ascending
    pairs: Tuple[Tuple[int, int], ...]    # (lo, hi) corners of each doubled label


def _counts(dims: Sequence[int]) -> Tuple[int, ...]:
    """Cells per dimension, from 0 up to the last of the ascending `dims`."""
    top = dims[-1] if dims else -1
    return tuple(bisect_left(dims, d + 1) - bisect_left(dims, d) for d in range(top + 1))


def _euler(counts: Sequence[int]) -> int:
    return sum(c if d % 2 == 0 else -c for d, c in enumerate(counts))


def _sign_bit(pairs: Sequence[Tuple[int, int]], deleted: int, phi: Sequence[int]) -> int:
    """1 when the face without corner `deleted`, reached through corner map phi, has transfer sign -1."""
    t = next(t for t, pair in enumerate(pairs) if deleted in pair)
    flips = sum(1 for t2, (a, b) in enumerate(pairs) if t2 != t and phi[a] > phi[b])
    return (flips + t + (deleted == pairs[t][0])) % 2


def _top_walk(X: CellComplex, rel: Sequence[int]) -> Optional[Tuple[int, int, bool]]:
    """Components of the top cells joined across shared (D-1)-cells, for D >= 1.

    Reads the complex's `_pairing`, so None when some (D-1)-cell is listed
    three times or more.  Returns (components, closed components,
    consistent): a component is closed when none of its top cells lists
    a (D-1)-cell that is listed once, and consistent says whether the top
    cells take bits with bit b = bit a ^ rel[c] across every pair (a, b)
    at the c-th (D-1)-cell.
    """
    if X._pairing is None:
        return None
    first, second = X._pairing
    dims, s, flat = X.dims, X.child_start, X.child_flat
    lo, top = bisect_left(dims, X.dimension - 1), bisect_left(dims, X.dimension)
    sign = bytearray([2]) * len(dims)  # per top cell: 0, 1, or 2 before the walk reaches it
    components = closed = 0
    consistent = True
    for root in range(top, len(dims)):
        if sign[root] != 2:
            continue
        components += 1
        sign[root] = 0
        stack = [root]
        shut = True
        while stack:
            x = stack.pop()
            for c in flat[s[x] : s[x + 1]]:
                c -= lo
                y = second[c]
                if y < 0:
                    shut = False
                    continue
                if y == x:
                    y = first[c]
                want = sign[x] ^ rel[c]
                if sign[y] == 2:
                    sign[y] = want
                    stack.append(y)
                elif sign[y] != want:
                    consistent = False
        closed += shut
    return components, closed, consistent


@dataclass(eq=False)
class CellComplex:
    """Cells indexed 0..len(cells)-1 in ambient class order (dimension ascending), in flat tables.

    Children are in CSR form: cell i's are `child_flat[child_start[i]:child_start[i + 1]]`.
    """

    face_poset: FacePoset
    labels: Tuple[int, ...]
    subset: Tuple[int, ...]
    cells: array                               # ambient face-class ids, ascending
    dims: array                                # cell dimension (product of simplices)
    child_start: array                         # offsets into child_flat, one past each cell
    child_flat: array                          # codim-1 face indexes, with repetition
    local: array                               # the labelling's: per class, its cell index in its support's complex
    shape_of: array                            # the labelling's: shape id per class
    shapes: List[Shape]                        # the labelling's shapes
    all_cubes: bool                            # no label occurs more than twice in a cell

    def children_of(self, i: int) -> array:
        """Cell i's codim-1 face indexes, with repetition."""
        return self.child_flat[self.child_start[i] : self.child_start[i + 1]]

    @property
    def dimension(self) -> int:
        """The top cell dimension: cells run in ascending dimension, so it is the last cell's."""
        return self.dims[-1] if self.dims else -1

    def counts(self) -> Tuple[int, ...]:
        return _counts(self.dims)

    def euler(self) -> int:
        return _euler(self.counts())

    def connected(self) -> bool:
        return self._components == 1

    @cached_property
    def _components(self) -> int:
        """Components of the complex, decided by the 0-cells and the edge cells' two ends.

        Every cell reaches a 0-cell through its faces, and a product of
        simplices has a connected 1-skeleton.
        """
        if not self.cells:
            return 0
        dims, s, flat = self.dims, self.child_start, self.child_flat
        n0, n1 = bisect_left(dims, 1), bisect_left(dims, 2)
        uf = UnionFind(n0)
        ends = flat[s[n0] : s[n1]]
        for a, b in zip(ends[::2], ends[1::2]):
            uf.union(a, b)
        return uf.n_sets

    @cached_property
    def _parent_counts(self) -> array:
        """Per cell, the cells that list it as a child, with repetition; counted once per complex."""
        counts = array("i", bytes(4 * len(self.cells)))
        for c in self.child_flat:
            counts[c] += 1
        return counts

    def parent_counts(self) -> array:
        return self._parent_counts

    @cached_property
    def _pairing(self) -> Optional[Tuple[array, array]]:
        """Per (D-1)-cell, the first and second top cell listing it (-1 for none); None if one is listed 3+ times."""
        dims, s, flat = self.dims, self.child_start, self.child_flat
        lo, top = bisect_left(dims, self.dimension - 1), bisect_left(dims, self.dimension)
        if max(self._parent_counts[lo:top], default=0) > 2:
            return None
        first, second = array("i", [-1]) * (top - lo), array("i", [-1]) * (top - lo)
        for t in range(top, len(dims)):
            for c in flat[s[t] : s[t + 1]]:
                if first[c - lo] < 0:
                    first[c - lo] = t
                else:
                    second[c - lo] = t
        return first, second

    def closed(self) -> bool:
        """Every codimension-1 cell bounds exactly two top cells; no stray cells."""
        if not self.cells:
            return False
        lo, top = bisect_left(self.dims, self.dimension - 1), bisect_left(self.dims, self.dimension)
        pc = self._parent_counts
        return pc[lo:top].count(2) == top - lo and 0 not in pc[:top]

    def top_count(self) -> int:
        return self.counts()[-1] if self.cells else 0

    def boundary_columns(self, d: int) -> Iterator[int]:
        """Per d-cell, its GF(2) boundary: cells run in ascending dimension, so bit j is the j-th (d-1)-cell.

        Yields one column at a time, so an elimination holds only its basis.
        """
        dims, s, flat = self.dims, self.child_start, self.child_flat
        lo = bisect_left(dims, d - 1)  # the first (d-1)-cell
        for i in range(bisect_left(dims, d), bisect_left(dims, d + 1)):
            col = 0
            for c in flat[s[i] : s[i + 1]]:
                col ^= 1 << (c - lo)
            yield col

    def betti(self) -> Tuple[int, ...]:
        """Mod-2 Betti numbers; the outer boundary ranks are read off component counts.

        rank ∂_1 is the 0-cell count minus the components of the
        1-skeleton, as for any graph.  For the top dimension D >= 2, pair
        each (D-1)-cell with the top cells that list it as a child.  When
        no (D-1)-cell is listed three times, a top chain is a cycle exactly
        when it is constant on each component of top cells joined across a
        shared (D-1)-cell, and zero on each component where some top cell
        has a (D-1)-cell met by no other; a cell listed twice by one top
        cell cancels.  So ker ∂_D is spanned by the closed components, and
        rank ∂_D is the top cell count minus their number.  Otherwise ∂_D
        is eliminated, and the dimensions between always are: their bases
        can grow with the square of the complex.
        """
        counts = self.counts()
        known = {1: counts[0] - self._components} if len(counts) > 1 else {}
        if len(counts) > 2:
            walk = _top_walk(self, bytes(counts[-2]))
            if walk is not None:
                known[len(counts) - 1] = counts[-1] - walk[1]
        return gf2.betti(counts, self.boundary_columns, known)

    def orientable(self) -> Optional[bool]:
        """Coherent top-cell orientations; None when cells are not all cubes.

        Each (D-1)-cell must be listed exactly twice by the top cells, and
        the walk over the pairing relates their orientations by its two
        transfer signs: eps_b = -sa * sb * eps_a.  A sign is computed once per
        (shape, deleted corner, corner map id), as (-1)^(t + side) times
        one flip per other direction whose pair the corner map reverses,
        where deleting the lower (upper) corner of direction t gives the
        face on side 1 (0).
        """
        if not self.all_cubes:
            return None
        D = self.dimension
        if D <= 0:
            return True
        lo = bisect_left(self.dims, D - 1)
        top = bisect_left(self.dims, D)
        fp = self.face_poset
        canon, map_of, perms = fp.cls_canon, fp._map_of, fp._perms
        cells, shape_of, shapes, s, flat = self.cells, self.shape_of, self.shapes, self.child_start, self.child_flat
        rel = bytearray([1]) * (top - lo)  # per (D-1)-cell, 1 ^ its transfer sign bits: eps_b = -sa * sb * eps_a
        bits: Dict[Tuple[int, int, int], int] = {}  # sign bit per (shape, child place, corner map id)
        for i in range(top, len(cells)):
            cid = cells[i]
            sid, enc = shape_of[cid], canon[cid]
            for k, bit in enumerate(shapes[sid].delete):
                mid = map_of[enc ^ bit]
                b = bits.get((sid, k, mid))
                if b is None:
                    b = bits[sid, k, mid] = _sign_bit(shapes[sid].pairs, bit.bit_length() - 1, perms[mid])
                rel[flat[s[i] + k] - lo] ^= b
        walk = _top_walk(self, rel)
        return walk is not None and walk[0] == walk[1] and walk[2]

    def _index(self, cid: int) -> int:
        """Cell index of class cid; supports partition the classes, so the class must have this complex's."""
        if not 0 <= cid < len(self.shape_of) or self.shapes[self.shape_of[cid]].support != self.subset:
            raise TriangulationError("face class %d is not a cell of this complex" % cid)
        return self.local[cid]

    def cube(self, i: int) -> Cube:
        """The cube record of cell i."""
        cid = self.cells[i]
        shape = self.shapes[self.shape_of[cid]]
        return Cube(self.face_poset.cls_canon[cid] // self.face_poset.M, shape.corners, shape.fixed, shape.dirs, shape.pairs)

    @cached_property
    def spanning_forest(self) -> Forest:
        """Breadth-first forest from the least vertex cell of each component, in flat arrays.

        An edge runs from the end at its pair's lower corner to the other;
        its children are [head, tail], as deleting the lower corner leaves
        the upper end.  A vertex's steps are its edges in ascending order.
        """
        dims, flat = self.dims, self.child_flat
        n0, n1 = bisect_left(dims, 1), bisect_left(dims, 2)
        # vertices have no children, so edge e's [head, tail] open the flat children at
        # 2 (e - n0); half-edge j leaves ends[j] for ends[j ^ 1], forward when j is odd
        ends = flat[: 2 * (n1 - n0)]
        steps = array("i", sorted(range(len(ends)), key=ends.__getitem__))  # by vertex, then edge
        at = array("i", map(bisect_left, repeat(sorted(ends)), range(n0 + 1)))  # each vertex's first step
        order, edge, direction = array("i"), array("i", [-1]) * n0, array("b", bytes(n0))
        seen, tree = bytearray(n0), bytearray(n1 - n0)
        for root in range(n0):
            if seen[root]:
                continue
            seen[root] = 1
            walk = [root]
            for v in walk:  # the walk appends as it goes
                for j in steps[at[v] : at[v + 1]]:
                    w = ends[j ^ 1]
                    if not seen[w]:
                        seen[w] = tree[j >> 1] = 1
                        edge[w], direction[w] = n0 + (j >> 1), 1 if j & 1 else -1
                        walk.append(w)
            order.extend(walk)
        return Forest(order, edge, direction, array("i", [n0 + i for i, t in enumerate(tree) if not t]))

    def squares(self) -> range:
        """The indexes of the 2-cells: cells run in ascending dimension."""
        return range(bisect_left(self.dims, 2), bisect_left(self.dims, 3))

    def square_path(self, i: int) -> List[Tuple[int, int]]:
        """Square cell i's 4-cycle as (edge, direction) steps; the complex must be all cubes.

        The cycle leaves template corners 0, 2, 3, 1, that is (a1, a2), (b1, a2), (b1, b2),
        (a1, b2), along directions 0, 1, 0, 1.  A step is forward when the corner map at
        its edge's entry takes the step's start to the edge's lower corner.
        """
        fp = self.face_poset
        table, map_of, perms = fp._table, fp._map_of, fp._perms
        local, shape_of, shapes = self.local, self.shape_of, self.shapes
        cid = self.cells[i]
        base = fp.cls_canon[cid] // fp.M * fp.M
        templates = shapes[shape_of[cid]].templates
        path = []
        for corner, t in ((0, 0), (2, 1), (3, 0), (1, 1)):
            edge, c = templates[corner][2][t]
            ecid = table[base + edge]
            ((lo, _),) = shapes[shape_of[ecid]].pairs
            path.append((local[ecid], 1 if perms[map_of[base + edge]][c] == lo else -1))
        return path

    @property
    def square_boundaries(self) -> Dict[int, List[Tuple[int, int]]]:
        """Per square cell of an all-cube complex, its `square_path`; built on each read."""
        return {i: self.square_path(i) for i in self.squares()}

    def summary(self) -> dict:
        out = {
            "dimension": self.dimension,
            "counts": self.counts(),
            "euler": self.euler(),
            "connected": self.connected(),
            "closed": self.closed(),
            "all_cubes": self.all_cubes,
            "top_cells": self.top_count(),
        }
        out["orientable"] = self.orientable() if out["closed"] else None
        return out


def extract(
    T: Triangulation,
    P: VertexPartition,
    subset: Sequence[int],
    multisets: Optional[List[Tuple[int, ...]]] = None,
) -> CellComplex:
    """The cell complex over the faces whose labels touch exactly `subset`.

    The labelling record keeps the central complex, over labels 0..P.k.
    `multisets` is ignored: the record's shapes hold the label multisets.
    """
    S = tuple(sorted(set(subset)))
    if not S:
        raise TriangulationError("subset of partition classes must be non-empty")
    for l in S:
        if not 0 <= l <= P.k:
            raise TriangulationError("subset label %d out of range 0..%d" % (l, P.k))
    rec = labelling(T, P)
    if S != tuple(range(P.k + 1)):
        return _subset_complex(T.face_poset, rec, S)
    if rec.central is None or rec.central.subset != S:
        rec.central = _subset_complex(T.face_poset, rec, S)
    return rec.central


def _subset_complex(fp: FacePoset, rec: Labelling, S: Tuple[int, ...]) -> CellComplex:
    """The complex over S, from the classes whose label support is S.

    A cell's children are the faces at its canonical entry with one corner
    bit cleared, for each corner whose label its shape doubles: deleting
    such a corner keeps the support S, so the face's `local` index is its
    cell index here.
    """
    cells = rec.by_support.get(S, array("i"))
    table, canon, local, shape_of, shapes = fp._table, fp.cls_canon, rec.local, rec.shape_of, rec.shapes
    delete = [shape.delete for shape in shapes]
    sids = array("i", map(shape_of.__getitem__, cells))
    flat = array("i", (local[table[enc ^ bit]] for enc, s in zip(map(canon.__getitem__, cells), sids) for bit in delete[s]))
    start = array("i", accumulate(map(len, map(delete.__getitem__, sids)), initial=0))
    dims = array("b", map(sub, map(fp.cls_dim.__getitem__, cells), repeat(len(S) - 1)))
    all_cubes = all(shape.cube for shape in shapes if shape.support == S)
    return CellComplex(fp, rec.labels, S, cells, dims, start, flat, local, shape_of, shapes, all_cubes)


@dataclass(frozen=True)
class CollapseResult:
    pairs_removed: int
    spine_cells: Tuple[int, ...]   # surviving cell indexes
    raw_dim: int
    spine_dim: int
    spine_counts: Tuple[int, ...]
    spine_euler: int


def collapse(X: CellComplex) -> CollapseResult:
    """Greedy free-face collapse; removes (face, unique parent) pairs until stuck.

    Deterministic: among free faces, the one with the highest-dimensional
    parent, then lowest index, goes first.
    """
    ncells = len(X.cells)
    s, flat, dims = X.child_start, X.child_flat, X.dims
    D = X.dimension
    alive = bytearray([1]) * ncells
    heap: List[int] = []
    if 1 in X._parent_counts:  # else no face is free, as in every closed complex
        # per cell, its live parents counted with repetition and the sum of their
        # indexes, so the sum names the parent once the count is down to one
        pcount, psum = array("i", X._parent_counts), array("q", bytes(8 * ncells))
        for i in range(ncells):
            for c in flat[s[i] : s[i + 1]]:
                psum[c] += i
        # a free face i waits as one int: highest parent dimension first, then lowest i
        heap = [(D - dims[psum[i]]) * ncells + i for i in range(ncells) if pcount[i] == 1]
        heapq.heapify(heap)
    removed = 0
    while heap:
        i = heapq.heappop(heap) % ncells
        if not alive[i] or pcount[i] != 1:
            continue
        p = psum[i]
        alive[i] = alive[p] = False
        removed += 1
        # both dead cells stop being parents, once per occurrence
        for dead in (p, i):
            for c in flat[s[dead] : s[dead + 1]]:
                if alive[c]:
                    pcount[c] -= 1
                    psum[c] -= dead
                    if pcount[c] == 1:
                        heapq.heappush(heap, (D - dims[psum[c]]) * ncells + c)
    spine = tuple(compress(range(ncells), alive))
    counts = _counts(array("b", compress(dims, alive)))
    return CollapseResult(
        pairs_removed=removed,
        spine_cells=spine,
        raw_dim=X.dimension,
        spine_dim=len(counts) - 1,
        spine_counts=counts,
        spine_euler=_euler(counts),
    )


@dataclass(eq=False)
class LinkComplex:
    """Link of a vertex of a cube complex: h-simplices are corners of (h+1)-cubes."""

    vertex_cell: int
    vertex_ids: Tuple[Tuple[int, int], ...]   # (edge cell index, canonical end corner), ascending
    cells_by_dim: Tuple[Tuple[Tuple[int, ...], ...], ...]  # from dim 1 up; vertex index tuples
    simplicial: bool
    simplicial_reason: Optional[str]
    # the top cubes at the vertex, each with the corners that sit at it
    _tops: Tuple[Tuple[Cube, Tuple[int, ...]], ...] = field(default=(), repr=False)
    _face_poset: Optional[FacePoset] = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @cached_property
    def triangulation(self) -> Optional[Triangulation]:
        """The link as a triangulation, assembled on first read.

        None when the link has no top cubes, is a set of points, or
        some ridge corner is not shared by exactly two top corners.
        """
        if not self._tops:
            return None
        return _link_triangulation(self._face_poset, self._tops)

    def flag(self) -> Tuple[bool, Optional[str]]:
        """Every clique of the 1-skeleton spans a simplex of the link; see `_flag_reason`."""
        if not self.simplicial:
            return False, self.simplicial_reason
        why = _flag_reason(sum(1 << x for x in set(cell)) for cells in self.cells_by_dim for cell in cells)
        return why is None, why


def vertex_links(X: CellComplex) -> Dict[int, LinkComplex]:
    """Links of all 0-cells, keyed by cell index; holds every link at once.

    Requires an all-cube complex.  A link's `triangulation` is assembled
    when first read, and is None unless every ridge corner at the vertex
    is shared by exactly two top corners; the face lists always describe
    the link.  `npc_check` reads the same links one at a time.
    """
    D = X.dimension
    return {v: _link_complex(X, D, v, codes) for v, codes in _codes(X).items()}


def _codes(X: CellComplex) -> Dict[int, array]:
    """Per 0-cell, ascending, the code cube index << D | corner choice of each cube corner at it.

    Cubes of dimension >= 1 come in index order, so in dimension order,
    and corners in `product(*pairs)` order; the choice is the corner's place.
    """
    if not X.all_cubes:
        raise TriangulationError("vertex links need a cube complex (some label has multiplicity > 2)")
    fp = X.face_poset
    table, canon, M, cells, local, shape_of, shapes = fp._table, fp.cls_canon, fp.M, X.cells, X.local, X.shape_of, X.shapes
    D = X.dimension
    at = {i: array("i") for i, d in enumerate(X.dims) if d == 0}
    for i, d in enumerate(X.dims):
        if d >= 1:
            cid = cells[i]
            base = canon[cid] // M * M
            for choice, (mask, _, _) in enumerate(shapes[shape_of[cid]].templates):
                at[local[table[base + mask]]].append(i << D | choice)
    return at


def _link_cells(X: CellComplex, D: int, codes: Sequence[int], number: Dict[int, int]) -> Tuple[List[List[int]], List[int]]:
    """The link of one 0-cell, from its codes: per cube corner, in filing order, its link vertices and their bitmask.

    A link vertex is the edge leaving the corner along one direction, as
    the int edge cell * L + the edge's canonical corner at the vertex;
    `number` numbers these ints as they are met, and a corner's vertices
    are listed by number in direction order, so a d-cube's corner gives a
    (d - 1)-simplex of the link.
    """
    fp = X.face_poset
    table, map_of, perms, canon, M, L = fp._table, fp._map_of, fp._perms, fp.cls_canon, fp.M, fp.L
    cells, local, shape_of, shapes = X.cells, X.local, X.shape_of, X.shapes
    low = (1 << D) - 1
    out, masks = [], []
    for code in codes:
        cid = cells[code >> D]
        base = canon[cid] // M * M
        simplex, mask = [], 0
        for edge, c in shapes[shape_of[cid]].templates[code & low][2]:
            enc = base + edge
            b = number.setdefault(local[table[enc]] * L + perms[map_of[enc]][c], len(number))
            simplex.append(b)
            mask |= 1 << b
        out.append(simplex)
        masks.append(mask)
    return out, masks


def _simplicial_reason(link: List[List[int]], masks: List[int]) -> Optional[str]:
    """Why the link cells, with their vertex masks, are not simplicial, or None.

    Cells come in filing order, so in ascending size, and the first
    failure is at the lowest dimension.
    """
    seen = set()
    for ends, mask in zip(link, masks):
        size = len(ends)
        if size >= 2:
            if mask.bit_count() != size:
                return "a link %d-simplex has a repeated vertex" % (size - 1)
            if mask in seen:
                return "two link %d-simplices share their vertex set" % (size - 1)
            seen.add(mask)
    return None


def _flag_reason(simplices: Iterable[int]) -> Optional[str]:
    """Why a simplicial complex, given by the vertex masks of its simplices of dimension >= 1, is not flag, or None.

    A complex is flag exactly when each of its minimal non-faces is an
    edge.  So the check grows simplices one vertex at a time, starting
    from the edges: each simplex joined with any vertex adjacent to all
    of its vertices, that is a bit of the AND of their adjacency masks,
    must again be a simplex.  Sizes go up one at a time, so the clique
    reported is a smallest one that spans nothing.
    """
    have = set(simplices)
    adj: Dict[int, int] = {}
    edges = []
    for s in have:
        if s.bit_count() == 2:
            a, b = s & -s, s & (s - 1)
            adj[a] = adj.get(a, 0) | b
            adj[b] = adj.get(b, 0) | a
            edges.append(s)
    # each simplex of the current size with the common neighbours of its vertices
    level = {s: adj[s & -s] & adj[s & (s - 1)] for s in edges}
    size = 2
    while level:
        size += 1
        grown = {}
        for sigma, common in level.items():
            rest = common
            while rest:
                w = rest & -rest
                rest ^= w
                tau = sigma | w
                if tau not in have:
                    return "clique of size %d spans no simplex" % size
                grown[tau] = common & adj[w]
        level = grown
    return None


def _link_complex(X: CellComplex, D: int, v: int, codes: Sequence[int]) -> LinkComplex:
    """The link of 0-cell v as a record, its vertices renumbered in ascending order."""
    number: Dict[int, int] = {}
    link, masks = _link_cells(X, D, codes, number)
    vertex_ids = sorted(number)
    rank = [0] * len(number)
    for j, e in enumerate(vertex_ids):
        rank[number[e]] = j
    cells_by_dim: List[List[Tuple[int, ...]]] = [[] for _ in range(max(D - 1, 0))]
    for simplex in link:
        if len(simplex) >= 2:
            cells_by_dim[len(simplex) - 2].append(tuple(rank[b] for b in simplex))
    reason = _simplicial_reason(link, masks)
    tops = []
    if D >= 2:
        # dimension-1 links are vertex pairs with no gluing structure
        for code in codes:
            i = code >> D
            if X.dims[i] == D:
                tops.append((X.cube(i), X.shapes[X.shape_of[X.cells[i]]].templates[code & (1 << D) - 1][1]))
    return LinkComplex(
        vertex_cell=v,
        vertex_ids=tuple(divmod(e, X.face_poset.L) for e in vertex_ids),
        cells_by_dim=tuple(tuple(c) for c in cells_by_dim),
        simplicial=reason is None,
        simplicial_reason=reason,
        _tops=tuple(tops),
        _face_poset=X.face_poset,
    )


def _link_ridges(fp: FacePoset, tops) -> Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int]]]:
    """Per ridge of a link, keyed by its class and the corner's canonical corners, the (top, direction) pairs at it.

    A top's ridge across direction `slot` is the cube's facet across it that holds the corner.
    """
    ridges: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int]]] = {}
    for fi, (cube, corner_face) in enumerate(tops):
        enc = cube.facet * fp.M + sum(1 << c for c in cube.corners)
        for slot, (a, b) in enumerate(cube.pairs):
            ridge = enc ^ 1 << (b if a in corner_face else a)
            phi = fp._perms[fp._map_of[ridge]]
            ridges.setdefault((fp._table[ridge], tuple(sorted(phi[c] for c in corner_face))), []).append((fi, slot))
    return ridges


def _link_triangulation(fp: FacePoset, tops) -> Optional[Triangulation]:
    """The link glued from its top cubes' corners, two at each ridge, or None."""
    L = len(tops[0][0].dirs)
    glu: List[List[Optional[Tuple[int, Tuple[int, ...]]]]] = [[None] * L for _ in tops]
    for hits in _link_ridges(fp, tops).values():
        if len(hits) != 2:
            return None
        # a side's direction `s1` crosses to the other's `s2`; every other direction keeps its label
        for (f1, s1), (f2, s2) in (hits, hits[::-1]):
            pos2 = {l: p for p, l in enumerate(tops[f2][0].dirs)}
            glu[f1][s1] = (f2, tuple(s2 if p == s1 else pos2[l] for p, l in enumerate(tops[f1][0].dirs)))
    if any(x is None for row in glu for x in row):
        return None
    try:
        return Triangulation(L - 1, glu)  # type: ignore[arg-type]
    except TriangulationError:
        return None


@dataclass(eq=False)
class NpcReport:
    ok: bool
    all_cubes: bool
    link_count: int
    failures: Tuple[Tuple[int, str], ...]
    degrees: Tuple[int, ...]   # link vertex count per 0-cell, cell-index order

    def __bool__(self) -> bool:
        return self.ok


_VERDICTS_KEPT = 64  # link encodings whose verdicts npc_check keeps


def npc_check(X: CellComplex) -> NpcReport:
    """Non-positive curvature test: every vertex link simplicial and flag; holds one link at a time.

    Each link's vertices are numbered as they are met, and its simplices
    are bitmasks over that numbering.  Both checks read only this
    encoding, the simplex sizes and masks in filing order, and few
    encodings occur, so the verdicts of the first `_VERDICTS_KEPT`
    distinct encodings are kept and reused.
    """
    if not X.all_cubes:
        return NpcReport(False, False, 0, ((-1, "cells are not all cubes"),), ())
    failures, degrees = [], []
    D = X.dimension
    verdicts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Optional[str]] = {}
    for v, codes in _codes(X).items():
        number: Dict[int, int] = {}
        link, masks = _link_cells(X, D, codes, number)
        degrees.append(len(number))
        key = (tuple(map(len, link)), tuple(masks))
        if key in verdicts:
            why = verdicts[key]
        else:
            why = _simplicial_reason(link, masks) or _flag_reason(masks)
            if len(verdicts) < _VERDICTS_KEPT:
                verdicts[key] = why
        if why:
            failures.append((v, why))
    return NpcReport(
        ok=not failures,
        all_cubes=True,
        link_count=len(degrees),
        failures=tuple(failures),
        degrees=tuple(degrees),
    )


def vertex_link(C: CellComplex, v) -> LinkComplex:
    """Link of one 0-cell, assembled alone; `v` is a cell index or a canonical face key."""
    fp = C.face_poset
    if isinstance(v, str):
        i = C._index(fp.class_of_key(v))
    else:
        i = int(v)
    if not (0 <= i < len(C.cells)) or C.dims[i] != 0:
        raise TriangulationError("cell %r is not a vertex of this complex" % (v,))
    return _link_complex(C, C.dimension, i, _codes(C)[i])


def graph_genus(C: CellComplex) -> int:
    """Rank of the first homology of a connected graph complex."""
    if C.dimension > 1:
        raise TriangulationError("genus is defined for graphs; this complex has dimension %d" % C.dimension)
    if not C.connected():
        raise TriangulationError("genus is defined for connected graphs")
    return 1 - C.euler()

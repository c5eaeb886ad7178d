"""Generalized triangulations given by facet-gluing tables.

A triangulation of dimension n is a finite set of abstract n-simplices
(facets) together with a fixed-point-free pairing of their codimension-1
faces.  The gluing at slot i of facet f records a target facet t and a
corner bijection pi with pi(i) equal to the corner of t opposite the
glued face.  Self-gluings of one facet across two distinct faces are
allowed, so quotient spaces such as the doubled simplex or lens-type
identifications are in scope; a face is never glued to itself.

The gluings are kept in flat tables: slot f*(n+1) + i holds the target
facet in one `array('i')` and the id of the corner map in a second, an
index into the list of distinct corner maps, each kept once.  Rows of
(target, map) pairs are built only when read.

Faces of every dimension are identified by propagating the gluings over
corner subsets: one breadth-first walk per face class writes its id into
a flat table from each (facet, subset) pair to its class id, and the id
of that incarnation's corner map into a second table beside it.  From a
(facet, subset) pair the walk crosses only the slots the subset leaves
free, a tuple computed once per corner mask, and reads each slot's
target, map id and the map's image of the subset straight from the
gluing tables and one image table per distinct map.  Each
class's canonical incarnation, incarnation count and dimension, and each
facet's vertex classes, are flat arrays too.  All derived orderings use
the canonical incarnation of a face class: the lexicographically least
(facet, sorted corner tuple) pair.  A face poset keeps the gluing
tables it walks but not its triangulation, so dropping a triangulation
frees both.

When the identity is the only gluing map, as in every barycentric
subdivision (a balanced triangulation: slot i always meets slot i), no
step moves a corner.  Every incarnation of a class then has one corner
mask, and a class is a component of facets under the slots the mask
leaves free.  The walk runs one corner-mask column at a time, a step
reading one target and one column entry with no image and no map, and
the involution check reads one slot column at a time.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, permutations
from math import factorial
from operator import eq, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gf2
from .perms import compose, identity, invert, sign
from .unionfind import Walk, signed_walk

Gluing = Tuple[int, Tuple[int, ...]]


class TriangulationError(ValueError):
    """Malformed gluing data or an unmet structural precondition."""


def default_ceiling() -> int:
    """Facet budget for size-exploding operators; MULTISECT_CEILING overrides."""
    raw = os.environ.get("MULTISECT_CEILING")
    if raw is not None:
        try:
            ceiling = int(raw)
        except ValueError:
            raise TriangulationError("MULTISECT_CEILING must be an integer, got %r" % raw) from None
        if ceiling <= 0:
            raise TriangulationError("MULTISECT_CEILING must be positive")
        return ceiling
    return 10**8


@dataclass(frozen=True)
class Limits:
    """Resource bounds threaded through the size-exploding operators."""

    facet_ceiling: Optional[int] = None

    def ceiling(self) -> int:
        return self.facet_ceiling if self.facet_ceiling is not None else default_ceiling()


def face_key(facet: int, corners: Sequence[int]) -> str:
    """Render a face as `f:c1.c2...` using its corner list."""
    return "%d:%s" % (facet, ".".join(str(c) for c in corners))


def parse_face_key(text: str) -> Tuple[int, Tuple[int, ...]]:
    try:
        f_part, c_part = text.split(":")
        corners = tuple(int(c) for c in c_part.split("."))
        return int(f_part), corners
    except Exception:
        raise TriangulationError("malformed face key %r, expected f:c1.c2..." % (text,)) from None


class MapIds(dict):
    """Corner maps numbered in order of first lookup; `maps[p]` is the map numbered p."""

    def __init__(self):
        super().__init__()
        self.maps: List[Tuple[int, ...]] = []

    def __missing__(self, pi: Tuple[int, ...]) -> int:
        p = self[pi] = len(self.maps)
        self.maps.append(pi)
        return p


def slot_error(
    L: int, m: int, k0: int, targets: Sequence[int], ids: Sequence[int], maps: Sequence[Tuple[int, ...]], new: int = 0
) -> Optional[str]:
    """The error of the first bad slot among slots k0, k0 + 1, ..., or None.

    `targets[j]` and `maps[ids[j]]` are slot k0 + j's gluing, for whole
    facets from the one whose first slot is k0; m is the facet count.  A
    slot is bad when its target is out of range, its corner map is not a
    bijection, or it glues a face to itself; at one slot the checks rank
    in that order.  Each map is checked once: those numbered below `new`
    were checked before, so the first slot of a map numbered `new` or
    more lies in this run.
    """
    end, error = len(targets), None
    if end and (min(targets) < 0 or max(targets) >= m):
        end = next(j for j, t in enumerate(targets) if not 0 <= t < m)
        error = "facet %d slot %d: target %d out of range" % ((k0 + end) // L, (k0 + end) % L, targets[end])
    ident = list(range(L))
    p = next((p for p in range(new, len(maps)) if sorted(maps[p]) != ident), None)
    if p is not None:
        j = ids.index(p)
        if j < end:
            end, error = j, "facet %d slot %d: corner map %r is not a bijection" % ((k0 + j) // L, j % L, maps[p])
    # before `end` every map is a bijection; a self-gluing needs the slot's own facet as target
    own = range(k0 // L, k0 // L + len(targets) // L)
    glued = (j for i in range(L) for j in compress(range(i, end, L), map(eq, targets[i::L], own)) if maps[ids[j]][i] == i)
    j = min(glued, default=None)
    if j is not None:
        return "facet %d slot %d glued to itself" % ((k0 + j) // L, j % L)
    return error


@dataclass(frozen=True)
class TriSummary:
    """Global invariants of a triangulation."""

    dimension: int
    facet_count: int
    face_counts: Tuple[int, ...]
    euler: int
    connected: bool
    pseudo_manifold: bool
    orientable: bool
    orientation: Optional[Tuple[int, ...]]
    even: bool
    betti: Tuple[int, ...]


class FacePoset:
    """Face classes of a triangulation, grouped and ordered canonically.

    Classes carry their dimension, incarnation count and canonical
    incarnation, each in a flat array indexed by class id.  Class ids are
    assigned by (dimension, canonical key) so that identical inputs always
    produce identical numbering.  `facet_vertices[f * L + c]` is the
    vertex class at corner c of facet f, with L = n + 1 corners a facet.

    Two flat tables, indexed by facet * 2^(n+1) + corner mask, hold every
    incarnation's class id and the id of its corner map into `_perms`,
    the list of distinct corner bijections the walks met, each kept once.

    The build takes one of two walks, which meet the classes in the same
    order.  When some gluing map moves corners, `_walk_maps` crosses
    slots from (facet, mask) pairs, carrying each incarnation's mask
    image and corner map; it holds nothing per gluing slot beyond the
    triangulation's own tables, one tuple of free slots per corner mask
    and one image table per distinct gluing map.  When the identity is
    the only map, a step keeps its mask and map, so `_walk_columns`
    needs neither: it walks facets in one column of class ids per
    corner mask, holding the columns of one mask size at a time.
    """

    def __init__(self, tri: "Triangulation"):
        n = tri.dimension
        L = n + 1
        M = 1 << L
        m = tri.facet_count
        self.L = L
        self.M = M
        self.facet_count = m
        self._targets, self._map_ids = tri.targets, tri.map_ids  # `incarnations` walks them

        corners_of = [tuple(c for c in range(L) if mask >> c & 1) for mask in range(M)]
        self._corners_of = corners_of
        # the image of every corner mask across a corner map, one table per map id
        self._images = [tuple(sum(1 << pi[c] for c in cs) for cs in corners_of) for pi in tri.maps]
        # the slots left free by each corner mask: a walk crosses only those
        free = [tuple(i for i in range(L) if not mask >> i & 1) for mask in range(M)]
        # Visiting masks by (size, facet, corner tuple) meets each class first
        # at its canonical incarnation, so ids come out in canonical order.
        by_corners = sorted(range(1, M), key=corners_of.__getitem__)
        by_size = [[mask for mask in by_corners if len(corners_of[mask]) == size] for size in range(1, L + 1)]
        self._table = table = array("i", [-1]) * (m * M)
        self.cls_canon = array("i")
        self.cls_count = array("i")
        self.cls_dim = array("b")
        self.dim_start = [0]
        if any(pi != identity(L) for pi in tri.maps):
            self._walk_maps(tri, by_size, free)
        else:
            self._walk_columns(tri, by_size, free)
        self.facet_vertices = array("i", [0]) * (m * L)
        for c in range(L):
            self.facet_vertices[c::L] = table[1 << c :: M]

    def _walk_maps(self, tri: "Triangulation", by_size: List[List[int]], free: List[Tuple[int, ...]]) -> None:
        """Every class by one breadth-first walk across the gluings, slots ascending, from its canonical incarnation.

        The walk writes the class id into every incarnation, and carries
        each incarnation's corner map: the bijection from its facet's
        corners to the canonical incarnation's, kept once in `_perms` and
        referred to by id.  Crossing gluing pi from a node with map p
        reaches a node with map p∘pi⁻¹; each distinct gluing map keeps the
        ids it has sent, p -> id of p∘pi⁻¹.
        """
        L, M, m, table, images = self.L, self.M, self.facet_count, self._table, self._images
        targets, ids = tri.targets, tri.map_ids
        perms: List[Tuple[int, ...]] = [identity(L)]
        perm_id = {perms[0]: 0}
        steps = [({}, invert(pi)) for pi in tri.maps]
        n_maps = min(factorial(L), m * M)
        map_of = array("B" if n_maps <= 1 << 8 else "H" if n_maps <= 1 << 16 else "i", [0]) * (m * M)
        canon, count, dim = self.cls_canon, self.cls_count, self.cls_dim
        for size, masks in enumerate(by_size, 1):
            for base in range(0, m * M, M):
                for mask in masks:
                    if table[base + mask] >= 0:
                        continue
                    cid = len(canon)
                    table[base + mask] = cid
                    walk = [base + mask]  # its map is the identity, id 0, as the table starts
                    for enc in walk:
                        f, sub = divmod(enc, M)
                        k0 = f * L
                        for i in free[sub]:
                            k = k0 + i
                            enc2 = targets[k] * M + images[ids[k]][sub]
                            if table[enc2] < 0:
                                table[enc2] = cid
                                walk.append(enc2)
                                sent, pi_inv = steps[ids[k]]
                                q = map_of[enc]
                                r = sent.get(q)
                                if r is None:
                                    phi = compose(perms[q], pi_inv)
                                    r = sent[q] = perm_id.setdefault(phi, len(perms))
                                    if r == len(perms):
                                        perms.append(phi)
                                map_of[enc2] = r
                    canon.append(base + mask)
                    count.append(len(walk))
                    dim.append(size - 1)
            self.dim_start.append(len(canon))
        self._map_of = map_of
        self._perms = perms

    def _walk_columns(self, tri: "Triangulation", by_size: List[List[int]], free: List[Tuple[int, ...]]) -> None:
        """Every class of an identity-glued triangulation, one corner-mask column at a time.

        Slot i of a facet is glued to slot i of its target, so every
        incarnation of a class has the canonical incarnation's corner mask,
        and a class is a component of facets under the slots its mask leaves
        free.  Each mask of one size gets a column of class ids, one per
        facet, and the tuple of its free slots' target columns; a class's
        walk reads a target and a column entry per step, with no mask
        arithmetic and no map.  Facets ascending, then masks in canonical
        order, is the general walk's visit order, so the ids are the same.
        A size's columns go into the table when the size is done.  Every
        corner map is the identity: the map table stays zero.
        """
        L, M, m, table = self.L, self.M, self.facet_count, self._table
        tg = [tri.targets[i::L] for i in range(L)]
        canon, count = self.cls_canon, self.cls_count
        for size, masks in enumerate(by_size, 1):
            cols = [[-1] * m for _ in masks]
            work = [(mask, col, tuple(tg[i] for i in free[mask])) for mask, col in zip(masks, cols)]
            cid = len(canon)
            for f in range(m):
                for mask, col, frees in work:
                    if col[f] < 0:
                        col[f] = cid
                        walk = [f]
                        for g in walk:
                            for t_col in frees:
                                t = t_col[g]
                                if col[t] < 0:
                                    col[t] = cid
                                    walk.append(t)
                        canon.append(f * M + mask)
                        count.append(len(walk))
                        cid += 1
            self.cls_dim.extend([size - 1] * (cid - self.dim_start[-1]))
            self.dim_start.append(cid)
            for mask, col in zip(masks, cols):
                table[mask::M] = array("i", col)
            del cols, work  # before the next size's columns are made
        self._map_of = array("B", [0]) * (m * M)
        self._perms = [identity(L)]

    @property
    def n_classes(self) -> int:
        return len(self.cls_canon)

    def counts(self) -> Tuple[int, ...]:
        ds = self.dim_start
        return tuple(ds[d + 1] - ds[d] for d in range(self.L))

    def class_ids_of_dim(self, d: int) -> range:
        return range(self.dim_start[d], self.dim_start[d + 1])

    def _encode(self, facet: int, corners: Iterable[int]) -> int:
        """The (facet, corner mask) pair as one int; corners may repeat."""
        mask = 0
        for c in corners:
            mask |= 1 << c
        if not mask:
            raise TriangulationError("a face needs at least one corner")
        return facet * self.M + mask

    def class_of(self, facet: int, corners: Iterable[int]) -> int:
        return self._table[self._encode(facet, corners)]

    def canonical(self, cid: int) -> Tuple[int, Tuple[int, ...]]:
        f, mask = divmod(self.cls_canon[cid], self.M)
        return f, self._corners_of[mask]

    def key(self, cid: int) -> str:
        f, corners = self.canonical(cid)
        return face_key(f, corners)

    def _check_face(self, facet: int, corners: Sequence[int], name: str) -> None:
        """Raise TriangulationError, naming the face `name`, unless it lies in the table."""
        if not (0 <= facet < self.facet_count):
            raise TriangulationError("%s: facet out of range" % name)
        if not corners or any(not 0 <= c < self.L for c in corners):
            raise TriangulationError("%s: corner out of range" % name)
        if len(set(corners)) != len(corners):
            raise TriangulationError("%s: repeated corner" % name)

    def class_of_key(self, text: str) -> int:
        f, corners = parse_face_key(text)
        self._check_face(f, corners, "face key %r" % (text,))
        return self.class_of(f, corners)

    def children(self, cid: int) -> Tuple[int, ...]:
        """Boundary face classes, one per deleted corner, repeats kept; read with that corner's bit cleared."""
        enc = self.cls_canon[cid]
        corners = self._corners_of[enc % self.M]
        if len(corners) == 1:
            return ()
        return tuple([self._table[enc ^ (1 << c)] for c in corners])

    def incarnations(self, cid: int) -> List[int]:
        """All (facet, subset) incarnations of the class, as encoded ints.

        Enumerated by a breadth-first walk through the gluings from the
        canonical incarnation, slots ascending, so the order is reproducible.
        """
        L, M, images, targets, ids = self.L, self.M, self._images, self._targets, self._map_ids
        walk = [self.cls_canon[cid]]
        seen = set(walk)
        for enc in walk:
            f, mask = divmod(enc, M)
            for i in range(L):
                if not mask >> i & 1:
                    k = f * L + i
                    enc2 = targets[k] * M + images[ids[k]][mask]
                    if enc2 not in seen:
                        seen.add(enc2)
                        walk.append(enc2)
        return walk


class Triangulation:
    """A closed generalized triangulation.

    Args:
        dimension: n >= 1.
        gluings: per facet, per slot i, a pair (target facet, corner
            bijection) describing how the face opposite corner i is glued.
        vertex_ids: optional per-facet corner vertex identifiers; present
            for complexes built from vertex tuples.
        extras: free-form metadata: a cover's deck involution, or its
            sheets and degree.  Never consulted by structural operations.

    The gluings are kept as three tables: `targets[f * (n+1) + i]` is the
    facet glued at slot i of facet f, and `maps[map_ids[f * (n+1) + i]]`
    the corner bijection, each distinct map kept once as one tuple and
    numbered in order of first appearance.  `gluing(f, i)` reads one
    slot; `gluings` builds every row.
    """

    def __init__(
        self,
        dimension: int,
        gluings: Sequence[Sequence[Gluing]],
        vertex_ids: Optional[Sequence[Sequence[int]]] = None,
        extras: Optional[dict] = None,
    ):
        if dimension < 1:
            raise TriangulationError("dimension must be at least 1, got %d" % dimension)
        L = dimension + 1
        m = len(gluings)
        if m == 0:
            raise TriangulationError("a triangulation needs at least one facet")
        # the rows before the first of the wrong length go to the tables and are checked first
        short = next((f for f, row in enumerate(gluings) if len(row) != L), m)

        def slots() -> Iterator[Gluing]:
            return chain.from_iterable(islice(gluings, short))

        try:
            targets = array("i", map(itemgetter(0), slots()))
        except OverflowError:  # a target past 32 bits, which `slot_error` reports
            targets = list(map(itemgetter(0), slots()))
        map_id = MapIds()
        ids = array("i", map(map_id.__getitem__, map(tuple, map(itemgetter(1), slots()))))
        error = slot_error(L, m, 0, targets, ids, map_id.maps)
        if error is None and short < m:
            error = "facet %d has %d slots, expected %d" % (short, len(gluings[short]), L)
        if error is not None:
            raise TriangulationError(error)
        self._adopt(dimension, targets, ids, map_id.maps, vertex_ids, extras)

    @classmethod
    def _from_tables(cls, dimension: int, targets: array, map_ids: array, maps: List[Tuple[int, ...]], extras=None):
        """From tables an operator filled with valid slots, as the row constructor checks them; checks the involution."""
        T = cls.__new__(cls)
        T._adopt(dimension, targets, map_ids, maps, None, extras)
        return T

    def _adopt(self, dimension, targets, map_ids, maps, vertex_ids, extras) -> None:
        L = dimension + 1
        self.dimension, self.facet_count = dimension, len(targets) // L
        self.targets, self.map_ids, self.maps = targets, map_ids, maps
        # With the identity the only map, slot i glues to slot i: each slot
        # column of targets must be an involution of the facets.  Otherwise,
        # or to name the first bad slot, check slot by slot.
        columns_hold = False
        if maps == [identity(L)]:
            facets = list(range(self.facet_count))
            columns_hold = all([col[t] for t in col] == facets for col in (targets[i::L] for i in range(L)))
        if not columns_hold:
            # the id of each map's inverse, or -1 when no slot carries it
            map_id = {pi: p for p, pi in enumerate(maps)}
            inverse = [map_id.get(invert(pi), -1) for pi in maps]
            for k, (t, p) in enumerate(zip(targets, map_ids)):
                j = maps[p][k % L]
                if targets[t * L + j] != k // L or map_ids[t * L + j] != inverse[p]:
                    raise TriangulationError(
                        "gluing involution broken between facet %d slot %d and facet %d slot %d"
                        % (k // L, k % L, t, j)
                    )
        if vertex_ids is not None:
            vertex_ids = tuple(tuple(v) for v in vertex_ids)
            if len(vertex_ids) != self.facet_count or any(len(v) != L for v in vertex_ids):
                raise TriangulationError("vertex id table shape does not match facets")
        self.vertex_ids = vertex_ids
        self.extras = dict(extras) if extras else {}
        self._labelling = None  # cells.labelling's record of the latest labels read

    # -- construction ---------------------------------------------------

    @classmethod
    def from_vertex_facets(cls, dimension: int, facets: Sequence[Sequence[int]]) -> "Triangulation":
        """Build a triangulation from per-facet vertex tuples.

        Gluings are inferred by matching codimension-1 vertex sets; every
        such set must occur in exactly two facet slots.
        """
        L = dimension + 1
        vid: List[Tuple[int, ...]] = []
        for f, vs in enumerate(facets):
            vs = tuple(vs)
            if len(vs) != L:
                raise TriangulationError("facet %d has %d vertices, expected %d" % (f, len(vs), L))
            if len(set(vs)) != L:
                raise TriangulationError("facet %d repeats a vertex id" % f)
            vid.append(vs)
        ridge_slots: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        mixed = len({type(v) for vs in vid for v in vs}) > 1  # ids of numbers and names: numbers sort first
        order = (lambda v: (isinstance(v, str), v)) if mixed else None
        for f, vs in enumerate(vid):
            for i in range(L):
                key = tuple(sorted(vs[:i] + vs[i + 1 :], key=order))
                ridge_slots.setdefault(key, []).append((f, i))
        gluings: List[List[Optional[Gluing]]] = [[None] * L for _ in vid]
        by_key = (lambda kv: tuple(map(order, kv[0]))) if mixed else None
        for key, slots in sorted(ridge_slots.items(), key=by_key):
            if len(slots) != 2:
                raise TriangulationError(
                    "codimension-1 face %s lies in %d facet slots, expected 2" % (key, len(slots))
                )
            (f, i), (t, j) = slots
            pos_t = {v: c for c, v in enumerate(vid[t])}
            pi = tuple(j if c == i else pos_t[v] for c, v in enumerate(vid[f]))
            gluings[f][i] = (t, pi)
            gluings[t][j] = (f, invert(pi))
        return cls(dimension, gluings, vertex_ids=vid)

    # -- basic data -----------------------------------------------------

    def gluing(self, facet: int, slot: int) -> Gluing:
        """(target facet, corner map) at one slot."""
        k = facet * (self.dimension + 1) + slot
        return self.targets[k], self.maps[self.map_ids[k]]

    @property
    def gluings(self) -> Tuple[Tuple[Gluing, ...], ...]:
        """Per facet, per slot, (target facet, corner map); built from the tables on each read."""
        L, targets, ids, maps = self.dimension + 1, self.targets, self.map_ids, self.maps
        return tuple(tuple((targets[k], maps[ids[k]]) for k in range(b, b + L)) for b in range(0, len(targets), L))

    def vertex_key(self, v: int) -> str:
        """Vertex class v as a stream names it: by its identifier when there are vertex ids, else by face key."""
        fp = self.face_poset
        if self.vertex_ids is not None:
            f, corners = fp.canonical(v)
            return str(self.vertex_ids[f][corners[0]])
        return fp.key(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.dimension == other.dimension
            and self.gluings == other.gluings
            and self.vertex_ids == other.vertex_ids
        )

    def __repr__(self) -> str:
        return "Triangulation(dim=%d, facets=%d)" % (self.dimension, self.facet_count)

    @cached_property
    def face_poset(self) -> FacePoset:
        return FacePoset(self)

    # -- invariants -----------------------------------------------------

    def _facet_walk(self, oriented: bool = False) -> Walk:
        """The facets walked across their gluings; without `oriented` all relation bits are 0.

        With it, a gluing with corner map pi relates orientation signs by
        eps_t = -sign(pi) * eps_f: a slot's bit is 1 when sign(pi) is 1.
        """
        m, L = self.facet_count, self.dimension + 1
        if oriented:
            flip = [sign(pi) == 1 for pi in self.maps]
            rel = bytes(map(flip.__getitem__, self.map_ids))
        else:
            rel = bytes(len(self.targets))
        return signed_walk(m, range(0, m * L + 1, L), self.targets, rel)

    def connected(self) -> bool:
        return len(self._facet_walk().closed) == 1

    def euler(self) -> int:
        """Alternating sum of the face-class counts."""
        return sum(c if d % 2 == 0 else -c for d, c in enumerate(self.face_poset.counts()))

    def boundary_columns(self, d: int) -> Iterator[int]:
        """The GF(2) boundary map C_d -> C_{d-1}: per d-face class, the bits of its (d-1)-faces.

        Yields one column at a time, so an elimination holds only its basis.
        Bit j of a column stands for face class dim_start[d-1] + j.
        There are no columns above the top dimension.
        """
        if d > self.dimension:
            return
        fp = self.face_poset
        table, start, low = fp._table, fp.dim_start[d - 1], fp.M - 1
        # a class's faces are read at its canonical entry with one corner bit cleared
        bits = [tuple(1 << c for c in cs) if d else () for cs in fp._corners_of]
        for enc in fp.cls_canon[fp.dim_start[d] : fp.dim_start[d + 1]]:
            col = 0
            for bit in bits[enc & low]:
                col ^= 1 << (table[enc ^ bit] - start)
            yield col

    def summary(self) -> TriSummary:
        """Face census plus connectivity, orientability, parity and homology.

        One signed walk of the facets gives the components and, with the
        corner maps' signs as relation bits, the orientation: side 0 is +1.
        The outer boundary ranks are read off the facet components, which
        are the components of the 1-skeleton too: rank ∂_1 is the vertex
        classes minus the components.  Every ridge class has exactly two
        incarnations, so an n-chain is a cycle exactly when it is constant
        on each component, and rank ∂_n is the facets minus the components.
        The dimensions between are eliminated, and their bases can grow
        with the square of the face count.
        """
        fp = self.face_poset
        n = self.dimension
        counts = fp.counts()
        walk = self._facet_walk(oriented=True)
        components = len(walk.closed)
        pseudo = all(fp.cls_count[cid] == 2 for cid in fp.class_ids_of_dim(n - 1))
        even = True
        if n >= 2:
            even = all(fp.cls_count[cid] % 2 == 0 for cid in fp.class_ids_of_dim(n - 2))
        orientation = tuple(1 - 2 * s for s in walk.side) if walk.consistent else None
        return TriSummary(
            dimension=n,
            facet_count=self.facet_count,
            face_counts=counts,
            euler=self.euler(),
            connected=components == 1,
            pseudo_manifold=pseudo,
            orientable=orientation is not None,
            orientation=orientation,
            even=even,
            betti=gf2.betti(counts, self.boundary_columns, {1: counts[0] - components, n: self.facet_count - components}),
        )

    # -- links ----------------------------------------------------------

    def link(self, face) -> Tuple["Triangulation", List[Tuple[int, Tuple[int, ...]]]]:
        """Link of a face class as a triangulation of dimension n - d - 1.

        Args:
            face: a face key string, a (facet, corners) pair, or a class id.

        Returns:
            The link triangulation together with the list of star
            incarnations (facet, corner tuple), aligned with its facets.
        """
        fp = self.face_poset
        if isinstance(face, str):
            cid = fp.class_of_key(face)
        elif isinstance(face, int):
            if not 0 <= face < fp.n_classes:
                raise TriangulationError("face class %d out of range 0..%d" % (face, fp.n_classes - 1))
            cid = face
        else:
            f, corners = face
            corners = tuple(corners)
            fp._check_face(f, corners, "face %r" % ((f, corners),))
            cid = fp.class_of(f, corners)
        d = fp.cls_dim[cid]
        if d >= self.dimension:
            raise TriangulationError("link of a top-dimensional face is empty")
        L, M = fp.L, fp.M
        encs = fp.incarnations(cid)
        index = {enc: i for i, enc in enumerate(encs)}
        star, link_glu = [], []
        for enc in encs:
            f, mask = divmod(enc, M)
            star.append((f, fp._corners_of[mask]))
            rest = [c for c in range(L) if not mask >> c & 1]
            row = []
            for j in rest:
                t, pi = self.gluing(f, j)
                img = fp._images[self.map_ids[f * L + j]][mask]
                pos_t = {c: p for p, c in enumerate(c for c in range(L) if not img >> c & 1)}
                row.append((index[t * M + img], tuple(pos_t[pi[c]] for c in rest)))
            link_glu.append(row)
        return Triangulation(self.dimension - d - 1, link_glu), star

    # -- covers ---------------------------------------------------------

    def orientation_double_cover(self) -> "Triangulation":
        """Two sheets per facet, glued so the result carries an orientation.

        Facet f appears as f (positive sheet) and f + m (negative sheet);
        the deck involution swaps them and is recorded in extras.
        """
        m = self.facet_count
        signs = [sign(pi) for pi in self.maps]
        # a slot of sheet s reaches the positive sheet when -s * sign(pi) is 1
        targets = array("i", [t if -s * signs[p] == 1 else t + m for s in (1, -1) for t, p in zip(self.targets, self.map_ids)])
        deck = tuple(list(range(m, 2 * m)) + list(range(m)))
        return Triangulation._from_tables(self.dimension, targets, self.map_ids * 2, self.maps, {"deck_involution": deck})

    # -- isomorphism ----------------------------------------------------

    def _components(self) -> List[List[int]]:
        """Facets grouped by connected component, each group in ascending order."""
        walk = self._facet_walk()
        comps: List[List[int]] = [[] for _ in walk.closed]
        for f, k in enumerate(walk.component):
            comps[k].append(f)
        return comps

    def _component_rep(self, f0: int, rho0: Tuple[int, ...]) -> Iterator[Tuple]:
        """Rows of the component of f0, relabelled by a walk from the start flag (f0, rho0).

        Facets are numbered in breadth-first order from f0, whose corner c
        becomes corner rho0[c]; a newly reached facet takes the corner
        relabelling that makes its gluing to the facet that reached it
        the identity.  Row k lists, per relabelled slot, the number of
        the target facet followed by the relabelled corner map.  Rows
        are yielded one at a time, so a caller comparing against known
        rows can stop at the first that differs.
        """
        L = self.dimension + 1
        index = {f0: 0}
        order = [f0]
        relab = {f0: rho0}
        qi = 0
        while qi < len(order):
            f = order[qi]
            rho = relab[f]
            rho_inv = invert(rho)
            row = []
            for s in range(L):
                i = rho_inv[s]
                t, pi = self.gluing(f, i)
                rho_t = compose(rho, invert(pi))
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
                    relab[t] = rho_t
                new_pi = compose(relab[t], compose(pi, rho_inv))
                row.append((index[t],) + new_pi)
            yield tuple(row)
            qi += 1

    def isomorphic_to(self, other: "Triangulation") -> bool:
        """True when some facet bijection with corner bijections carries these gluings onto other's.

        A rooted matcher: each component of self is walked once from its
        least facet with identity corners, and matches an unmatched
        component of other of the same size when some start flag there
        yields exactly those rows.  Each walk in other stops at the first
        row that differs.  Matching components greedily is sound because
        isomorphism of components is an equivalence relation.

        There is no work cap.  A walk that fails usually stops within a
        few rows; only near-isomorphic components, whose walks agree on
        long prefixes from many starts, approach m*(n+1)! walks of m rows
        each.
        """
        if self.dimension != other.dimension or self.facet_count != other.facet_count:
            return False
        mine = self._components()
        theirs = other._components()
        if sorted(map(len, mine)) != sorted(map(len, theirs)):
            return False
        starts = list(permutations(range(self.dimension + 1)))
        for facets in mine:
            rows = list(self._component_rep(facets[0], starts[0]))
            for k, cand in enumerate(theirs):
                # a walk covers its whole component, so on equal sizes zip
                # compares every row of both
                if len(cand) == len(rows) and any(
                    all(a == b for a, b in zip(rows, other._component_rep(g0, rho0)))
                    for g0 in cand
                    for rho0 in starts
                ):
                    del theirs[k]
                    break
            else:
                return False
        return True

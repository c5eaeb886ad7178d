"""Subdivision and composition operators on triangulations.

Each operator states once which old corner every new corner comes from,
and that one rule drives its gluings, labels and rows:

- Barycentric subdivision works on flags: a facet of the output is a
  pair (facet, permutation rho) encoding a maximal chain of faces, and
  corner j of that flag is the barycentre of the face on rho[:j+1], a
  j-face.  Every gluing then has the identity corner map, internal
  neighbours differ by one adjacent transposition, the external
  neighbour across the top barycentre composes the ambient corner map
  onto the flag, and the carriers are read off the corner slots.
- The 2-n move keeps, for each new facet, the old corner at each new
  corner, and one cover table says which new facet and slot cover each
  old codimension-1 face.  External slots follow the old gluing to the
  cover on the other side, internal slots go to the fan facet without
  that corner, and labels follow the same rows.
- A stellar cone puts the new vertex at corner i of cone piece i and
  keeps the facet's other corners, in gluings and vertex ids alike.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .partition import VertexPartition, coordinate_labels
from .triangulation import Limits, Triangulation, TriangulationError
from .perms import compose, invert
from .unionfind import signed_colouring


@dataclass(frozen=True)
class CarrierLabels:
    """Carrier dimension of each vertex class of a flag subdivision.

    dims[v] is the dimension of the input face whose barycentre became
    vertex class v, which is also the corner slot v takes in every
    incarnation.
    """

    dims: Tuple[int, ...]


def barycentric(T: Triangulation, limits: Limits = Limits()) -> Tuple[Triangulation, CarrierLabels]:
    """First barycentric subdivision with carrier labels.

    Returns (n+1)! flags per input facet, and the carriers `slot_carriers`
    reads off their corner slots.  Raises if the output would exceed the
    facet ceiling.
    """
    out = _flag_subdivision(T, limits)
    return out, slot_carriers(out)


def _flag_subdivision(T: Triangulation, limits: Limits) -> Triangulation:
    """`barycentric`'s triangulation alone: its gluing tables, with no face poset built."""
    n = T.dimension
    L = n + 1
    perms = list(permutations(range(L)))
    P = len(perms)
    m2 = T.facet_count * P
    if m2 > limits.ceiling():
        raise TriangulationError(
            "barycentric subdivision would produce %d facets, over the ceiling %d" % (m2, limits.ceiling())
        )
    pindex = {p: i for i, p in enumerate(perms)}
    # internal neighbours: flag j's neighbour across corner j < n swaps places j and j + 1
    swaps = [[pindex[rho[:j] + (rho[j + 1], rho[j]) + rho[j + 2 :]] for j in range(n)] for rho in perms]
    targets = array("i")
    for f in range(T.facet_count):
        base = f * P
        for rho, swapped in zip(perms, swaps):
            targets.extend([base + q for q in swapped])
            t, sigma = T.gluing(f, rho[n])
            targets.append(t * P + pindex[compose(sigma, rho)])
    # every gluing of a flag subdivision has the identity corner map
    return Triangulation._from_tables(n, targets, array("B", bytes(len(targets))), [tuple(range(L))])


def pachner_2n_pass(T: Triangulation, part: VertexPartition) -> Tuple[Triangulation, VertexPartition]:
    """Replace every matched double simplex by n facets around a fresh edge.

    Precondition (even dimension n >= 4, last class singleton): every
    facet has exactly one codimension-1 face avoiding the last partition
    class, and these faces pair the facets perfectly.  Each pair is
    replaced by n facets sharing the edge spanned by the two last-class
    vertices, so in the output every facet has two last-class vertices.
    Pairs are numbered by their first facet, and the fan facets of a pair
    by the ridge corner they omit.
    """
    n = T.dimension
    if n < 4 or n % 2 != 0:
        raise TriangulationError("the 2-n pass needs an even dimension of at least 4, got %d" % n)
    k = n // 2
    fp = T.face_poset
    if len(part.labels) != fp.dim_start[1]:
        raise TriangulationError("partition does not fit this triangulation's vertex classes")
    labels = part.labels
    m = T.facet_count
    L = n + 1

    special = []
    for f in range(m):
        ks = [c for c in range(L) if labels[fp.facet_vertices[f * L + c]] == k]
        if len(ks) != 1:
            raise TriangulationError(
                "facet %d has %d corners in the last class, so it has no unique face avoiding it"
                % (f, len(ks))
            )
        special.append(ks[0])
    # the facet across special[f] meets f in a face without last-class vertices, so its own special slot glues back
    partner = [T.gluing(f, special[f])[0] for f in range(m)]

    # Fan facet u of the pair (g0, g1) has g0's last-class corner a at corner 0, g1's at
    # corner 1, and g0's other ridge corners but u at 2..n.  origins[F][s] is (member s,
    # its corner at each new corner, the ridge corner it lacks); member s has no corner at
    # 1 - s, where its row repeats its apex.  cover[g, c] is the new facet and slot covering
    # old face (g, opposite c), with the new corner of each old corner on it.
    origins: List[Tuple[Tuple[int, List[int], int], ...]] = []
    cover: Dict[Tuple[int, int], Tuple[int, int, Dict[int, int]]] = {}
    for g0, g1 in enumerate(partner):
        if g1 < g0:
            continue
        a = special[g0]
        pi = T.gluing(g0, a)[1]
        ridge = [c for c in range(L) if c != a]
        for u in ridge:
            old = [a, a] + [c for c in ridge if c != u]
            members = ((g0, old, u), (g1, [pi[c] for c in old], pi[u]))
            for s, (g, corners, lacks) in enumerate(members):
                cover[g, lacks] = (len(origins), 1 - s, {c: x for x, c in enumerate(corners) if x != 1 - s})
            origins.append(members)

    glu: List[List[Optional[Tuple[int, Tuple[int, ...]]]]] = []
    for members in origins:
        g0, old, u = members[0]
        row: List[Optional[Tuple[int, Tuple[int, ...]]]] = [None] * L
        # internal: the slot at ridge corner old[x] is shared with the fan facet without it, which has u there
        for x in range(2, L):
            F2, _, into = cover[g0, old[x]]
            row[x] = (F2, (0, 1) + tuple(into[u if y == x else old[y]] for y in range(2, L)))
        # external: member s's old face without its lacking corner follows the old gluing to the cover there
        for s, (g, corners, lacks) in enumerate(members):
            t, nu = T.gluing(g, lacks)
            F2, slot, into = cover[t, nu[lacks]]
            row[1 - s] = (F2, tuple(slot if x == 1 - s else into[nu[c]] for x, c in enumerate(corners)))
        glu.append(row)
    out = Triangulation(n, glu)  # type: ignore[arg-type]

    # each output gluing keeps a corner's old vertex class, so new classes refine old ones and labels agree
    fv_out = out.face_poset.facet_vertices
    new_labels = [0] * out.face_poset.dim_start[1]
    for F, members in enumerate(origins):
        for x in range(L):
            g, corners, _ = members[1 if x == 1 else 0]
            new_labels[fv_out[F * L + x]] = labels[fp.facet_vertices[g * L + corners[x]]]
    out_part = VertexPartition(k=part.k, labels=tuple(new_labels), scheme=part.scheme)
    return out, out_part


def stellar_facet(T: Triangulation, facet: int) -> Triangulation:
    """Cone one facet from an interior point: 1 -> n+1 move.

    The replaced facet keeps its index for the cone piece opposite the
    old corner 0; the other n cone pieces are appended at the end.
    """
    n = T.dimension
    L = n + 1
    m = T.facet_count
    if not 0 <= facet < m:
        raise TriangulationError("facet %d out of range" % facet)

    def sid(i: int) -> int:
        return facet if i == 0 else m + i - 1

    glu_out: List[List[Tuple[int, Tuple[int, ...]]]] = [list(row) for row in T.gluings]
    cone = []
    for i in range(L):
        # piece i meets piece j across the face without corner j; the new vertex moves from corner i to j
        row = [(sid(j), tuple(j if c == i else i if c == j else c for c in range(L))) for j in range(L)]
        # and the old neighbour across the face without corner i
        t, pi = T.gluing(facet, i)
        row[i] = (sid(pi[i]) if t == facet else t, pi)
        if t != facet:
            glu_out[t][pi[i]] = (sid(i), invert(pi))
        cone.append(row)
    glu_out[facet] = cone[0]
    glu_out.extend(cone[1:])

    vertex_ids = None
    if T.vertex_ids is not None:
        vertex_ids = _cone_rows(T.vertex_ids, facet, _fresh_id(T.vertex_ids))
    return Triangulation(n, glu_out, vertex_ids=vertex_ids)


def _cone_rows(rows: Sequence[Sequence], facet: int, value) -> List[tuple]:
    """Per-facet rows after coning `facet`: cone piece i has `value` at corner i.

    Piece 0 keeps the facet's place; pieces 1..n are appended.
    """
    out = [tuple(r) for r in rows]
    base = out[facet]
    cone = [base[:i] + (value,) + base[i + 1 :] for i in range(len(base))]
    out[facet] = cone[0]
    return out + cone[1:]


def _fresh_id(vertex_ids: Sequence[Sequence]) -> int:
    """The least integer above every integer vertex id; 0 when no id is an integer."""
    return max((v for vs in vertex_ids for v in vs if isinstance(v, int)), default=-1) + 1


def join(A: Triangulation, B: Triangulation, limits: Limits = Limits()) -> Triangulation:
    """Simplicial join of two vertex-format triangulations.

    Every pair of facets spans a facet of dimension dim A + dim B + 1 on
    the disjoint union of the vertex sets; gluings are re-inferred from
    the vertex tuples.
    """
    if A.vertex_ids is None or B.vertex_ids is None:
        raise TriangulationError("join needs vertex-format inputs on both sides")
    n = A.dimension + B.dimension + 1
    m = A.facet_count * B.facet_count
    if m > limits.ceiling():
        raise TriangulationError("join would produce %d facets, over the ceiling %d" % (m, limits.ceiling()))
    # B's numbers shift above A's; B's names become further fresh numbers, in order of appearance
    offset = _fresh_id(A.vertex_ids)
    fresh = offset + max(0, _fresh_id(B.vertex_ids))
    names: Dict[str, int] = {}
    for x in (x for vb in B.vertex_ids for x in vb if isinstance(x, str)):
        names.setdefault(x, fresh + len(names))
    facets = []
    for va in A.vertex_ids:
        for vb in B.vertex_ids:
            facets.append(tuple(va) + tuple(names[x] if isinstance(x, str) else x + offset for x in vb))
    return Triangulation.from_vertex_facets(n, facets)


def slot_carriers(T: Triangulation) -> CarrierLabels:
    """Carrier dimensions read off corner slots by `coordinate_labels`.

    Flag subdivisions place every barycentre at the slot equal to its
    carrier dimension, in each incarnation; raises when the input does
    not have that shape.
    """
    return CarrierLabels(dims=coordinate_labels(T))


def infer_sides(T: Triangulation, carriers: CarrierLabels) -> Dict[int, int]:
    """Deterministic 0/1 sides for top-carrier vertex classes.

    Each codimension-1 barycentre is joined to exactly two facet
    barycentres; 2-colouring that adjacency recovers the dual
    bipartition of the subdivided triangulation.
    """
    n = T.dimension
    fp = T.face_poset
    dims = carriers.dims
    tops = sorted(v for v in range(len(dims)) if dims[v] == n)
    hinge: Dict[int, set] = {}
    for eid in fp.class_ids_of_dim(1):
        a, b = fp.children(eid)
        if dims[a] > dims[b]:
            a, b = b, a
        if (dims[a], dims[b]) == (n - 1, n):
            hinge.setdefault(a, set()).add(b)
    adj: Dict[int, set] = {v: set() for v in tops}
    for w, ts in sorted(hinge.items()):
        if len(ts) == 1:
            raise TriangulationError(
                "facet adjacency has a loop at %s; sides are not 2-colorable" % fp.key(w)
            )
        if len(ts) != 2:
            raise TriangulationError(
                "codimension-1 barycentre %s meets %d facet barycentres" % (fp.key(w), len(ts))
            )
        x, y = sorted(ts)
        adj[x].add((y, -1))
        adj[y].add((x, -1))
    sign = signed_colouring(tops, adj)
    if sign is None:
        raise TriangulationError("facet adjacency graph is not 2-colorable")
    return {v: 0 if s == 1 else 1 for v, s in sign.items()}

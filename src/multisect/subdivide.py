"""Subdivision and composition operators on triangulations.

Barycentric subdivision works on flags: a facet of the output is a pair
(facet, permutation) encoding a maximal chain of faces, and corner j of
that flag is the barycentre of the chain's dimension-j face.  With this
indexing every gluing of the subdivision has the identity corner map,
internal neighbours differ by one adjacent transposition, and the
external neighbour across the top barycentre composes the ambient corner
map onto the flag.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .partition import VertexPartition
from .triangulation import Triangulation, TriangulationError
from .perms import compose, invert
from .unionfind import signed_colouring


def default_ceiling() -> int:
    """Facet budget for size-exploding operators; MULTISECT_CEILING overrides."""
    raw = os.environ.get("MULTISECT_CEILING")
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise TriangulationError("MULTISECT_CEILING must be an integer, got %r" % raw) from None
    return 10**8


@dataclass(frozen=True)
class Limits:
    """Resource bounds threaded through the size-exploding operators."""

    facet_ceiling: Optional[int] = None

    def ceiling(self) -> int:
        return self.facet_ceiling if self.facet_ceiling is not None else default_ceiling()


@dataclass(frozen=True)
class CarrierLabels:
    """Carrier of each vertex class of a subdivision, in input coordinates.

    dims[v] is the dimension of the input face whose barycentre became
    vertex class v; faces[v] is that face's canonical (facet, corners)
    pair in the input triangulation.
    """

    dims: Tuple[int, ...]
    faces: Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]] = None


def barycentric(T: Triangulation, limits: Limits = Limits()) -> Tuple[Triangulation, CarrierLabels]:
    """First barycentric subdivision with carrier labels.

    Returns (n+1)! flags per input facet.  Raises if the output would
    exceed the facet ceiling.
    """
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
    out = Triangulation._from_tables(n, targets, array("B", bytes(len(targets))), [tuple(range(L))])

    fp_in = T.face_poset
    fp_out = out.face_poset
    n_vertices = fp_out.dim_start[1]
    faces: List[Optional[Tuple[int, Tuple[int, ...]]]] = [None] * n_vertices
    for f in range(T.facet_count):
        base = f * P
        for p_idx, rho in enumerate(perms):
            F = base + p_idx
            for j in range(L):
                v = fp_out.facet_vertices[F * L + j]
                carrier = fp_in.canonical(fp_in.class_of(f, rho[: j + 1]))
                if faces[v] is None:
                    faces[v] = carrier
                elif faces[v] != carrier:
                    raise TriangulationError(
                        "carrier of subdivision vertex %s is not single-valued" % fp_out.key(v)
                    )
    dims = tuple(len(c[1]) - 1 for c in faces)  # type: ignore[index]
    return out, CarrierLabels(dims=dims, faces=tuple(faces))  # type: ignore[arg-type]


def pachner_2n_pass(T: Triangulation, part: VertexPartition) -> Tuple[Triangulation, VertexPartition]:
    """Replace every matched double simplex by n facets around a fresh edge.

    Precondition (even dimension n >= 4, last class singleton): every
    facet has exactly one codimension-1 face avoiding the last partition
    class, and these faces pair the facets perfectly.  Each pair is
    replaced by n facets sharing the edge spanned by the two last-class
    vertices, so in the output every facet has two last-class vertices.
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
    partner = [T.gluing(f, special[f])[0] for f in range(m)]
    for f in range(m):
        if partner[f] == f:
            raise TriangulationError("facet %d is its own partner across its distinguished face" % f)
        if partner[partner[f]] != f:
            raise TriangulationError("distinguished faces do not match the facets into pairs")

    pairs: List[Tuple[int, int]] = []
    pair_of: List[Optional[Tuple[int, int]]] = [None] * m
    for f in range(m):
        if pair_of[f] is None:
            t = partner[f]
            pair_of[f] = (len(pairs), 0)
            pair_of[t] = (len(pairs), 1)
            pairs.append((f, t))

    ridge: List[Tuple[int, ...]] = []  # per pair: corners of the shared face, in first-member labels
    ridx: List[dict] = []
    pair_pi: List[Tuple[int, ...]] = []  # corner map first member -> second member
    for sigma, sigma2 in pairs:
        a = special[sigma]
        u = tuple(c for c in range(L) if c != a)
        ridge.append(u)
        ridx.append({c: r for r, c in enumerate(u)})
        pair_pi.append(T.gluing(sigma, a)[1])

    def pos_in(p: int, j: int, u: int) -> int:
        r = ridx[p][u]
        return 2 + (r if r < j else r - 1)

    def covering(t: int, s: int):
        """New (facet, covered slot) for the old ridge (t, s) plus a corner translator."""
        q, side = pair_of[t]  # type: ignore[misc]
        if side == 0:
            j2 = ridx[q][s]
            a_q = special[t]

            def trans(c: int) -> int:
                return 0 if c == a_q else pos_in(q, j2, c)

            return q * n + j2, 1, trans
        piq_inv = invert(pair_pi[q])
        j2 = ridx[q][piq_inv[s]]
        b_q = special[t]

        def trans2(c: int) -> int:
            return 1 if c == b_q else pos_in(q, j2, piq_inv[c])

        return q * n + j2, 0, trans2

    glu: List[List[Optional[Tuple[int, Tuple[int, ...]]]]] = [[None] * L for _ in range(len(pairs) * n)]
    for p, (sigma, sigma2) in enumerate(pairs):
        a = special[sigma]
        pi = pair_pi[p]
        u_all = ridge[p]
        for j in range(n):
            F = p * n + j
            row = glu[F]
            # internal: all other facets of the same pair
            for j2 in range(n):
                if j2 == j:
                    continue
                bij = [0] * L
                bij[0] = 0
                bij[1] = 1
                for u in u_all:
                    if u == u_all[j]:
                        continue
                    bij[pos_in(p, j, u)] = pos_in(p, j2, u) if u != u_all[j2] else pos_in(p, j2, u_all[j])
                row[pos_in(p, j, u_all[j2])] = (p * n + j2, tuple(bij))
            # external across the first member's old ridge (slot 1 omits corner 1)
            t2, nu = T.gluing(sigma, u_all[j])
            target, cov_slot, trans = covering(t2, nu[u_all[j]])
            bij = [0] * L
            bij[0] = trans(nu[a])
            bij[1] = cov_slot
            for u in u_all:
                if u == u_all[j]:
                    continue
                bij[pos_in(p, j, u)] = trans(nu[u])
            row[1] = (target, tuple(bij))
            # external across the second member's old ridge (slot 0 omits corner 0)
            t3, mu = T.gluing(sigma2, pi[u_all[j]])
            target, cov_slot, trans = covering(t3, mu[pi[u_all[j]]])
            bij = [0] * L
            bij[1] = trans(mu[pi[a]])
            bij[0] = cov_slot
            for u in u_all:
                if u == u_all[j]:
                    continue
                bij[pos_in(p, j, u)] = trans(mu[pi[u]])
            row[0] = (target, tuple(bij))
    out = Triangulation(n, glu)  # type: ignore[arg-type]

    # carry the partition over through corner provenance
    fp_out = out.face_poset
    new_labels: List[Optional[int]] = [None] * fp_out.dim_start[1]
    for p, (sigma, sigma2) in enumerate(pairs):
        a = special[sigma]
        pi = pair_pi[p]
        u_all = ridge[p]
        for j in range(n):
            F = p * n + j
            origins = {0: (sigma, a), 1: (sigma2, pi[a])}
            for u in u_all:
                if u != u_all[j]:
                    origins[pos_in(p, j, u)] = (sigma, u)
            for c, (of, oc) in origins.items():
                v = fp_out.facet_vertices[F * L + c]
                lab = labels[fp.facet_vertices[of * L + oc]]
                if new_labels[v] is None:
                    new_labels[v] = lab
                elif new_labels[v] != lab:
                    raise TriangulationError("partition labels conflict on the rebuilt vertex classes")
    out_part = VertexPartition(k=part.k, labels=tuple(new_labels), scheme=part.scheme)  # type: ignore[arg-type]
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
    rows: List[List[Optional[Tuple[int, Tuple[int, ...]]]]] = [[None] * L for _ in range(L)]
    for i in range(L):
        t, pi = T.gluing(facet, i)
        if t == facet:
            rows[i][i] = (sid(pi[i]), pi)
        else:
            rows[i][i] = (t, pi)
            glu_out[t][pi[i]] = (sid(i), invert(pi))
        for j in range(L):
            if j == i:
                continue
            tau = list(range(L))
            tau[i], tau[j] = j, i
            rows[i][j] = (sid(j), tuple(tau))
    glu_out[facet] = rows[0]  # type: ignore[assignment]
    for i in range(1, L):
        glu_out.append(rows[i])  # type: ignore[arg-type]

    vertex_ids = None
    if T.vertex_ids is not None:
        fresh = _fresh_id(T.vertex_ids)
        vertex_ids = [list(v) for v in T.vertex_ids]
        base = list(T.vertex_ids[facet])
        new_rows = []
        for i in range(L):
            ids = list(base)
            ids[i] = fresh
            new_rows.append(ids)
        vertex_ids[facet] = new_rows[0]
        vertex_ids.extend(new_rows[1:])
    extras = {}
    old_labels = T.extras.get("corner_labels")
    if old_labels is not None:
        labels = [tuple(r) for r in old_labels]
        base_l = list(old_labels[facet])
        new_lrows = []
        for i in range(L):
            lr = list(base_l)
            lr[i] = None
            new_lrows.append(tuple(lr))
        labels[facet] = new_lrows[0]
        labels.extend(new_lrows[1:])
        extras["corner_labels"] = tuple(labels)
    return Triangulation(n, glu_out, vertex_ids=vertex_ids, extras=extras or None)


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
    extras = None
    la = A.extras.get("corner_labels")
    lb = B.extras.get("corner_labels")
    if la is not None and lb is not None:
        shift = A.dimension + 1
        rows = []
        for fa in range(A.facet_count):
            for fb in range(B.facet_count):
                rows.append(
                    tuple(la[fa])
                    + tuple(None if x is None else x + shift for x in lb[fb])
                )
        extras = {"corner_labels": tuple(rows)}
    return Triangulation.from_vertex_facets(n, facets, extras=extras)


def slot_carriers(T: Triangulation) -> CarrierLabels:
    """Carrier dimensions read off corner slots.

    Flag subdivisions place every barycentre at the slot equal to its
    carrier dimension, in each incarnation; raises when the input does
    not have that shape.
    """
    fp = T.face_poset
    nv = fp.dim_start[1]
    dims: List[Optional[int]] = [None] * nv
    for k, v in enumerate(fp.facet_vertices):
        c = k % fp.L
        if dims[v] is None:
            dims[v] = c
        elif dims[v] != c:
            raise TriangulationError("corner slots do not determine carriers (vertex class %s)" % T.vertex_key(v))
    return CarrierLabels(dims=tuple(dims))  # type: ignore[arg-type]


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
        cs = fp.children(eid)
        if len(cs) != 2:
            continue
        a, b = cs
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

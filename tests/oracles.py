"""Independent cross-checks used to freeze expected values.

Everything here recomputes invariants from first principles with plain
set/dict machinery, deliberately avoiding the library's face poset,
bitmask GF(2) kernels, and permutation helpers.  Tests compare library
output against these.  The clique oracle for flag links uses networkx,
which the library itself does not need.
"""

from itertools import combinations, permutations, product
from types import SimpleNamespace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


# --- crosspolytope enumeration ---------------------------------------------


def orthant_facets(n: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Facets of the boundary of the (n+1)-crosspolytope as vertex tuples.

    Vertices are (axis, sign); one facet per sign vector.
    """
    out = []
    for signs in product((1, -1), repeat=n + 1):
        out.append(tuple((i, s) for i, s in enumerate(signs)))
    return out


def orthant_face_counts(n: int) -> List[int]:
    """Faces by dimension: subsets with one vertex per used axis."""
    faces: Set[FrozenSet[Tuple[int, int]]] = set()
    for facet in orthant_facets(n):
        for r in range(1, n + 2):
            for sub in combinations(facet, r):
                faces.add(frozenset(sub))
    counts = [0] * (n + 1)
    for f in faces:
        counts[len(f) - 1] += 1
    return counts


def orthant_adjacency(n: int) -> Dict[int, Set[int]]:
    """Dual graph on sign vectors: adjacent when exactly one sign flips."""
    signs = list(product((1, -1), repeat=n + 1))
    index = {s: i for i, s in enumerate(signs)}
    adj: Dict[int, Set[int]] = {i: set() for i in range(len(signs))}
    for s, i in index.items():
        for axis in range(n + 1):
            t = tuple(-v if a == axis else v for a, v in enumerate(s))
            adj[i].add(index[t])
    return adj


def orthant_codim2_degrees(n: int) -> List[int]:
    """Number of facets containing each (n-2)-face."""
    incidence: Dict[FrozenSet[Tuple[int, int]], int] = {}
    for facet in orthant_facets(n):
        for sub in combinations(facet, n - 1):
            incidence[frozenset(sub)] = incidence.get(frozenset(sub), 0) + 1
    return sorted(incidence.values())


def projective_face_counts(n: int) -> List[int]:
    """Face counts of the antipodal quotient: orbits {F, -F}."""
    faces: Set[FrozenSet[Tuple[int, int]]] = set()
    for facet in orthant_facets(n):
        for r in range(1, n + 2):
            for sub in combinations(facet, r):
                faces.add(frozenset(sub))
    seen: Set[FrozenSet[Tuple[int, int]]] = set()
    counts = [0] * (n + 1)
    for f in faces:
        anti = frozenset((a, -s) for a, s in f)
        if anti in seen:
            continue
        seen.add(f)
        counts[len(f) - 1] += 1
    return counts


def euler_from_counts(counts: Sequence[int]) -> int:
    return sum((-1) ** d * c for d, c in enumerate(counts))


# --- naive GF(2) linear algebra --------------------------------------------


def gf2_rank_sets(rows: Iterable[FrozenSet]) -> int:
    """Row rank by symmetric-difference elimination on frozensets."""
    basis: List[FrozenSet] = []
    for row in rows:
        cur = frozenset(row)
        changed = True
        while cur and changed:
            changed = False
            for b in basis:
                if _pivot(b) in cur:
                    cur = cur ^ b
                    changed = True
                    break
        if cur:
            basis.append(cur)
    return len(basis)


def _canon(x):
    if isinstance(x, frozenset):
        return tuple(sorted(_canon(y) for y in x))
    return x


def _pivot(s: FrozenSet):
    return min(s, key=_canon)


def simplicial_betti(faces: Iterable[FrozenSet]) -> List[int]:
    """GF(2) Betti numbers of an abstract simplicial complex.

    `faces` lists every face (any iteration order); vertices are face
    elements.  Boundary of a face is the set of its codim-1 subsets.
    """
    by_dim: Dict[int, List[FrozenSet]] = {}
    for f in set(faces):
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    ranks = {}
    for d in range(1, top + 1):
        rows = []
        for f in by_dim.get(d, []):
            rows.append(frozenset(frozenset(s) for s in combinations(sorted(f, key=repr), d)))
        ranks[d] = gf2_rank_sets(rows)
    betti = []
    for d in range(top + 1):
        nd = len(by_dim.get(d, []))
        b = nd - ranks.get(d, 0) - ranks.get(d + 1, 0)
        betti.append(b)
    return betti


def betti_by_elimination(X):
    """`X.betti()` or `X.summary().betti`, every boundary map eliminated.

    The slow path the component ranks are checked against: each
    dimension's dense GF(2) columns, from `boundary_columns`, go through
    the library's `gf2.Basis`.  `X` is a cell complex or a triangulation.
    """
    from multisect import gf2

    counts = X.face_poset.counts() if hasattr(X, "facet_count") else X.counts()
    ranks = [0] + [gf2.rank(list(X.boundary_columns(d))) for d in range(1, len(counts))] + [0]
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))


# --- doubled-simplex cell enumeration --------------------------------------
#
# Faces of the doubled n-simplex: every proper nonempty subset of
# {0..n} appears once (the two copies are glued identically), plus two
# top faces.  Cells of the partitioned structure are faces whose label
# support is exactly S; the cell dimension is sum(multiplicity - 1).


def double_simplex_cells(n: int, labels: Sequence[int], S: Sequence[int]):
    """Cells by dimension plus the parent relation, enumerated directly.

    Returns (cells, dims, parents) where cells are ('f', frozenset) or
    ('top', 0|1), dims the cell dimensions, parents maps a cell to the
    list of cells it is a boundary face of (with multiplicity).
    """
    want = frozenset(S)
    verts = list(range(n + 1))

    def support(vs):
        mult: Dict[int, int] = {}
        for v in vs:
            mult[labels[v]] = mult.get(labels[v], 0) + 1
        return mult

    cells = []
    dims = []
    for r in range(1, n + 1):
        for sub in combinations(verts, r):
            mult = support(sub)
            if frozenset(mult) == want:
                cells.append(("f", frozenset(sub)))
                dims.append(sum(m - 1 for m in mult.values()))
    full = support(verts)
    if frozenset(full) == want:
        for copy in (0, 1):
            cells.append(("top", copy))
            dims.append(sum(m - 1 for m in full.values()))
    index = {c: i for i, c in enumerate(cells)}
    parents: Dict[int, List[int]] = {i: [] for i in range(len(cells))}
    for i, c in enumerate(cells):
        vs = set(verts) if c[0] == "top" else set(c[1])
        mult = support(vs)
        for v in sorted(vs):
            if mult[labels[v]] >= 2:
                child = ("f", frozenset(vs - {v}))
                if child in index:
                    parents[index[child]].append(i)
    return cells, dims, parents


def cell_counts(dims: Sequence[int]) -> List[int]:
    if not dims:
        return []
    out = [0] * (max(dims) + 1)
    for d in dims:
        out[d] += 1
    return out


def collapse_dim(cells, dims, parents) -> int:
    """Greedy free-face collapse on the explicit poset; achieved dimension."""
    alive = set(range(len(cells)))
    par = {i: list(ps) for i, ps in parents.items()}
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            ps = [p for p in par[i] if p in alive]
            if len(ps) == 1 and ps[0] in alive:
                alive.discard(i)
                alive.discard(ps[0])
                changed = True
                break
    return max((dims[i] for i in alive), default=-1)


def connected_cells(cells, dims, parents) -> bool:
    """Connectivity through the parent relation."""
    if not cells:
        return False
    reach = {0}
    frontier = [0]
    adj: Dict[int, Set[int]] = {i: set() for i in range(len(cells))}
    for i, ps in parents.items():
        for p in ps:
            adj[i].add(p)
            adj[p].add(i)
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return len(reach) == len(cells)


def connected_by_all_incidences(X) -> bool:
    """Connectivity of a cell complex by a union-find over every cell and each of its children."""
    if not len(X.cells):
        return False
    parent = list(range(len(X.cells)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(X.cells)):
        for c in X.children_of(i):
            parent[find(i)] = find(c)
    return len({find(i) for i in range(len(X.cells))}) == 1


# --- reflection labelings over orthants ------------------------------------


def reflection_trivial_on_orthants(n: int) -> bool:
    """Propagate axis labelings over sign flips; monodromy must vanish.

    Crossing the facet that flips axis i matches corner j to corner j,
    so every loop composes to the identity relabeling.
    """
    signs = list(product((1, -1), repeat=n + 1))
    index = {s: i for i, s in enumerate(signs)}
    lab: Dict[int, Tuple[int, ...]] = {0: tuple(range(n + 1))}
    frontier = [0]
    ok = True
    while frontier:
        i = frontier.pop()
        s = signs[i]
        for axis in range(n + 1):
            t = tuple(-v if a == axis else v for a, v in enumerate(s))
            j = index[t]
            prop = lab[i]
            if j not in lab:
                lab[j] = prop
                frontier.append(j)
            elif lab[j] != prop:
                ok = False
    return ok


# --- free groups and words --------------------------------------------------


def reduce_word(word: Sequence[int]) -> Tuple[int, ...]:
    """Free reduction by repeated full scans (quadratic, independent)."""
    w = list(word)
    done = False
    while not done:
        done = True
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                done = False
                break
    return tuple(w)


def abelian_rank_gf2(words: Iterable[Sequence[int]], generators: int) -> int:
    rows = []
    for w in words:
        parity: Dict[int, int] = {}
        for letter in w:
            g = abs(letter) - 1
            parity[g] = parity.get(g, 0) ^ 1
        rows.append(frozenset(g for g, p in parity.items() if p))
    return gf2_rank_sets(rows)


# --- permutation monodromy on a gluing graph --------------------------------


def monodromy_order(gluings) -> int:
    """Order of the reflection monodromy group, from the raw gluing table.

    Propagates labelings breadth-first and closes the set of loop
    permutations under composition.
    """

    def comp(p, q):
        return tuple(p[x] for x in q)

    def inv(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    m = len(gluings)
    L = len(gluings[0])
    ident = tuple(range(L))
    lab = {0: ident}
    order = [0]
    loops = set()
    head = 0
    while head < len(order):
        f = order[head]
        head += 1
        for i in range(L):
            t, pi = gluings[f][i]
            prop = comp(lab[f], inv(pi))
            if t not in lab:
                lab[t] = prop
                order.append(t)
            else:
                loops.add(comp(prop, inv(lab[t])))
    group = {ident}
    frontier = set(loops)
    while frontier:
        new = set()
        for a in frontier:
            for b in loops:
                c = comp(a, b)
                if c not in group:
                    group.add(c)
                    new.add(c)
        frontier = new
    return len(group)


# --- isomorphism by exhaustive normal forms ---------------------------------


def _rooted_rows(gluings, f0, rho0):
    """Rows of f0's component, renumbered by a breadth-first walk from the flag (f0, rho0).

    Facet f0 becomes facet 0 and its corner c becomes corner rho0[c]; a
    facet first reached across a gluing takes the corner names that make
    that gluing the identity.  Each row lists, per new slot, the new
    number of the target facet followed by the renamed corner map.
    """
    L = len(gluings[f0])
    number = {f0: 0}
    rename = {f0: dict(enumerate(rho0))}  # per facet: old corner -> new corner
    order = [f0]
    rows = []
    for f in order:
        new = rename[f]
        old = {x: c for c, x in new.items()}
        row = []
        for s in range(L):
            t, pi = gluings[f][old[s]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
                rename[t] = {pi[c]: new[c] for c in range(L)}
            row.append((number[t],) + tuple(rename[t][pi[old[x]]] for x in range(L)))
        rows.append(tuple(row))
    return tuple(rows)


def canonical_form(T):
    """Least row table of each component over all its start flags, components sorted.

    The exhaustive reference for isomorphism: every facet of a component,
    with every order of its corners, starts a full walk, and no walk stops
    early.  Reads only the gluing table.
    """
    gluings = T.gluings
    flags = list(permutations(range(T.dimension + 1)))
    unseen = set(range(T.facet_count))
    forms = []
    while unseen:
        component = [min(unseen)]
        unseen.discard(component[0])
        for f in component:
            for t, _ in gluings[f]:
                if t in unseen:
                    unseen.discard(t)
                    component.append(t)
        forms.append(min(_rooted_rows(gluings, f0, rho0) for f0 in component for rho0 in flags))
    return tuple(sorted(forms))


def isomorphic_by_canonical_form(A, B) -> bool:
    """Equal dimension, facet count and canonical form.

    The slow path that `Triangulation.isomorphic_to` is checked against.
    """
    if A.dimension != B.dimension or A.facet_count != B.facet_count:
        return False
    return canonical_form(A) == canonical_form(B)


# --- face classes by union-find over (facet, corner subset) -----------------


def face_classes_by_union_find(T):
    """Class id of every (facet, corner mask), as the face poset numbers them.

    The slow path the flat face table is checked against: a union-find
    over every (facet, nonempty corner subset) pair, merged across each
    gluing, then numbered by (dimension, facet, sorted corners) of each
    class's least incarnation.  Works from the raw gluing table.
    """
    L = T.dimension + 1
    M = 1 << L
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for f, row in enumerate(T.gluings):
        for i, (t, pi) in enumerate(row):
            for mask in range(1, M):
                if mask >> i & 1:
                    continue
                img = sum(1 << pi[c] for c in range(L) if mask >> c & 1)
                a, b = find((f, mask)), find((t, img))
                if a != b:
                    parent[a] = b

    def corners(mask):
        return tuple(c for c in range(L) if mask >> c & 1)

    least = {}
    for f in range(T.facet_count):
        for mask in range(1, M):
            r = find((f, mask))
            key = (len(corners(mask)), f, corners(mask))
            if r not in least or key < least[r]:
                least[r] = key
    number = {r: cid for cid, r in enumerate(sorted(least, key=least.get))}
    return {(f, mask): number[find((f, mask))] for f in range(T.facet_count) for mask in range(1, M)}


def incarnation_maps_by_bfs(T, start):
    """Corner identification of every incarnation of a face with its incarnation `start`.

    Returns encoded incarnation -> {its corner: corner at `start`}, in the
    order a breadth-first walk from `start` reaches them, crossing the
    gluings slot by slot.  Reads only the gluing table.
    """
    L = T.dimension + 1
    M = 1 << L
    gluings = T.gluings
    maps = {start: {c: c for c in range(L) if start % M >> c & 1}}
    queue = [start]
    for enc in queue:
        f, mask = divmod(enc, M)
        for i in range(L):
            if mask >> i & 1:
                continue
            t, pi = gluings[f][i]
            enc2 = t * M + sum(1 << pi[c] for c in range(L) if mask >> c & 1)
            if enc2 not in maps:
                maps[enc2] = {pi[c]: v for c, v in maps[enc].items()}
                queue.append(enc2)
    return maps


# --- carriers of a flag subdivision by class lookups ------------------------


def carrier_faces_by_class_lookup(T, S):
    """Carrier face of every vertex class of `S`, the flag subdivision `barycentric(T)` returned.

    The slow path `slot_carriers` is checked against: corner j of flag
    (f, rho) is the barycentre of the face of f on corners rho[:j+1], so
    each corner of `S` looks its carrier up among `T`'s face classes.
    Returns each class's canonical (facet, corners) pair in `T`, and
    asserts that every incarnation of a class names the same face.
    """
    L = T.dimension + 1
    fp_in, fp_out = T.face_poset, S.face_poset
    faces = [None] * fp_out.dim_start[1]
    flags = [(f, rho) for f in range(T.facet_count) for rho in permutations(range(L))]
    for F, (f, rho) in enumerate(flags):
        for j in range(L):
            v = fp_out.facet_vertices[F * L + j]
            carrier = fp_in.canonical(fp_in.class_of(f, rho[: j + 1]))
            assert faces[v] in (None, carrier), "carrier of %s is not single-valued" % fp_out.key(v)
            faces[v] = carrier
    return tuple(faces)


# --- the 2-n move through per-pair ridge tables ----------------------------


def pachner_2n_pass_by_pair_tables(T, part):
    """`pachner_2n_pass(T, part)` through per-pair ridge tables and corner translators.

    The slow path the cover-table move is checked against: each new slot
    is placed through `pos_in` and a translator closure per covered old
    ridge, the two external slots are written by two copies of one block,
    and labels are carried through a third table of corner origins.

    Precondition (even dimension n >= 4, last class singleton): every
    facet has exactly one codimension-1 face avoiding the last partition
    class, and these faces pair the facets perfectly.  Each pair is
    replaced by n facets sharing the edge spanned by the two last-class
    vertices, so in the output every facet has two last-class vertices.
    """
    from multisect.partition import VertexPartition
    from multisect.perms import invert
    from multisect.triangulation import Triangulation, TriangulationError

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


# --- sides of a second subdivision from a facet 2-colouring -----------------


def sides_by_dual_bipartition(intermediate, S):
    """Side of every top-carrier vertex class of `S` = sd(`intermediate`).

    The slow path `infer_sides` is checked against: the facets of
    `intermediate` are 2-coloured breadth-first across its gluings from
    facet 0, and the barycentre of facet f takes f's colour.  Carrier
    faces come from `carrier_faces_by_class_lookup`, so there is one
    top-carrier class per facet.
    """
    colour = {0: 0}
    queue = [0]
    gluings = intermediate.gluings
    for f in queue:
        for t, _ in gluings[f]:
            if t not in colour:
                colour[t] = 1 - colour[f]
                queue.append(t)
            assert colour[t] != colour[f], "the dual graph is not bipartite"
    top = intermediate.dimension
    faces = carrier_faces_by_class_lookup(intermediate, S)
    sides = {v: colour[f] for v, (f, corners) in enumerate(faces) if len(corners) - 1 == top}
    assert len(colour) == intermediate.facet_count == len(sides)
    return sides


# --- spanning forests in dicts of tuples ------------------------------------


def spanning_forest_by_dicts(X):
    """`CellComplex.spanning_forest` as the dict of (edge, direction) steps it replaced.

    The slow path the flat forest arrays are checked against: per-vertex
    lists of (edge, other end, direction) in ascending edge order, walked
    breadth first from the least unreached vertex.  Returns (parent,
    cotree): parent maps each vertex cell to the (edge, direction into
    it) it was reached by, or to None at a root, in the order the walk
    reaches them; cotree is the ascending list of edges outside the
    forest.  Uses the library's cell complex tables.
    """
    edges = [e for e, d in enumerate(X.dims) if d == 1]
    adj = {}
    for e in edges:
        vb, va = X.children_of(e)  # [head, tail]
        adj.setdefault(va, []).append((e, vb, 1))
        adj.setdefault(vb, []).append((e, va, -1))
    parent = {}
    tree_edges = set()
    for root in (i for i, d in enumerate(X.dims) if d == 0):
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for v in order:
            for e, w, dr in adj.get(v, ()):
                if w not in parent:
                    parent[w] = (e, dr)
                    tree_edges.add(e)
                    order.append(w)
    return parent, [e for e in edges if e not in tree_edges]


# --- generator words by explicit tree paths ---------------------------------


def generator_words_by_tree_paths(T, P, label):
    """`inclusion_epimorphism(T, P, label).generator_words`, one cycle at a time.

    The slow path the reduced tree-path images are checked against: each
    generator's cycle (tree path to its tail, the edge, tree path back) is
    spelled out edge by edge, every edge is pushed into the region graph
    through the class-`label` vertex of its ends' canonical incarnations,
    and the whole word is reduced once.  Uses the library's cell complexes,
    `spanning_forest_by_dicts` and edge ends found by class lookups.
    """
    from multisect import cells

    fp = T.face_poset
    central = cells.extract(T, P, tuple(range(P.k + 1)))
    graph = cells.extract(T, P, (label,))
    c_ends = edge_ends_by_lookup(central)
    c_parent, c_cotree = spanning_forest_by_dicts(central)
    g_ends = edge_ends_by_lookup(graph)
    _, g_cotree = spanning_forest_by_dicts(graph)
    g_gen = {e: j for j, e in enumerate(g_cotree)}
    graph_vertex_of = {graph.cells[i]: i for i, d in enumerate(graph.dims) if d == 0}
    cubes = cubes_by_grouping(central)
    graph_index = cell_index(graph)

    def class_vertex(cell):
        cube = cubes[cell]
        row = [fp.class_of(cube.facet, (c,)) for c in range(fp.L)]
        return next(row[c] for c in cube.corners if central.labels[row[c]] == label)

    def edge_image(e, dr):
        f, _, _, (doubled,), (pair,) = cubes[e]
        if doubled != label:
            return []
        gi = graph_index[fp.class_of(f, pair)]
        va, vb, _, _ = c_ends[e]
        tail_cell = graph_vertex_of[class_vertex(va)]
        head_cell = graph_vertex_of[class_vertex(vb)]
        gva, gvb, _, _ = g_ends[gi]
        assert {tail_cell, head_cell} == {gva, gvb}
        sign = 1 if tail_cell == gva else -1
        return [sign * dr * (g_gen[gi] + 1)] if gi in g_gen else []

    def tree_path(v):
        path = []
        while c_parent[v] is not None:
            e, dr = c_parent[v]
            path.append((e, dr))
            va, vb, _, _ = c_ends[e]
            v = va if dr == 1 else vb
        return path[::-1]

    words = []
    for e in c_cotree:
        va, vb, _, _ = c_ends[e]
        cycle = tree_path(va) + [(e, 1)] + [(x, -d) for x, d in reversed(tree_path(vb))]
        word = []
        for ee, dd in cycle:
            word.extend(edge_image(ee, dd))
        words.append(reduce_word(word))
    return tuple(words)


# --- flag complexes by clique enumeration -----------------------------------


def flag_by_cliques(link):
    """`LinkComplex.flag` by enumerating every clique of the 1-skeleton.

    Cliques come smallest first, so the reason names the size of a
    smallest clique that spans no simplex.  Uses networkx.
    """
    import networkx as nx

    if not link.simplicial:
        return False, link.simplicial_reason
    g = nx.Graph()
    g.add_nodes_from(range(link.vertex_count))
    have = [set() for _ in range(len(link.cells_by_dim) + 2)]
    for h, cells in enumerate(link.cells_by_dim, start=1):
        for cell in cells:
            have[h].add(tuple(sorted(cell)))
    g.add_edges_from(have[1])
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) < 3:
            continue
        h = len(clique) - 1
        if h >= len(have) or tuple(sorted(clique)) not in have[h]:
            return False, "clique of size %d spans no simplex" % len(clique)
    return True, None


# --- class graphs by a union-find over monochromatic edges -----------------


def class_graphs_by_edge_union_find(T, P):
    """`validate(T, P)`'s class graphs and their diagnostics, from the face table.

    The slow path the (l,) subset complexes are checked against: every
    face class whose vertices all carry label l adds (-1)^dim to that
    label's Euler tally, each such edge is counted and merged in a
    union-find over vertex classes, and a label's graph is connected when
    its vertices share one root.  Returns a (label, vertices, edges,
    connected, genus) row per label and the class-graph diagnostics in
    report order.  Uses the library's face poset and label multisets.
    """
    from multisect.cells import class_label_multisets

    fp = T.face_poset
    k = P.k
    parent = list(range(fp.dim_start[1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = [0] * (k + 1)
    chi = [0] * (k + 1)
    for cid, ms in enumerate(class_label_multisets(T, P)):
        if len(set(ms)) != 1:
            continue
        chi[ms[0]] += (-1) ** (len(ms) - 1)
        if len(ms) == 2:
            edges[ms[0]] += 1
            f, (a, b) = fp.canonical(cid)
            parent[find(fp.class_of(f, (a,)))] = find(fp.class_of(f, (b,)))
    roots = [set() for _ in range(k + 1)]
    for v, l in enumerate(P.labels):
        roots[l].add(find(v))
    rows, diagnostics = [], []
    for l in range(k + 1):
        connected = len(roots[l]) == 1
        rows.append((l, sum(1 for x in P.labels if x == l), edges[l], connected, 1 - chi[l]))
        if not roots[l]:
            diagnostics.append("class %d has no vertices" % l)
        elif not connected:
            diagnostics.append("class graph %d disconnected" % l)
    return rows, diagnostics


# --- H_1 surjectivity by a kernel basis of the incidence matrix -------------


def h1_onto_by_kernel_basis(T, P, cls=0):
    """`h1_onto_check(T, P, cls)`, from an explicit cycle-space basis.

    The slow path the spanning-forest loops are checked against: the
    kernel of the central 1-skeleton's vertex-incidence matrix is
    eliminated column by column, each kernel vector's image is summed
    edge by edge, and the images are counted modulo the ambient
    boundaries against b_1 over GF(2).  Uses the library's cell
    complexes, face poset and GF(2) bases, and edge ends found by class
    lookups.
    """
    from multisect import cells, gf2

    fp = T.face_poset
    central = cells.extract(T, P, tuple(range(P.k + 1)))
    e_start = fp.dim_start[1]
    c_vpos = {i: j for j, i in enumerate(i for i, d in enumerate(central.dims) if d == 0)}
    cols = []
    images = []
    cubes = cubes_by_grouping(central)
    for i, (va, vb, a, b) in edge_ends_by_lookup(central).items():
        cols.append(1 << c_vpos[va] ^ 1 << c_vpos[vb])
        f, _, _, (doubled,), _ = cubes[i]
        images.append(1 << (fp.class_of(f, (a, b)) - e_start) if doubled == cls else 0)

    pivots = {}  # pivot bit -> (column, combination mask)
    cycle_masks = []
    for j, v in enumerate(cols):
        combo = 1 << j
        while v:
            p = v.bit_length() - 1
            hit = pivots.get(p)
            if hit is None:
                pivots[p] = (v, combo)
                break
            v ^= hit[0]
            combo ^= hit[1]
        else:
            cycle_masks.append(combo)

    base = gf2.Basis()
    for v in T.boundary_columns(2):
        base.add(v)
    b1 = len(fp.class_ids_of_dim(1)) - gf2.rank(T.boundary_columns(1)) - base.rank
    extra = 0
    for mask in cycle_masks:
        img = 0
        for j, image in enumerate(images):
            if mask >> j & 1:
                img ^= image
        if base.add(img):
            extra += 1
    return extra == b1


# --- subset complexes by a full scan of the face classes --------------------


def extract_by_scan(T, P, subset):
    """`cells.extract(T, P, subset)`'s tables, from its own label pass and a full scan.

    The slow path the labelling record and the flat cell tables are
    checked against: every face class gets its sorted label multiset
    afresh, every class is tested for support exactly `subset`, and the
    kept classes are numbered in class order with a tuple of their
    codimension-1 faces as children, looked up in a dict from class id to
    cell index.  Uses the library's face poset.
    """
    fp = T.face_poset
    labels = tuple(P.labels)
    S = tuple(sorted(set(subset)))
    multisets = []
    for cid in range(fp.n_classes):
        f, corners = fp.canonical(cid)
        multisets.append(tuple(sorted(labels[fp.class_of(f, (c,))] for c in corners)))
    cells = [cid for cid in range(fp.n_classes) if set(multisets[cid]) == set(S)]
    index = {cid: i for i, cid in enumerate(cells)}
    dims, children = [], []
    for cid in cells:
        f, corners = fp.canonical(cid)
        ms = multisets[cid]
        dims.append(len(corners) - len(S))
        children.append(
            tuple(
                index[fp.class_of(f, tuple(x for x in corners if x != c))]
                for c in corners
                if ms.count(labels[fp.class_of(f, (c,))]) >= 2
            )
        )
    return SimpleNamespace(
        cells=tuple(cells),
        dims=tuple(dims),
        children=tuple(children),
        all_cubes=all(multisets[cid].count(l) <= 2 for cid in cells for l in S),
        cell_index=index,
    )


# --- per-cell records: one cube per cell, a dict index, edge ends by lookup --


def cell_index(X):
    """The dict from ambient class id to cell index that the class-to-cell array replaced."""
    return {cid: i for i, cid in enumerate(X.cells)}


def cell_children(X):
    """Every cell's `children_of`, as tuples."""
    return tuple(tuple(X.children_of(i)) for i in range(len(X.cells)))


def cell_cubes(X):
    """Every cell's `cube` record, index-aligned with `X.cells`."""
    return tuple(X.cube(i) for i in range(len(X.cells)))


def cubes_by_grouping(X):
    """One `Cube` per cell of X, each grouped afresh from its canonical corners' labels.

    The slow path the shared shape table is checked against.  Uses the
    library's face poset and cube type.
    """
    from multisect.cells import Cube

    fp = X.face_poset
    out = []
    for cid in X.cells:
        f, corners = fp.canonical(cid)
        groups = {}
        for c in corners:
            groups.setdefault(X.labels[fp.class_of(f, (c,))], []).append(c)
        dirs = tuple(sorted(l for l, cs in groups.items() if len(cs) == 2))
        fixed = tuple(cs[0] for cs in groups.values() if len(cs) == 1)
        out.append(Cube(f, corners, fixed, dirs, tuple(tuple(groups[l]) for l in dirs)))
    return tuple(out)


def edge_ends_by_lookup(X):
    """Per edge cell its (tail, head, tail corner, head corner), each end found as the class of the edge with one corner deleted.

    The corners are the pair of the edge's doubled label, lower first.  Two
    class lookups and two dict lookups per edge, where the library reads
    the edge's two children and its shape's pair.
    """
    fp = X.face_poset
    index = cell_index(X)
    ends = {}
    for i, cube in enumerate(cubes_by_grouping(X)):
        if X.dims[i] != 1:
            continue
        ((a, b),) = cube.pairs
        tail = index[fp.class_of(cube.facet, [c for c in cube.corners if c != b])]
        head = index[fp.class_of(cube.facet, [c for c in cube.corners if c != a])]
        ends[i] = (tail, head, a, b)
    return ends


# --- union-find over pairs -------------------------------------------------

# The class `unionfind.components` replaced, kept as its reference.


class UnionFind:
    """Disjoint sets over the integers 0..n-1."""

    __slots__ = ("parent", "size", "n_sets")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_sets = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b.  Returns True if they were distinct."""
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_sets -= 1
        return True


def union_connected_by_union_find(T, P):
    """`twisted_admissible`'s `union_connected`, from the raw gluing table.

    Corner labelings spread breadth-first from facet 0 with the identity,
    across slots in order, as the reflection walk spreads them: crossing
    slot i of f with map pi, corner pi[c] of the target takes corner c's
    label.  A `UnionFind` over the vertex classes of
    `face_classes_by_union_find` joins the two ends of every facet edge
    whose two corner labels lie in one block of P.
    """
    L = T.dimension + 1
    classes = face_classes_by_union_find(T)
    lab = {0: tuple(range(L))}
    order = [0]
    for f in order:
        for t, pi in T.gluings[f]:
            if t not in lab:
                row = [0] * L
                for c in range(L):
                    row[pi[c]] = lab[f][c]
                lab[t] = tuple(row)
                order.append(t)
    # classes are numbered by dimension first, so the vertex classes are 0..nv-1
    uf = UnionFind(len({cid for (_, mask), cid in classes.items() if mask & mask - 1 == 0}))
    for f in range(T.facet_count):
        for a, b in combinations(range(L), 2):
            if P.labels[lab[f][a]] == P.labels[lab[f][b]]:
                uf.union(classes[f, 1 << a], classes[f, 1 << b])
    return uf.n_sets == 1


# --- signed 2-colouring and facet components in dicts ----------------------


def signed_colouring(nodes, adj):
    """Signs +1/-1 with sign[y] == rel * sign[x] for every (y, rel) in adj[x], in a dict.

    The walk `unionfind.signed_walk` replaced, kept as its reference: the
    first node of each component, in `nodes` order, gets +1.  Returns
    None when no such signs exist; a loop with rel -1 is such a conflict.
    """
    sign = {}
    for root in nodes:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for y, rel in adj[x]:
                want = rel * sign[x]
                got = sign.get(y)
                if got is None:
                    sign[y] = want
                    stack.append(y)
                elif got != want:
                    return None
    return sign


def facet_walk_by_dicts(T):
    """Facet components and orientation the way `Triangulation.summary` found them before its one walk.

    Components come from a `UnionFind` over every gluing slot, grouped by
    least facet; the orientation from `signed_colouring` over per-facet
    lists of (target, -sign(pi)).  Returns (components, orientation or
    None).
    """
    from multisect.perms import sign

    m = T.facet_count
    uf = UnionFind(m)
    adj = [[] for _ in range(m)]
    for f, row in enumerate(T.gluings):
        for t, pi in row:
            uf.union(f, t)
            adj[f].append((t, -sign(pi)))
    comps = {}
    for f in range(m):
        comps.setdefault(uf.find(f), []).append(f)
    eps = signed_colouring(range(m), adj)
    return list(comps.values()), None if eps is None else tuple(eps[f] for f in range(m))


def sides_by_signed_colouring(T, carriers):
    """`infer_sides` as a dict 2-colouring of the top barycentres across their hinges.

    A hinge is an edge class from a codimension-1 barycentre to a facet
    barycentre; two facet barycentres at one codimension-1 barycentre are
    neighbours with rel -1.  The least top of each component takes side
    0.  Returns None when the colouring fails.
    """
    n = T.dimension
    fp = T.face_poset
    dims = carriers.dims
    tops = sorted(v for v in range(len(dims)) if dims[v] == n)
    hinge = {}
    for eid in fp.class_ids_of_dim(1):
        a, b = sorted(fp.children(eid), key=lambda v: dims[v])
        if (dims[a], dims[b]) == (n - 1, n):
            hinge.setdefault(a, set()).add(b)
    adj = {v: [] for v in tops}
    for ts in hinge.values():
        x, y = ts
        adj[x].append((y, -1))
        adj[y].append((x, -1))
    sign = signed_colouring(tops, adj)
    return None if sign is None else {v: 0 if s == 1 else 1 for v, s in sign.items()}


# --- cube faces through corner maps -----------------------------------------


def corner_map(fp, facet, corners):
    """Class of a face and its identification with the canonical incarnation, read off the face tables.

    Returns (class id, phi), where phi[c] is the canonical corner of
    corner c of this incarnation: the whole corner bijection, one tuple
    shared by every incarnation with that map.  Corners may repeat.
    """
    enc = facet * fp.M + sum(1 << c for c in set(corners))
    return fp._table[enc], fp._perms[fp._map_of[enc]]


def square_boundaries_by_corner_map(X):
    """`X.square_boundaries`, each step's edge and sign read through `corner_map`.

    The slow path the template walk is checked against: a square's corners
    (a1, a2), (b1, a2), (b1, b2), (a1, b2) are rebuilt as tuples, each
    step's edge is the class of its corner tuple, and the step is forward
    when the corner map takes its start and stop onto the edge's ends as
    `edge_ends_by_lookup` orders them.
    """
    fp = X.face_poset
    index, ends = cell_index(X), edge_ends_by_lookup(X)
    out = {}
    for i, cube in enumerate(cubes_by_grouping(X)):
        if X.dims[i] != 2:
            continue
        (a1, b1), (a2, b2) = cube.pairs
        cycle = [(a1, a2), (b1, a2), (b1, b2), (a1, b2), (a1, a2)]
        path = []
        for (u1, u2), (w1, w2) in zip(cycle, cycle[1:]):
            veer = 0 if u1 != w1 else 1  # which coordinate moves
            ecid, phi = corner_map(fp, cube.facet, cube.fixed + cube.pairs[veer] + (u2 if veer == 0 else u1,))
            start, stop = (phi[u1], phi[w1]) if veer == 0 else (phi[u2], phi[w2])
            e = index[ecid]
            path.append((e, 1 if (start, stop) == ends[e][2:] else -1))
        out[i] = path
    return out


def orientable_by_corner_map(X):
    """`X.orientable()`, each top cube's codimension-1 faces read through `corner_map`.

    Deleting corner lo (hi) of direction t gives the face on side 1 (0);
    its transfer sign is (-1)^(t + side) times one flip per other direction
    whose corner map reverses its pair.  Uses the dict `signed_colouring`.
    """
    if not X.all_cubes:
        return None
    D = X.dimension
    if D <= 0:
        return True
    fp = X.face_poset
    index = cell_index(X)
    incidences = {}
    for i, cube in enumerate(cubes_by_grouping(X)):
        if X.dims[i] != D:
            continue
        for t, (lo, hi) in enumerate(cube.pairs):
            for deleted, side in ((lo, 1), (hi, 0)):
                gcid, phi = corner_map(fp, cube.facet, [c for c in cube.corners if c != deleted])
                flips = (-1) ** sum(1 for t2, (a, b) in enumerate(cube.pairs) if t2 != t and phi[a] > phi[b])
                incidences.setdefault(index[gcid], []).append((i, flips * (-1) ** (t + side)))
    adj = {i: [] for i, d in enumerate(X.dims) if d == D}
    for inc in incidences.values():
        if len(inc) != 2:
            return False
        (a, sa), (b, sb) = inc
        adj[a].append((b, -sa * sb))
        adj[b].append((a, -sa * sb))
    return signed_colouring(adj.keys(), adj) is not None


def link_ridges_by_corner_map(fp, tops):
    """The library's ridge table of a link (`cells._link_ridges`), each ridge read through `corner_map`.

    A top's ridge across direction `slot` is its corner face plus both
    corners of every other direction; it is keyed by its class and the
    sorted canonical corners of the corner face.
    """
    ridges = {}
    for fi, (cube, corner_face) in enumerate(tops):
        for slot in range(len(cube.pairs)):
            others = tuple(c for t, pair in enumerate(cube.pairs) if t != slot for c in pair)
            gcid, phi = corner_map(fp, cube.facet, corner_face + others)
            ridges.setdefault((gcid, tuple(sorted(phi[c] for c in corner_face))), []).append((fi, slot))
    return ridges


# --- gluing rows of (target, corner map) pairs ------------------------------


def gluing_rows(rows):
    """Per facet a tuple of (target, corner map) pairs, each distinct map one shared tuple.

    The per-slot storage the flat gluing tables replaced; reads the rows
    as given to the constructor.
    """
    shared = {}
    return tuple(tuple((t, shared.setdefault(tuple(pi), tuple(pi))) for t, pi in row) for row in rows)


def face_records_by_union_find(T, classes):
    """Per class id its canonical (facet, corners) and its children, one per deleted corner; then the vertex rows.

    Read off `classes`, the output of `face_classes_by_union_find(T)`;
    the slow path for `FacePoset.canonical`, `children` and
    `facet_vertices` (a flat list, corner c of facet f at f * L + c).
    """
    L = T.dimension + 1
    least = {}
    for (f, mask), cid in classes.items():
        key = (bin(mask).count("1"), f, _corners(mask, L))
        if cid not in least or key < least[cid]:
            least[cid] = key
    canon = [least[cid][1:] for cid in range(len(least))]
    children = []
    for f, corners in canon:
        mask = sum(1 << c for c in corners)
        children.append(tuple(classes[(f, mask ^ 1 << c)] for c in corners) if len(corners) > 1 else ())
    vertices = [classes[(f, 1 << c)] for f in range(T.facet_count) for c in range(L)]
    return canon, children, vertices


def _corners(mask, L):
    return tuple(c for c in range(L) if mask >> c & 1)


# --- vertex links, all at once ----------------------------------------------


def vertex_links_all_at_once(X):
    """`cells.vertex_links(X)`, every link's data filed before any link is built.

    The slow path the one-link-at-a-time generator is checked against:
    one sweep over the cubes appends each corner's link cell (as a tuple
    of edge ends) and top corner to per-vertex lists, and only then is
    each link numbered and checked.  Uses the library's face poset, cube
    records and link type.
    """
    from multisect.cells import LinkComplex
    from multisect.triangulation import TriangulationError

    if not X.all_cubes:
        raise TriangulationError("vertex links need a cube complex (some label has multiplicity > 2)")
    fp = X.face_poset
    D = X.dimension
    index = cell_index(X)
    ends_at = {i: [] for i, d in enumerate(X.dims) if d == 0}
    tops_at = {v: [] for v in ends_at}
    for i, cube in enumerate(cubes_by_grouping(X)):
        d = X.dims[i]
        if d < 1:
            continue
        f, pairs = cube.facet, cube.pairs
        for choice in product(*pairs):
            corner_face = cube.fixed + choice
            v = index[fp.class_of(f, corner_face)]
            ends = []
            for c, pair in zip(choice, pairs):
                ecid, phi = corner_map(fp, f, corner_face + pair)
                ends.append((index[ecid], phi[c]))
            ends_at[v].append((d, tuple(ends)))
            if d == D >= 2:
                tops_at[v].append((cube, corner_face))

    out = {}
    for v, inc in ends_at.items():
        vertex_ids = sorted({e for _, ends in inc for e in ends})
        vindex = {e: j for j, e in enumerate(vertex_ids)}
        cells_by_dim = [[] for _ in range(max(D - 1, 0))]
        for d, ends in inc:
            if d >= 2:
                cells_by_dim[d - 2].append(tuple(vindex[e] for e in ends))
        reason = simplicial_by_sorted_tuples(cells_by_dim)
        out[v] = LinkComplex(
            vertex_cell=v,
            vertex_ids=tuple(vertex_ids),
            cells_by_dim=tuple(tuple(c) for c in cells_by_dim),
            simplicial=reason is None,
            simplicial_reason=reason,
            _tops=tuple(tops_at[v]),
            _face_poset=fp,
        )
    return out


def simplicial_by_sorted_tuples(cells_by_dim):
    """Why link cells, as vertex-index tuples per dimension from 1 up, are not simplicial, or None.

    The slow path the bitmask test is checked against: per dimension, in
    order, each cell is checked for a repeated vertex and then its sorted
    tuple against those seen.
    """
    for h, cells in enumerate(cells_by_dim, start=1):
        seen = set()
        for cell in cells:
            if len(set(cell)) != len(cell):
                return "a link %d-simplex has a repeated vertex" % h
            key = tuple(sorted(cell))
            if key in seen:
                return "two link %d-simplices share their vertex set" % h
            seen.add(key)
    return None


def flag_by_growing_sets(link):
    """`LinkComplex.flag` with simplices as frozensets and adjacency as sets.

    The slow path the bitmask clique test is checked against: each
    simplex, starting from the edges, is joined with every vertex in the
    intersection of its vertices' neighbour sets, and the join must again
    be a simplex; sizes go up one at a time.
    """
    if not link.simplicial:
        return False, link.simplicial_reason
    have = [{frozenset(cell) for cell in cells} for cells in link.cells_by_dim]
    adj = [set() for _ in range(link.vertex_count)]
    level = have[0] if have else set()
    for a, b in level:
        adj[a].add(b)
        adj[b].add(a)
    for h in range(1, len(have) + 1):
        simplices = have[h] if h < len(have) else set()
        grown = set()
        for sigma in level:
            for w in set.intersection(*(adj[x] for x in sigma)):
                if sigma | {w} not in simplices:
                    return False, "clique of size %d spans no simplex" % (h + 2)
                grown.add(sigma | {w})
        level = grown
    return True, None


def npc_check_all_at_once(X):
    """`cells.npc_check(X)` over `vertex_links_all_at_once` and `flag_by_growing_sets`.

    Returns (ok, all_cubes, link_count, degrees, failures).
    """
    if not X.all_cubes:
        return False, False, 0, (), ((-1, "cells are not all cubes"),)
    links = vertex_links_all_at_once(X)
    failures, degrees = [], []
    for v in sorted(links):
        lk = links[v]
        degrees.append(lk.vertex_count)
        ok, why = flag_by_growing_sets(lk)
        if not ok:
            failures.append((v, why))
    return not failures, True, len(links), tuple(degrees), tuple(failures)


# --- greedy collapse over explicit parent lists ------------------------------


def collapse_by_parent_lists(X):
    """`cells.collapse(X)`'s (pairs removed, spine cells), each face's live parent found by a scan.

    The slow path the count-and-index-sum bookkeeping is checked against:
    one list of parent occurrences per cell, scanned for a live one when
    the face is free; same order (highest parent dimension, then lowest
    face index).  Uses the library's cell complex tables.
    """
    import heapq

    n = len(X.cells)
    children = cell_children(X)
    parents = [[] for _ in range(n)]
    for i, ch in enumerate(children):
        for c in ch:
            parents[c].append(i)
    count = [len(p) for p in parents]
    alive = [True] * n
    heap = []

    def push(i):
        p = next((q for q in parents[i] if alive[q]), None)
        if p is not None:
            heapq.heappush(heap, (-X.dims[p], i))

    for i in range(n):
        if count[i] == 1:
            push(i)
    removed = 0
    while heap:
        _, i = heapq.heappop(heap)
        if not alive[i] or count[i] != 1:
            continue
        p = next((q for q in parents[i] if alive[q]), None)
        if p is None:
            continue
        alive[i] = alive[p] = False
        removed += 1
        for c in children[p] + children[i]:
            if alive[c]:
                count[c] -= 1
                if count[c] == 1:
                    push(c)
    return removed, tuple(i for i in range(n) if alive[i])


# --- streams read one token at a time ----------------------------------------


def load_stream_by_tokens(text):
    """`io.load_stream(text)`, reading one token at a time.

    The slow path the chunked reader is checked against: every token of
    the comment-stripped text is queued up front and popped with the
    error its position names, each gluing line is placed by its face
    index into a row of (target, map) pairs, and the rows are checked
    slot by slot in (f, i) order before the row constructor sees them.
    """
    from collections import deque

    from multisect.partition import VertexPartition
    from multisect.perms import is_perm
    from multisect.triangulation import Triangulation, TriangulationError

    toks = deque()
    for line in text.splitlines():
        toks.extend(line.split("#", 1)[0].split())

    def take(what):
        if not toks:
            raise TriangulationError("unexpected end of input, wanted %s" % what)
        return toks.popleft()

    def take_int(what):
        t = take(what)
        try:
            return int(t)
        except ValueError:
            raise TriangulationError("expected %s, got %r" % (what, t)) from None

    def expect(word):
        t = take("keyword %r" % word)
        if t != word:
            raise TriangulationError("expected %r, got %r" % (word, t))

    def vid(tok):
        body = tok[1:] if tok.startswith("-") else tok
        return int(tok) if body.isascii() and body.isdigit() else tok

    expect("dim")
    n = take_int("dimension")
    if n < 1:
        raise TriangulationError("dimension %d out of range" % n)
    kind = take("'facets' or 'vertexfacets'")
    m = take_int("facet count")
    if m < 1:
        raise TriangulationError("facet count %d out of range" % m)
    L = n + 1
    if kind == "facets":
        rows = []
        for f in range(m):
            row = [None] * L
            for _ in range(L):
                i = take_int("face index (facet %d)" % f)
                if not 0 <= i <= n:
                    raise TriangulationError("facet %d: face index %d out of range" % (f, i))
                if row[i] is not None:
                    raise TriangulationError("facet %d: face %d listed twice" % (f, i))
                t = take_int("target facet")
                row[i] = (t, tuple(take_int("bijection entry") for _ in range(L)))
            rows.append(row)
        checked = set()
        for f, row in enumerate(rows):
            for i, (t, pi) in enumerate(row):
                if not 0 <= t < m:
                    raise TriangulationError("facet %d slot %d: target %d out of range" % (f, i, t))
                if pi not in checked:
                    if not is_perm(pi):
                        raise TriangulationError("facet %d slot %d: corner map %r is not a bijection" % (f, i, pi))
                    checked.add(pi)
                if t == f and pi[i] == i:
                    raise TriangulationError("facet %d slot %d glued to itself" % (f, i))
        T = Triangulation(n, rows)
    elif kind == "vertexfacets":
        T = Triangulation.from_vertex_facets(n, [tuple(vid(take("vertex identifier")) for _ in range(L)) for _ in range(m)])
    else:
        raise TriangulationError("expected 'facets' or 'vertexfacets', got %r" % kind)

    P = None
    if toks and toks[0] == "k":
        toks.popleft()
        k = take_int("class count")
        fp = T.face_poset
        by_id = {}
        if T.vertex_ids is not None:
            for v, ids in zip(fp.facet_vertices, (x for row in T.vertex_ids for x in row)):
                by_id[str(ids)] = v
        labels = [None] * fp.dim_start[1]
        while toks and toks[0] == "v":
            toks.popleft()
            key = take("vertex key")
            lab = take_int("class label")
            if key in by_id:
                cid = by_id[key]
            elif ":" in key:
                cid = fp.class_of_key(key)
                if fp.cls_dim[cid] != 0:
                    raise TriangulationError("key %r names a face, not a vertex" % key)
            else:
                raise TriangulationError("unknown vertex %r" % key)
            if labels[cid] is not None and labels[cid] != lab:
                raise TriangulationError("vertex %r assigned two labels" % key)
            labels[cid] = lab
        missing = sum(1 for x in labels if x is None)
        if missing:
            raise TriangulationError("partition misses %d vertex classes" % missing)
        P = VertexPartition(k=k, labels=tuple(labels), scheme="explicit")
    if toks:
        raise TriangulationError("trailing input starting at %r" % toks[0])
    return T, P

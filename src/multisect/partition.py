"""Vertex partitions and the checks that make them multisection-grade.

A partition assigns each vertex class a label in {0..k}.  Validation
rebuilds, for every nonempty subset of labels, the cell complex the
corresponding region collapses onto, and measures its dimension after
collapsing.  The verdicts are proved directly on the complexes rather
than inferred from the construction that produced the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import cells as cells_mod
from .perms import compose, identity, invert
from .triangulation import Limits, Triangulation, TriangulationError
from .unionfind import components

SCHEMES = ("odd-bary", "even-bary", "even-npc", "pairs", "explicit")


@dataclass(frozen=True)
class VertexPartition:
    """Labels for the vertex classes of a triangulation, classes 0..k."""

    k: int
    labels: Tuple[int, ...]
    scheme: str = "explicit"

    def __post_init__(self):
        if self.k < 0:
            raise TriangulationError("partition needs k >= 0")
        for v, l in enumerate(self.labels):
            if not isinstance(l, int) or not 0 <= l <= self.k:
                raise TriangulationError(
                    "vertex class %d has label %r, outside 0..%d" % (v, l, self.k)
                )

    def counts(self) -> Tuple[int, ...]:
        out = [0] * (self.k + 1)
        for l in self.labels:
            out[l] += 1
        return tuple(out)


def coordinate_labels(T: Triangulation) -> Tuple[int, ...]:
    """Per-vertex-class coordinate: the corner slot the class takes in every facet.

    Raises when some vertex class sits at two different slots.
    """
    fp = T.face_poset
    out: List[Optional[int]] = [None] * fp.dim_start[1]
    for k, v in enumerate(fp.facet_vertices):
        c = k % fp.L
        if out[v] is None:
            out[v] = c
        elif out[v] != c:
            raise TriangulationError("corner slots do not determine carriers (vertex class %s)" % T.vertex_key(v))
    return tuple(out)  # type: ignore[return-value]


def pairs_coordinates(T: Triangulation) -> Tuple[int, ...]:
    """`coordinate_labels` for the `pairs` scheme, whose refusal names what it needs."""
    try:
        return coordinate_labels(T)
    except TriangulationError as e:
        raise TriangulationError("pairs needs coordinate corner slots: %s" % e) from None


def scheme_partition(
    T: Triangulation,
    scheme: str,
    *,
    carriers=None,
    sides: Optional[Dict[int, int]] = None,
    blocks: Optional[Sequence[Sequence[int]]] = None,
    labels=None,
    k: Optional[int] = None,
) -> VertexPartition:
    """Build a partition by one of the named rules.

    odd-bary / even-bary label each barycentre by half its carrier
    dimension.  even-npc expects carriers of a second subdivision plus a
    0/1 side for each top-dimensional carrier.  pairs groups coordinates
    into blocks: `labels` when given, else `pairs_coordinates`.  explicit
    takes the labels as-is.
    """
    n = T.dimension
    fp = T.face_poset
    nv = fp.dim_start[1]
    if scheme not in SCHEMES:
        raise TriangulationError("unknown partition scheme %r (have %s)" % (scheme, ", ".join(SCHEMES)))

    if scheme in ("odd-bary", "even-bary", "even-npc"):
        npc = scheme == "even-npc"
        if carriers is None or (npc and sides is None):
            raise TriangulationError(
                "%s needs carrier labels %s" % (scheme, "and top-carrier sides" if npc else "of the subdivision")
            )
        odd = scheme == "odd-bary"
        if n % 2 != odd:
            raise TriangulationError("%s needs %s dimension, got %d" % (scheme, "odd" if odd else "even", n))
        dims = tuple(carriers.dims)
        if len(dims) != nv:
            raise TriangulationError("carrier labels cover %d vertex classes, expected %d" % (len(dims), nv))
        if not npc:
            return VertexPartition(k=n // 2, labels=tuple(d // 2 for d in dims), scheme=scheme)
        out = []
        for v, d in enumerate(dims):
            if d == n:
                s = sides.get(v)
                if s not in (0, 1):
                    raise TriangulationError("vertex class %s has a top carrier but no 0/1 side" % fp.key(v))
                out.append(s)
            elif d <= 1:
                out.append(d)
            else:
                out.append(d // 2 + 1)
        return VertexPartition(k=n // 2, labels=tuple(out), scheme=scheme)

    if scheme == "pairs":
        if blocks is None:
            raise TriangulationError("pairs needs blocks over the coordinate labels")
        coord = tuple(labels) if labels is not None else pairs_coordinates(T)
        if len(coord) != nv:
            raise TriangulationError("coordinate labels cover %d vertex classes, expected %d" % (len(coord), nv))
        block_of: Dict[int, int] = {}
        for b, members in enumerate(blocks):
            for x in members:
                if x in block_of:
                    raise TriangulationError("coordinate label %d sits in two blocks" % x)
                block_of[x] = b
        try:
            lab = tuple(block_of[x] for x in coord)
        except KeyError as e:
            raise TriangulationError("coordinate label %s is in no block" % e) from None
        return VertexPartition(k=len(blocks) - 1, labels=lab, scheme="pairs")

    # explicit
    if labels is None:
        raise TriangulationError("explicit scheme needs labels")
    if isinstance(labels, dict):
        try:
            lab = tuple(labels[v] for v in range(nv))
        except KeyError as e:
            raise TriangulationError("vertex class %s has no label" % fp.key(e.args[0])) from None
    else:
        lab = tuple(labels)
    if len(lab) != nv:
        raise TriangulationError("labels cover %d vertex classes, expected %d" % (len(lab), nv))
    kk = max(lab) if k is None else k
    return VertexPartition(k=kk, labels=lab, scheme="explicit")


@dataclass(eq=False)
class ClassGraph:
    label: int
    vertices: int
    edges: int
    connected: bool
    genus: int          # 1 - euler characteristic of the spanned subcomplex


@dataclass(eq=False)
class SubsetReport:
    subset: Tuple[int, ...]
    nonempty: bool
    connected: bool
    closed: bool
    euler: int
    cell_counts: Tuple[int, ...]
    raw_dim: int
    spine_dim: int
    required_dim: Optional[int]       # Definition 1.1 bound; None for the full subset
    generalized_dim: Optional[int]    # codimension-2 bound; None for the full subset
    all_cubes: bool


@dataclass(eq=False)
class ValidationReport:
    n: int
    k: int
    profile_ok: bool
    profiles: Tuple[Tuple[int, ...], ...]
    class_graphs: Tuple[ClassGraph, ...]
    subsets: Tuple[SubsetReport, ...]
    central: SubsetReport
    supports_multisection: bool
    supports_generalized: bool
    diagnostics: Tuple[str, ...]

    def genera(self) -> Tuple[int, ...]:
        return tuple(g.genus for g in self.class_graphs)

    def subset_report(self, subset) -> SubsetReport:
        want = tuple(sorted(subset))
        for rep in self.subsets:
            if rep.subset == want:
                return rep
        if want == self.central.subset:
            return self.central
        raise KeyError(subset)


def validate(T: Triangulation, P: VertexPartition) -> ValidationReport:
    """Check the partition against the multisection conditions.

    Failures never raise; they land in the report and its diagnostics.
    Two necessary conditions on a closed manifold are checked last, on
    data at hand; each failure adds a diagnostic and refuses a
    multisection.  A closed odd-dimensional manifold has Euler
    characteristic 0, and in dimension 3 a closed connected central
    surface bounds each genus-g handlebody, so has Euler characteristic
    2 - 2g.  The report is kept on T's labelling record, for P's labels
    and k, and returned again while they stay.
    """
    n = T.dimension
    k = P.k
    fp = T.face_poset
    nv = fp.dim_start[1]
    if len(P.labels) != nv:
        raise TriangulationError("partition labels cover %d vertex classes, expected %d" % (len(P.labels), nv))
    if k > 15:
        raise TriangulationError("subset enumeration over k=%d classes is not supported (k <= 15)" % k)
    rec = cells_mod.labelling(T, P)
    if rec.report is not None and rec.report.k == k:
        return rec.report
    labels = P.labels
    diagnostics: List[str] = []

    # one tuple per distinct profile, shared by the facets that have it
    profiles: List[Tuple[int, ...]] = []
    distinct: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for f in range(T.facet_count):
        row = [0] * (k + 1)
        for v in fp.facet_vertices[f * fp.L : (f + 1) * fp.L]:
            row[labels[v]] += 1
        key = tuple(row)
        profiles.append(distinct.setdefault(key, key))
    # odd n: two vertices of every label; even n: one label once, the others twice
    want = [2] * (k + 1) if n % 2 else [1] + [2] * k
    profile_ok = all(sorted(row) == want for row in distinct)
    if not profile_ok:
        diagnostics.append(
            "some facet lacks the %s profile" % ("two-vertices-per-class" if n % 2 else "one-singleton")
        )

    def subset_report(S: Tuple[int, ...], req: Optional[int] = None, gen: Optional[int] = None) -> SubsetReport:
        X = cells_mod.extract(T, P, S)
        res = cells_mod.collapse(X)
        return SubsetReport(
            subset=S,
            nonempty=bool(X.cells),
            connected=X.connected(),
            closed=X.closed(),
            euler=X.euler(),
            cell_counts=X.counts(),
            raw_dim=X.dimension,
            spine_dim=res.spine_dim,
            required_dim=req,
            generalized_dim=gen,
            all_cubes=X.all_cubes,
        )

    subset_reports: List[SubsetReport] = []
    subset_diagnostics: List[str] = []
    ok_mult = profile_ok
    ok_gen = True
    full = tuple(range(k + 1))
    for r in range(1, k + 1):
        req = r - 1 if (n == 2 * k and r == k) else r
        gen = n - r - 1
        for S in combinations(full, r):
            rep_s = subset_report(S, req, gen)
            subset_reports.append(rep_s)
            if not rep_s.nonempty or not rep_s.connected:
                ok_mult = False
                subset_diagnostics.append("subset %s complex is empty or disconnected" % (S,))
            if rep_s.spine_dim > req:
                ok_mult = False
                subset_diagnostics.append(
                    "subset %s collapses to dimension %d, above the bound %d" % (S, rep_s.spine_dim, req)
                )
            if not rep_s.nonempty or rep_s.spine_dim > gen:
                ok_gen = False
                subset_diagnostics.append(
                    "subset %s misses the codimension-2 spine bound %d" % (S, gen)
                )
    # a face carrying every label lies in a facet that does, so a nonempty central complex has dimension n - k
    central_report = subset_report(full)
    if not central_report.nonempty:
        ok_mult = False
        ok_gen = False
        subset_diagnostics.append("central complex is empty")
    elif not central_report.connected or not central_report.closed:
        ok_mult = False
        subset_diagnostics.append("central complex is not a closed connected complex")

    # class graph l is the (l,) complex; the loop makes singletons first, and for k = 0 (0,) is central
    class_graphs = []
    for l, rep_l in enumerate(subset_reports[: k + 1] if k else [central_report]):
        counts = rep_l.cell_counts
        g = ClassGraph(
            label=l,
            vertices=counts[0] if counts else 0,
            edges=counts[1] if len(counts) > 1 else 0,
            connected=rep_l.connected,
            genus=1 - rep_l.euler,
        )
        class_graphs.append(g)
        if not g.vertices:
            diagnostics.append("class %d has no vertices" % l)
        elif not g.connected:
            diagnostics.append("class graph %d disconnected" % l)
    ok_mult = ok_mult and all(g.connected for g in class_graphs)
    failed: List[str] = []
    ambient_euler = T.euler()
    if n % 2 == 1 and ambient_euler != 0:
        failed.append("euler characteristic %d, not 0 as on a closed odd-dimensional manifold" % ambient_euler)
    c = central_report
    if n == 3 and c.raw_dim == 2 and c.closed and c.connected:
        for g in class_graphs:
            if c.euler != 2 - 2 * g.genus:
                failed.append(
                    "central euler characteristic %d, not %d as on the boundary of a genus-%d handlebody"
                    % (c.euler, 2 - 2 * g.genus, g.genus)
                )
    rec.report = ValidationReport(
        n=n,
        k=k,
        profile_ok=profile_ok,
        profiles=tuple(profiles),
        class_graphs=tuple(class_graphs),
        subsets=tuple(subset_reports),
        central=central_report,
        supports_multisection=ok_mult and not failed,
        supports_generalized=ok_gen,
        diagnostics=tuple(diagnostics + subset_diagnostics + failed),
    )
    return rec.report


@dataclass(eq=False)
class SymRep:
    base: int
    trivial: bool
    corner_labels: Optional[Tuple[Tuple[int, ...], ...]]
    generators: Tuple[Tuple[int, ...], ...]
    orbits: Tuple[Tuple[int, ...], ...]


def _check_even_connected(T: Triangulation) -> None:
    fp = T.face_poset
    n = T.dimension
    if n >= 2:
        for cid in fp.class_ids_of_dim(n - 2):
            if fp.cls_count[cid] % 2 != 0:
                raise TriangulationError(
                    "symmetric representation undefined: face %s has odd degree %d"
                    % (fp.key(cid), fp.cls_count[cid])
                )
    if not T.connected():
        raise TriangulationError("symmetric representation needs a connected triangulation")


def _propagate_tree(T: Triangulation):
    """Breadth-first corner labelings, and each closing slot as (target facet, labeling propagated there)."""
    m = T.facet_count
    L = T.dimension + 1
    lab: List[Optional[Tuple[int, ...]]] = [None] * m
    lab[0] = identity(L)
    order = [0]
    closing: List[Tuple[int, Tuple[int, ...]]] = []
    head = 0
    while head < len(order):
        f = order[head]
        head += 1
        for i in range(L):
            t, pi = T.gluing(f, i)
            prop = compose(lab[f], invert(pi))
            if lab[t] is None:
                lab[t] = prop
                order.append(t)
            else:
                closing.append((t, prop))
    return lab, closing


def symmetric_representation(T: Triangulation) -> SymRep:
    """Reflection monodromy of corner labelings.

    Labels {0..n} spread from a base facet by reflecting across ridges.
    Trivial when every closed reflection path brings the labeling back
    unchanged; then the global labeling is returned.  Otherwise the
    mismatch permutations generate the monodromy.
    """
    _check_even_connected(T)
    L = T.dimension + 1
    lab, closing = _propagate_tree(T)
    gens: List[Tuple[int, ...]] = []
    seen = set()
    ident = identity(L)
    for t, prop in closing:
        # permutation of the label alphabet sending the stored labeling to the propagated one
        g = compose(prop, invert(lab[t]))
        if g != ident and g not in seen:
            seen.add(g)
            gens.append(g)
    # orbits are numbered by their least labels
    orbit, count = components(L, list(range(L)) * len(gens), [y for g in gens for y in g])
    orbits = tuple(tuple(x for x in range(L) if orbit[x] == k) for k in range(count))
    trivial = not gens
    return SymRep(
        base=0,
        trivial=trivial,
        corner_labels=tuple(lab) if trivial else None,  # type: ignore[arg-type]
        generators=tuple(gens),
        orbits=orbits,
    )


def labeling_cover(T: Triangulation, limits: Limits = Limits()) -> Triangulation:
    """Smallest cover on which the reflection labeling is global.

    Facets are the (facet, labeling) pairs reachable from the base; the
    covering degree is the number of labelings over the base facet.
    Raises as soon as the walk finds more facets than the ceiling.
    """
    _check_even_connected(T)
    L = T.dimension + 1
    ceiling = limits.ceiling()
    start = (0, identity(L))
    index: Dict[Tuple[int, Tuple[int, ...]], int] = {start: 0}
    order = [start]
    glu = []
    head = 0
    while head < len(order):
        f, labf = order[head]
        head += 1
        row = []
        for i in range(L):
            t, pi = T.gluing(f, i)
            nxt = (t, compose(labf, invert(pi)))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                if len(order) > ceiling:
                    raise TriangulationError("labeling cover would produce more than the ceiling of %d facets" % ceiling)
            row.append((index[nxt], pi))
        glu.append(row)
    extras = {"cover_sheets": tuple(order), "cover_degree": len(order) // T.facet_count}
    return Triangulation(T.dimension, glu, extras=extras)


@dataclass(eq=False)
class TwistedReport:
    admissible: bool
    blocks: Tuple[Tuple[int, ...], ...]
    block_action: Tuple[Tuple[int, ...], ...]   # per generator, image block of each block
    union_connected: bool
    reason: Optional[str]

    def __bool__(self) -> bool:
        return self.admissible


def twisted_admissible(T: Triangulation, P: VertexPartition, R: SymRep) -> TwistedReport:
    """Whether the monodromy permutes the alphabet blocks of P.

    P partitions the corner label alphabet {0..n} (what a global
    labeling would carry), not the vertex classes.  Admissible when
    every generator maps each block onto a block; the union graph joins
    vertex classes along edges whose two corner labels share a block.
    """
    fp = T.face_poset
    L = T.dimension + 1
    if len(P.labels) != L:
        raise TriangulationError(
            "partition has %d labels, the corner alphabet needs %d" % (len(P.labels), L)
        )
    blocks_map: Dict[int, List[int]] = {}
    for x in range(L):
        blocks_map.setdefault(P.labels[x], []).append(x)
    order = sorted(blocks_map)
    blocks = tuple(tuple(blocks_map[b]) for b in order)
    posn = {b: i for i, b in enumerate(order)}

    action: List[Tuple[int, ...]] = []
    admissible = True
    reason = None
    for g in R.generators:
        row = []
        for bi, members in enumerate(blocks):
            images = {P.labels[g[x]] for x in members}
            if len(images) != 1 or len(blocks[posn[next(iter(images))]]) != len(members):
                admissible = False
                reason = "generator image of block %d straddles blocks" % bi
                row.append(-1)
            else:
                row.append(posn[images.pop()])
        action.append(tuple(row))

    lab, _ = _propagate_tree(T)
    # the two end classes of each edge whose corner labels share a block, flat
    ends = [
        fp.facet_vertices[f * L + c]
        for f in range(T.facet_count)
        for a, b in combinations(range(L), 2)
        if P.labels[lab[f][a]] == P.labels[lab[f][b]]
        for c in (a, b)
    ]
    _, count = components(fp.dim_start[1], ends[::2], ends[1::2])
    return TwistedReport(
        admissible=admissible,
        blocks=blocks,
        block_action=tuple(action),
        union_connected=count == 1,
        reason=reason,
    )

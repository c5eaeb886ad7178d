"""Gluing validation, face classes, covers and isomorphism."""

import gc
import pathlib
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect.cells import extract
from multisect.io import load_stream, save_stream
from multisect.partition import VertexPartition, scheme_partition
from multisect.subdivide import barycentric, stellar_facet
from multisect.triangulation import FacePoset, Triangulation, TriangulationError, face_key, parse_face_key
from multisect.zoo import cross_projective, cross_sphere, double_simplex

ID4 = (0, 1, 2, 3)


def doubled_rows(n):
    ident = tuple(range(n + 1))
    return [[(1, ident)] * (n + 1), [(0, ident)] * (n + 1)]


def twisted_chain():
    """Two 3-simplices glued along all faces, one gluing twisted; non-orientable."""
    text = (pathlib.Path(__file__).parent / "fixtures" / "twisted_chain.txt").read_text()
    return load_stream(text)[0]


def relabel(T, rng):
    """T with its facets renumbered and the corners of each facet permuted by rng."""
    return Triangulation(T.dimension, relabelled_rows(T, rng))


def relabelled_rows(T, rng):
    return renamed_rows(T, *relabelling(T, rng))


def relabelling(T, rng):
    """A drawn new number for every facet, and for every corner of each facet."""
    m, L = T.facet_count, T.dimension + 1
    return rng.sample(range(m), m), [rng.sample(range(L), L) for _ in range(m)]


def renamed_rows(T, facet, corner):
    L = T.dimension + 1
    # old (f, i) -> (t, pi) becomes new (facet[f], corner[f][i]) -> (facet[t], pi'),
    # where pi' sends corner[f][c] to corner[t][pi[c]]
    rows = [[None] * L for _ in facet]
    for f, row in enumerate(T.gluings):
        for i, (t, pi) in enumerate(row):
            new_pi = [0] * L
            for c in range(L):
                new_pi[corner[f][c]] = corner[t][pi[c]]
            rows[facet[f]][corner[f][i]] = (facet[t], tuple(new_pi))
    return rows


def disjoint_union(*parts):
    rows = []
    for T in parts:
        offset = len(rows)
        rows += [[(t + offset, pi) for t, pi in row] for row in T.gluings]
    return Triangulation(parts[0].dimension, rows)


def test_doubled_simplex_valid():
    T = Triangulation(3, doubled_rows(3))
    s = T.summary()
    assert s.facet_count == 2
    assert s.face_counts == (4, 6, 4, 2)
    assert s.euler == 0
    assert s.connected and s.pseudo_manifold and s.orientable


def test_self_slot_gluing_rejected():
    rows = doubled_rows(3)
    rows[0][0] = (0, ID4)
    rows[1][0] = (1, ID4)
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


def test_broken_involution_rejected():
    rows = doubled_rows(3)
    rows[1][0] = (0, (1, 0, 2, 3))
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


def test_non_permutation_rejected():
    rows = doubled_rows(3)
    rows[0][0] = (1, (0, 0, 1, 2))
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


def test_target_out_of_range_rejected():
    rows = doubled_rows(3)
    rows[0][2] = (5, ID4)
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


def test_incomplete_row_rejected():
    rows = doubled_rows(3)
    rows[0] = rows[0][:3]
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


@given(st.permutations(list(range(4))))
def test_one_sided_permutation_edit_rejected(perm):
    # Editing one direction of a gluing must break the involution unless
    # the edit is the identity it replaced.
    p = tuple(perm)
    rows = doubled_rows(3)
    rows[0][1] = (1, p)
    if p == ID4:
        Triangulation(3, rows)
        return
    with pytest.raises(TriangulationError):
        Triangulation(3, rows)


@pytest.mark.parametrize(
    "build",
    [lambda: Triangulation(3, doubled_rows(3)), lambda: barycentric(cross_projective(3))[0]],
    ids=["double_simplex(3)", "sd cross_projective(3)"],
)
def test_loaded_corner_maps_are_kept_once(build):
    T, _ = load_stream(save_stream(build()))
    maps = [pi for row in T.gluings for _, pi in row]
    assert len({id(pi) for pi in maps}) == len(set(maps)) < len(maps)


GLUING_INPUTS = {
    **{"double_simplex(%d)" % n: lambda n=n: double_simplex(n) for n in (1, 2, 3, 4, 5)},
    **{"cross_sphere(%d)" % n: lambda n=n: cross_sphere(n) for n in (1, 2, 3, 4)},
    **{"cross_projective(%d)" % n: lambda n=n: cross_projective(n) for n in (2, 3, 4, 5)},
    "twisted_chain": twisted_chain,
}


@pytest.mark.parametrize("name", GLUING_INPUTS)
def test_gluing_tables_match_tuple_rows(name):
    # relabelled, so the rows given to the constructor carry many distinct corner maps
    T = GLUING_INPUTS[name]()
    rows = relabelled_rows(T, random.Random(len(name)))
    R, want = Triangulation(T.dimension, rows), oracles.gluing_rows(rows)
    assert R.gluings == want
    assert [R.gluing(f, i) for f in range(R.facet_count) for i in range(R.dimension + 1)] == [g for row in want for g in row]
    # each distinct map is kept once, numbered in order of first appearance, and every read shares it
    assert R.maps == list(dict.fromkeys(pi for row in want for _, pi in row))
    assert {id(pi) for row in R.gluings for _, pi in row} == {id(pi) for pi in R.maps}
    assert R == Triangulation(T.dimension, want) and R.facet_count == T.facet_count


def test_bad_map_in_two_slots_is_reported_at_the_first():
    rows = doubled_rows(3)
    rows[0][2] = (1, (0, 0, 1, 2))
    rows[1][1] = (0, (0, 0, 1, 2))
    text = "dim 3\nfacets 2\n" + "".join(
        "%d %d %s\n" % (i, t, " ".join(map(str, pi))) for row in rows for i, (t, pi) in enumerate(row)
    )
    for build in (lambda: Triangulation(3, rows), lambda: load_stream(text)):
        with pytest.raises(TriangulationError) as err:
            build()
        assert str(err.value) == "facet 0 slot 2: corner map (0, 0, 1, 2) is not a bijection"


def test_involution_break_is_caught_against_a_kept_inverse():
    # every slot of facet 0 carries the 3-cycle c and every slot of facet 1
    # its inverse, each slot its own list; the break puts c, a kept map whose
    # kept inverse is another tuple, on a back slot
    c, c_inv = (1, 2, 0), (2, 0, 1)
    rows = [[(1, list(c)) for _ in range(3)], [(0, list(c_inv)) for _ in range(3)]]
    T = Triangulation(2, rows)
    assert len({id(pi) for row in T.gluings for _, pi in row}) == 2
    rows[1][1] = (0, list(c))
    with pytest.raises(TriangulationError) as err:
        Triangulation(2, rows)
    assert str(err.value) == "gluing involution broken between facet 0 slot 0 and facet 1 slot 1"


@pytest.mark.parametrize("slot", [0, 3])
@pytest.mark.parametrize("kind", ["two targets swapped", "one target repointed"])
def test_identity_tables_name_the_first_broken_slot(kind, slot):
    # each slot column of a barycentric output is an involution of its facets;
    # broken, the tables are checked slot by slot, which names the first bad one
    S = barycentric(double_simplex(3))[0]
    L, m = S.dimension + 1, S.facet_count
    assert S.maps == [(0, 1, 2, 3)]
    targets = array("i", S.targets)
    a, b = 30 * L + slot, 7 * L + slot
    if kind == "two targets swapped":
        targets[a], targets[b] = targets[b], targets[a]
    else:
        targets[a] = (targets[a] + 1) % m
    k = next(k for k, t in enumerate(targets) if targets[t * L + k % L] != k // L)
    with pytest.raises(TriangulationError) as err:
        Triangulation._from_tables(S.dimension, targets, S.map_ids, S.maps)
    want = "gluing involution broken between facet %d slot %d and facet %d slot %d" % (k // L, slot, targets[k], slot)
    assert k % L == slot and str(err.value) == want
    assert Triangulation._from_tables(S.dimension, S.targets, S.map_ids, S.maps) == S


def test_face_key_round_trip():
    assert face_key(3, (0, 2)) == "3:0.2"
    assert parse_face_key("3:0.2") == (3, (0, 2))
    with pytest.raises(TriangulationError):
        parse_face_key("3:")


def test_cross_sphere3_face_census():
    T = cross_sphere(3)
    s = T.summary()
    assert s.face_counts == tuple(oracles.orthant_face_counts(3))
    assert s.face_counts == (8, 24, 32, 16)
    assert s.euler == oracles.euler_from_counts(s.face_counts) == 0
    assert s.connected and s.orientable and s.even


def test_cross_sphere3_codim2_degrees():
    T = cross_sphere(3)
    fp = T.face_poset
    degs = sorted(fp.cls_count[c] for c in fp.class_ids_of_dim(1))
    assert degs == sorted(oracles.orthant_codim2_degrees(3))
    assert set(degs) == {4}


def test_cross_sphere3_dual_graph():
    # facet f is the f-th sign vector, and its gluing targets are the orthants one sign flip away
    T = cross_sphere(3)
    assert T.facet_count == 16 and T.connected()
    adj = {f: set(T.targets[f * 4 : f * 4 + 4]) for f in range(16)}
    assert adj == oracles.orthant_adjacency(3)
    assert set(map(len, adj.values())) == {4}


def test_euler_alternating_sum_matches_summary():
    for T in (double_simplex(4), cross_sphere(2), cross_projective(3)):
        s = T.summary()
        assert s.euler == oracles.euler_from_counts(s.face_counts)


def test_codim2_links_are_circles():
    T = cross_sphere(3)
    fp = T.face_poset
    for cid in fp.class_ids_of_dim(1):
        lk, _ = T.link(fp.canonical(cid))
        s = lk.summary()
        assert s.dimension == 1
        assert s.facet_count == 4
        assert s.connected
        assert s.euler == 0


def test_vertex_link_in_cross_sphere3_is_octahedron():
    T = cross_sphere(3)
    fp = T.face_poset
    cid = fp.class_ids_of_dim(0)[0]
    lk, _ = T.link(fp.canonical(cid))
    s = lk.summary()
    assert s.face_counts == (6, 12, 8)
    assert s.euler == 2


def test_betti_of_doubled_4_simplex():
    # Independent rank computation over the subset chain complex.
    T = double_simplex(4)
    s = T.summary()
    assert s.face_counts == (5, 10, 10, 5, 2)
    verts = frozenset(range(5))
    from itertools import combinations

    ranks = [0] * 6
    for d in range(1, 4):
        rows = [
            frozenset(frozenset(c) - {v} for v in c)
            for c in combinations(verts, d + 1)
        ]
        ranks[d] = oracles.gf2_rank_sets(rows)
    top = frozenset(frozenset(c) for c in combinations(verts, 4))
    ranks[4] = oracles.gf2_rank_sets([top, top])
    counts = s.face_counts
    expect = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(5))
    assert s.betti == expect == (1, 0, 0, 0, 1)


def test_orientation_double_cover_of_even_projective():
    T = cross_projective(4)
    s = T.summary()
    assert not s.orientable
    C = T.orientation_double_cover()
    cs = C.summary()
    assert cs.facet_count == 32
    assert cs.connected
    assert cs.orientable
    assert cs.euler == 2 * s.euler
    assert cs.face_counts == tuple(oracles.orthant_face_counts(4))
    assert C.isomorphic_to(cross_sphere(4))


def test_orientation_double_cover_of_orientable_splits():
    T = cross_projective(3)
    C = T.orientation_double_cover()
    cs = C.summary()
    assert cs.facet_count == 16
    assert not cs.connected
    assert cs.betti[0] == 2
    assert cs.euler == 0


def test_cover_is_always_orientable():
    for T in (cross_projective(2), cross_projective(4), double_simplex(3)):
        assert T.orientation_double_cover().summary().orientable


def shuffle_rows(T, order):
    inv = [0] * len(order)
    for new, old in enumerate(order):
        inv[old] = new
    rows = []
    for old in order:
        rows.append([(inv[t], pi) for t, pi in T.gluings[old]])
    return Triangulation(T.dimension, rows)


@given(st.permutations(list(range(8))))
@settings(max_examples=25)
def test_census_is_input_order_independent(order):
    T = cross_sphere(2)
    S = shuffle_rows(T, list(order))
    a, b = S.summary(), T.summary()
    # The orientation field is a per-facet sign witness, so it moves with
    # the input order; every other field is an invariant.
    for name in ("face_counts", "euler", "connected", "pseudo_manifold",
                 "orientable", "even", "betti"):
        assert getattr(a, name) == getattr(b, name)
    assert oracles.canonical_form(S) == oracles.canonical_form(T)
    assert S.isomorphic_to(T)


def test_isomorphic_to_distinguishes_twisted_double():
    twisted = twisted_chain()
    plain = Triangulation(3, doubled_rows(3))
    assert twisted.facet_count == plain.facet_count == 2
    assert not twisted.summary().orientable
    assert not twisted.isomorphic_to(plain)
    assert twisted.isomorphic_to(twisted)


# (name, A, B): each member against itself, the orientation covers against
# what they cover or resemble, and the negative pairs the matcher must reject
ISO_PAIRS = [
    (name, T, T)
    for name, T in [
        ("double_simplex(2)", double_simplex(2)),
        ("double_simplex(3)", double_simplex(3)),
        ("double_simplex(4)", double_simplex(4)),
        ("cross_sphere(2)", cross_sphere(2)),
        ("cross_sphere(3)", cross_sphere(3)),
        ("cross_projective(2)", cross_projective(2)),
        ("cross_projective(3)", cross_projective(3)),
        ("cross_projective(4)", cross_projective(4)),
        ("twisted_chain", twisted_chain()),
    ]
] + [
    (name, A.orientation_double_cover(), B)
    for name, A, B in [
        ("cover(cross_projective(2))~cross_sphere(2)", cross_projective(2), cross_sphere(2)),
        ("cover(cross_projective(3))~cross_sphere(3)", cross_projective(3), cross_sphere(3)),
        ("cover(double_simplex(3))~double_simplex(3)^2", double_simplex(3),
         disjoint_union(double_simplex(3), double_simplex(3))),
        ("cover(twisted_chain)~cover(double_simplex(3))", twisted_chain(),
         double_simplex(3).orientation_double_cover()),
    ]
] + [
    ("twisted_chain~doubled_rows(3)", twisted_chain(), Triangulation(3, doubled_rows(3))),
]


@pytest.mark.parametrize("name, A, B", ISO_PAIRS, ids=[name for name, _, _ in ISO_PAIRS])
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=3)
def test_isomorphic_to_agrees_with_canonical_forms(name, A, B, rng):
    C = relabel(B, rng)
    assert A.isomorphic_to(C) == C.isomorphic_to(A) == oracles.isomorphic_by_canonical_form(A, C)


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40)
def test_isomorphic_to_agrees_on_stellar_towers(n, data):
    # towers of stellar moves have few symmetries, so most start flags are
    # rejected, and about half of the pairs are not isomorphic
    picks = st.lists(st.integers(0, 99), min_size=4, max_size=4)
    towers = []
    for _ in range(2):
        T = double_simplex(n)
        for p in data.draw(picks):
            T = stellar_facet(T, p % T.facet_count)
        towers.append(T)
    A, B = towers[0], relabel(towers[1], data.draw(st.randoms(use_true_random=False)))
    assert A.isomorphic_to(B) == oracles.isomorphic_by_canonical_form(A, B)


def test_isomorphic_to_matches_components_in_any_order():
    A, B = double_simplex(3), cross_projective(3)
    rng = random.Random(3)
    assert disjoint_union(A, B).isomorphic_to(relabel(disjoint_union(B, A), rng))
    tw = twisted_chain()
    assert disjoint_union(A, tw, A).isomorphic_to(relabel(disjoint_union(tw, A, A), rng))
    assert not disjoint_union(A, tw, A).isomorphic_to(disjoint_union(tw, A, tw))


def test_isomorphic_to_tells_equal_sized_components_apart():
    ds3 = double_simplex(3)
    mixed, plain = disjoint_union(ds3, twisted_chain()), disjoint_union(ds3, ds3)
    assert not mixed.isomorphic_to(plain)
    assert not plain.isomorphic_to(mixed)


def test_isomorphic_to_needs_equal_component_sizes():
    ds2 = double_simplex(2)
    split, whole = disjoint_union(ds2, ds2), cross_projective(2)
    assert split.facet_count == whole.facet_count == 4
    assert not split.isomorphic_to(whole)
    assert not whole.isomorphic_to(split)

def test_from_vertex_facets_orthants():
    ids = {}

    def vid(axis, sign):
        return ids.setdefault((axis, sign), len(ids))

    facets = []
    for signs in oracles.orthant_facets(3):
        facets.append([vid(a, s) for a, s in enumerate(signs)])
    T = Triangulation.from_vertex_facets(3, facets)
    s = T.summary()
    assert s.facet_count == 16
    assert s.face_counts == (8, 24, 32, 16)
    assert T.isomorphic_to(cross_sphere(3))


def test_from_vertex_facets_rejects_repeats():
    with pytest.raises(TriangulationError):
        Triangulation.from_vertex_facets(2, [(0, 1, 1), (0, 1, 2)])


def test_from_vertex_facets_rejects_open_boundary():
    with pytest.raises(TriangulationError):
        Triangulation.from_vertex_facets(2, [(0, 1, 2), (0, 1, 3)])


def test_face_poset_class_lookup():
    T = cross_sphere(2)
    fp = T.face_poset
    for cid in range(fp.n_classes):
        f, corners = fp.canonical(cid)
        assert fp.class_of(f, corners) == cid
        assert fp.class_of_key(fp.key(cid)) == cid
    with pytest.raises(TriangulationError):
        fp.class_of(0, ())


def sd3_odd_bary(subset):
    T, carriers = barycentric(double_simplex(3))
    return extract(T, scheme_partition(T, "odd-bary", carriers=carriers), subset)


def rp3_pairs(subset):
    T = cross_projective(3)
    return extract(T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3))), subset)


def twisted_chain_central():
    T, _ = load_stream((pathlib.Path(__file__).parent / "fixtures" / "twisted_chain.txt").read_text())
    return extract(T, VertexPartition(k=1, labels=(0, 1, 0)), (0, 1))


BOUNDARY_INPUTS = {
    "cross_sphere": lambda: cross_sphere(3),
    "cross_projective": lambda: cross_projective(3),
    "double_simplex": lambda: double_simplex(3),
    "sd3 odd-bary central": lambda: sd3_odd_bary((0, 1)),
    "sd3 odd-bary (0,)": lambda: sd3_odd_bary((0,)),
    "RP3 pairs central": lambda: rp3_pairs((0, 1)),
    "RP3 pairs (0,)": lambda: rp3_pairs((0,)),
    "RP3 pairs (1,)": lambda: rp3_pairs((1,)),
    "twisted chain central": twisted_chain_central,
}


@pytest.mark.parametrize("build", BOUNDARY_INPUTS.values(), ids=BOUNDARY_INPUTS.keys())
def test_boundary_columns_compose_to_zero(build):
    X = build()
    counts = X.face_poset.counts() if isinstance(X, Triangulation) else X.counts()
    top = len(counts) - 1
    assert list(X.boundary_columns(top + 1)) == []
    for d in range(1, top + 1):
        lower = list(X.boundary_columns(d - 1))
        upper = list(X.boundary_columns(d))
        assert (len(lower), len(upper)) == (counts[d - 1], counts[d])
        for col in upper:
            assert col >> len(lower) == 0
            acc = 0
            for j in range(len(lower)):
                if col >> j & 1:
                    acc ^= lower[j]
            assert acc == 0


@pytest.mark.parametrize(
    "build, n",
    [(double_simplex, n) for n in range(2, 6)]
    + [(cross_sphere, n) for n in range(2, 5)]
    + [(cross_projective, n) for n in range(2, 6)],
    ids=lambda x: x if isinstance(x, int) else x.__name__,
)
def test_ambient_betti_closed_forms(build, n):
    # spheres have the mod-2 homology of a point plus a top class; RP^n has Betti number 1 in every dimension
    want = (1,) * (n + 1) if build is cross_projective else (1,) + (0,) * (n - 1) + (1,)
    assert build(n).summary().betti == want


def suspension_rp2():
    return load_stream((pathlib.Path(__file__).parent / "fixtures" / "suspension_rp2.txt").read_text())[0]


SUMMARY_BETTI_INPUTS = {
    **{"double_simplex(%d)" % n: (lambda n=n: double_simplex(n)) for n in range(1, 5)},
    **{"cross_sphere(%d)" % n: (lambda n=n: cross_sphere(n)) for n in range(1, 4)},
    **{"cross_projective(%d)" % n: (lambda n=n: cross_projective(n)) for n in range(2, 5)},
    "sd double_simplex(2)": lambda: barycentric(double_simplex(2))[0],
    "cross_projective(3) double cover": lambda: cross_projective(3).orientation_double_cover(),
    "twisted chain": twisted_chain,
    "suspension of RP2": suspension_rp2,
}


@pytest.mark.parametrize("name", SUMMARY_BETTI_INPUTS)
def test_summary_betti_matches_elimination(name):
    # the outer ranks come from the facet components, the middle ones from elimination
    T = SUMMARY_BETTI_INPUTS[name]()
    for U in (T, relabel(T, random.Random(1))):
        assert U.summary().betti == oracles.betti_by_elimination(U)


def test_incarnation_maps_cover_class_degree():
    T = cross_sphere(3)
    fp = T.face_poset
    for cid in fp.class_ids_of_dim(1):
        encs = fp.incarnations(cid)
        assert len(encs) == len(set(encs)) == fp.cls_count[cid]
        canonical_corners = list(fp.canonical(cid)[1])
        for enc in encs:
            f, mask = divmod(enc, fp.M)
            corners = [c for c in range(fp.L) if mask >> c & 1]
            got_cid, phi = oracles.corner_map(fp, f, corners)
            assert got_cid == cid and sorted(phi[c] for c in corners) == canonical_corners


FACE_TABLE_INPUTS = {
    **{"double_simplex(%d)" % n: lambda n=n: double_simplex(n) for n in (2, 3, 4)},
    **{"cross_sphere(%d)" % n: lambda n=n: cross_sphere(n) for n in (2, 3, 4)},
    # relabelled, n = 5 keeps its corner maps in two bytes each
    **{"cross_projective(%d)" % n: lambda n=n: cross_projective(n) for n in (2, 3, 4, 5)},
    "twisted_chain": twisted_chain,
    "sd double_simplex(3)": lambda: barycentric(double_simplex(3))[0],
    "sd cross_projective(3)": lambda: barycentric(cross_projective(3))[0],
    "double_simplex(3) + cross_projective(3)": lambda: disjoint_union(double_simplex(3), cross_projective(3)),
    # identity-glued: every gluing map of a subdivision is the identity; relabelled, they are not
    "sd twisted_chain": lambda: barycentric(twisted_chain())[0],
    "sd double_simplex(4)": lambda: barycentric(double_simplex(4))[0],
    "sd double_simplex(3) + sd cross_projective(3)": lambda: disjoint_union(
        barycentric(double_simplex(3))[0], barycentric(cross_projective(3))[0]
    ),
}


def check_face_table(T):
    fp = T.face_poset
    want = oracles.face_classes_by_union_find(T)
    assert {(f, mask): fp._table[f * fp.M + mask] for f, mask in want} == want
    canon, children, vertices = oracles.face_records_by_union_find(T, want)
    assert list(fp.facet_vertices) == vertices
    assert [fp.canonical(cid) for cid in range(fp.n_classes)] == canon
    assert [fp.children(cid) for cid in range(fp.n_classes)] == children
    assert list(fp.cls_canon) == [f * fp.M + sum(1 << c for c in cs) for f, cs in canon]
    sizes = Counter(want.values())
    dims = {cid: bin(mask).count("1") - 1 for (_, mask), cid in want.items()}
    assert list(fp.cls_count) == [sizes[cid] for cid in range(len(sizes))]
    assert list(fp.cls_dim) == [dims[cid] for cid in range(len(dims))]
    assert fp.dim_start == [sum(1 for d in dims.values() if d < k) for k in range(T.dimension + 2)]
    for cid in range(fp.n_classes):
        check_corner_maps(T, cid)


def check_corner_maps(T, cid):
    """incarnations and the face tables' corner maps agree with the oracle's breadth-first maps, also with one corner repeated."""
    fp = T.face_poset
    maps = oracles.incarnation_maps_by_bfs(T, fp.cls_canon[cid])
    assert fp.incarnations(cid) == list(maps)
    for enc, phi in maps.items():
        f, mask = divmod(enc, fp.M)
        corners = [c for c in range(fp.L) if mask >> c & 1]
        for face in (corners, corners + corners[:1]):
            got_cid, got = oracles.corner_map(fp, f, face)
            assert got_cid == cid and {c: got[c] for c in corners} == phi


@pytest.mark.parametrize("name", FACE_TABLE_INPUTS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=3)
def test_face_table_matches_union_find(name, seed):
    # relabelling moves every class's least incarnation, so the visit order
    # meets the classes in a different order; a seed rather than a drawn
    # random, whose draws would overrun on the larger inputs
    T = FACE_TABLE_INPUTS[name]()
    check_face_table(T)
    check_face_table(relabel(T, random.Random(seed)))


def test_corner_map_is_the_incarnation_map():
    # relabelled, so the corner maps are not all the identity
    T = relabel(cross_projective(3), random.Random(0))
    fp = T.face_poset
    for cid in range(fp.n_classes):
        check_corner_maps(T, cid)
    # every map is a whole corner bijection, and equal maps are one tuple
    maps = [oracles.corner_map(fp, f, [c])[1] for f in range(T.facet_count) for c in range(fp.L)]
    assert all(sorted(phi) == list(range(fp.L)) for phi in maps)
    assert len({id(phi) for phi in maps}) == len(set(maps)) < len(maps)


def test_corner_maps_keep_no_memory_per_incarnation():
    T = barycentric(cross_sphere(3))[0]
    fp = T.face_poset
    faces = [
        (f, [c for c in range(fp.L) if mask >> c & 1]) for f in range(T.facet_count) for mask in range(1, fp.M)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f, corners in faces:
            oracles.corner_map(fp, f, corners)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_face_poset_build_keeps_no_table_per_slot():
    # sd(∂ 4-crosspolytope), 384 facets: a table of one 4-tuple per gluing
    # slot made the build peak at 0.26 MiB; without it the peak is 0.07 MiB
    T = barycentric(cross_sphere(3))[0]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fp = FacePoset(T)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert fp.n_classes == 1696
    assert peak < 0.125 * 2**20


def test_identity_walk_holds_one_size_of_columns():
    # sd(∂ 5-crosspolytope), 3,840 facets, 24,482 classes: the walk holds one
    # column of class ids per corner mask of one size, and peaks at 1.26 MiB
    # against the 0.89 MiB it keeps; every mask's column at once passes 2x
    T = barycentric(cross_sphere(4))[0]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fp = FacePoset(T)
        kept, peak = (x - start for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert fp.n_classes == 24482
    assert peak <= 2 * kept


OUTSIDE_FACES = {
    "facet -1": ((-1, (0,)), "out of range"),
    "facet 8": ((8, (0,)), "out of range"),
    "corner 3": ((0, (3,)), "out of range"),
    "corner 8": ((0, (8,)), "out of range"),
    "no corner": ((0, ()), "out of range"),
    "class 26": (26, "out of range"),
    "class -1": (-1, "out of range"),
    "key 0:3": ("0:3", "out of range"),
    "repeated corner": ((0, (0, 0)), "repeated corner"),
    "key 0:0.0": ("0:0.0", "repeated corner"),
}


@pytest.mark.parametrize("face, reason", OUTSIDE_FACES.values(), ids=OUTSIDE_FACES)
def test_link_refuses_faces_outside_the_table(face, reason):
    T = cross_sphere(2)
    assert T.facet_count == 8 and T.face_poset.n_classes == 26
    with pytest.raises(TriangulationError, match=reason):
        T.link(face)

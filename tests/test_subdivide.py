"""Subdivision operators: flags, matched-pair moves, cones, joins."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect.io import save_stream
from multisect.partition import VertexPartition, scheme_partition, validate
from multisect.subdivide import (
    Limits,
    barycentric,
    infer_sides,
    join,
    pachner_2n_pass,
    slot_carriers,
    stellar_facet,
)
from multisect.triangulation import Triangulation, TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex
from test_triangulation import FACE_TABLE_INPUTS, relabel, relabelling, renamed_rows


def triangle_boundary():
    return Triangulation.from_vertex_facets(1, [(0, 1), (1, 2), (2, 0)])


def test_barycentric_flag_count():
    T, carriers = barycentric(double_simplex(3))
    assert T.facet_count == 2 * math.factorial(4)
    s = T.summary()
    assert s.euler == 0
    assert s.betti == (1, 0, 0, 1)
    assert s.connected and s.orientable


def test_barycentric_is_simplicial():
    T, _ = barycentric(double_simplex(3))
    fp = T.face_poset
    seen = set()
    for f in range(T.facet_count):
        classes = tuple(sorted(fp.class_of(f, (j,)) for j in range(4)))
        assert len(set(classes)) == 4
        assert classes not in seen
        seen.add(classes)


def test_barycentric_carrier_census():
    T, carriers = barycentric(double_simplex(3))
    hist = [0] * 4
    for d in carriers.dims:
        hist[d] += 1
    # one barycentre per input face class
    assert hist == [4, 6, 4, 2]
    assert len(carriers.dims) == len(T.face_poset.class_ids_of_dim(0))


def test_barycentric_facets_are_rainbow():
    T, carriers = barycentric(double_simplex(3))
    fp = T.face_poset
    for f in range(T.facet_count):
        for j in range(4):
            assert carriers.dims[fp.class_of(f, (j,))] == j


def test_slot_carriers_recovers_dims():
    T, carriers = barycentric(double_simplex(3))
    assert slot_carriers(T).dims == carriers.dims
    T2, carriers2 = barycentric(T)
    assert slot_carriers(T2).dims == carriers2.dims


@pytest.mark.parametrize("name", FACE_TABLE_INPUTS)
def test_carriers_match_class_lookup(name):
    # a relabelled input moves every face's canonical corners, and its flags glue through other maps
    T0 = FACE_TABLE_INPUTS[name]()
    for T in (T0, relabel(T0, random.Random(0))):
        S, carriers = barycentric(T)
        faces = oracles.carrier_faces_by_class_lookup(T, S)
        assert carriers.dims == tuple(len(corners) - 1 for _, corners in faces)


@pytest.mark.parametrize(
    "make",
    [
        lambda: double_simplex(2),
        lambda: double_simplex(4),
        lambda: cross_sphere(2),
        lambda: cross_sphere(3),
        lambda: cross_projective(2),
        lambda: cross_projective(3),
    ],
)
def test_barycentric_preserves_homology(make):
    T = make()
    s0 = T.summary()
    S, _ = barycentric(T)
    s1 = S.summary()
    assert S.facet_count == T.facet_count * math.factorial(T.dimension + 1)
    assert s1.euler == s0.euler
    assert s1.betti == s0.betti
    assert s1.orientable == s0.orientable
    assert s1.connected == s0.connected


def test_second_subdivision_size():
    T, _ = barycentric(double_simplex(3))
    T2, _ = barycentric(T)
    assert T2.facet_count == 1152


def test_barycentric_ceiling():
    with pytest.raises(TriangulationError):
        barycentric(double_simplex(3), Limits(facet_ceiling=10))


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("MULTISECT_CEILING", "10")
    with pytest.raises(TriangulationError):
        barycentric(double_simplex(3))
    monkeypatch.setenv("MULTISECT_CEILING", "not-a-number")
    with pytest.raises(TriangulationError):
        barycentric(double_simplex(3))


def sd_even(n):
    T, carriers = barycentric(double_simplex(n))
    P = scheme_partition(T, "even-bary", carriers=carriers)
    return T, P


def test_pachner_pass_doubles_matched_pairs():
    T, P = sd_even(4)
    assert T.facet_count == 240
    last = max(P.labels)
    assert sum(1 for x in P.labels if x == last) == 2
    T2, P2 = pachner_2n_pass(T, P)
    assert T2.facet_count == 480
    assert T2.facet_count == T.facet_count * T.dimension // 2


def test_pachner_pass_preserves_invariants():
    T, P = sd_even(4)
    T2, P2 = pachner_2n_pass(T, P)
    a, b = T.summary(), T2.summary()
    assert b.euler == a.euler == 2
    assert b.betti == a.betti
    assert b.orientable and b.connected
    fp = T2.face_poset
    assert len(fp.class_ids_of_dim(0)) == len(T.face_poset.class_ids_of_dim(0))


def test_pachner_pass_balances_last_class():
    # labels run 0..k, so the matched singleton class is P.k itself
    T, P = sd_even(4)
    before = T.face_poset
    assert all(
        sum(1 for j in range(5) if P.labels[before.class_of(f, (j,))] == P.k) == 1
        for f in range(T.facet_count)
    )
    T2, P2 = pachner_2n_pass(T, P)
    fp = T2.face_poset
    for f in range(T2.facet_count):
        hits = sum(
            1 for j in range(5) if P2.labels[fp.class_of(f, (j,))] == P2.k
        )
        assert hits == 2


def test_pachner_pass_on_projective_four():
    T, carriers = barycentric(cross_projective(4))
    assert T.facet_count == 1920
    P = scheme_partition(T, "even-bary", carriers=carriers)
    T2, P2 = pachner_2n_pass(T, P)
    assert T2.facet_count == 3840
    assert T2.summary().euler == 1


def test_pachner_pass_requires_even_dimension():
    T, carriers = barycentric(double_simplex(3))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    with pytest.raises(TriangulationError):
        pachner_2n_pass(T, P)


def test_pachner_pass_requires_matched_singletons():
    T, _ = sd_even(4)
    fp = T.face_poset
    bad = scheme_partition(T, "explicit", labels=[0] * len(fp.class_ids_of_dim(0)), k=1)
    with pytest.raises(TriangulationError):
        pachner_2n_pass(T, bad)


def relabelled_with_partition(T, P, seed):
    """T under a drawn relabelling, with P carried over to its vertex classes."""
    facet, corner = relabelling(T, random.Random(seed))
    T2 = Triangulation(T.dimension, renamed_rows(T, facet, corner))
    fp, fp2 = T.face_poset, T2.face_poset
    labels = [0] * len(P.labels)
    for f, names in enumerate(corner):
        for c, c2 in enumerate(names):
            labels[fp2.class_of(facet[f], (c2,))] = P.labels[fp.class_of(f, (c,))]
    return T2, VertexPartition(k=P.k, labels=tuple(labels), scheme=P.scheme)


def pachner_outcome(move, T, P):
    """The stream a 2-n pass writes, or the text of its refusal."""
    try:
        return save_stream(*move(T, P), layout="gluing")
    except TriangulationError as e:
        return "refused: %s" % e


SD_EVEN = {"double_simplex(4)": double_simplex, "cross_projective(4)": cross_projective, "cross_sphere(4)": cross_sphere}


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("double_simplex(4)", "cross_projective(4)") for seed in (None, 1, 2, 3)]
    + [("cross_sphere(4)", None)],
)
def test_pachner_pass_matches_pair_table_oracle(name, seed):
    T, carriers = barycentric(SD_EVEN[name](4))
    P = scheme_partition(T, "even-bary", carriers=carriers)
    if seed is not None:
        T, P = relabelled_with_partition(T, P, seed)
    want = pachner_outcome(oracles.pachner_2n_pass_by_pair_tables, T, P)
    assert not want.startswith("refused")
    assert pachner_outcome(pachner_2n_pass, T, P) == want


def odd_bary_three():
    T, carriers = barycentric(double_simplex(3))
    return T, scheme_partition(T, "odd-bary", carriers=carriers)


def short_labels():
    T, P = sd_even(4)
    return T, VertexPartition(k=P.k, labels=P.labels[:-1], scheme=P.scheme)


def no_last_class_corner():
    T, _ = sd_even(4)
    return T, scheme_partition(T, "explicit", labels=[0] * len(T.face_poset.class_ids_of_dim(0)), k=1)


PACHNER_REFUSALS = {
    "odd dimension": odd_bary_three,
    "dimension two": lambda: sd_even(2),
    "label count": short_labels,
    "no last-class corner": no_last_class_corner,
    "two last-class corners": lambda: pachner_2n_pass(*sd_even(4)),
}


@pytest.mark.parametrize("name", PACHNER_REFUSALS)
def test_pachner_refusals_match_the_oracle(name):
    T, P = PACHNER_REFUSALS[name]()
    got = pachner_outcome(pachner_2n_pass, T, P)
    assert got.startswith("refused") and got == pachner_outcome(oracles.pachner_2n_pass_by_pair_tables, T, P)


def test_pachner_pass_matches_the_oracle_on_drawn_last_classes():
    # Most drawn last classes are refused for a facet's count of last-class corners.  The
    # partner and label-conflict refusals are never reached: across its one last-class
    # corner a facet meets a facet whose one corner off the shared face must be its own
    # last-class corner, so the partners pair up, and each new vertex class lies in one old one.
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        T = double_simplex(4) if seed % 2 else relabel(cross_projective(4), rng)
        nv = len(T.face_poset.class_ids_of_dim(0))
        labels = [2 if rng.random() < 0.3 else rng.randrange(2) for _ in range(nv)]
        P = VertexPartition(k=2, labels=tuple(labels), scheme="explicit")
        got = pachner_outcome(pachner_2n_pass, T, P)
        assert got == pachner_outcome(oracles.pachner_2n_pass_by_pair_tables, T, P)
        outcomes.add(got.startswith("refused"))
    assert outcomes == {True, False}


@pytest.mark.parametrize("facet, ids", [
    (0, [(6, 2, 4), (0, 6, 4), (0, 2, 6)]),
    (7, [(6, 3, 5), (1, 6, 5), (1, 3, 6)]),
])
def test_stellar_rows_cone_the_facet(facet, ids):
    # cone piece i has the fresh vertex at corner i; piece 0 keeps the facet's place, the rest are appended
    T = cross_sphere(2)
    S = stellar_facet(T, facet)
    want_ids = list(T.vertex_ids)
    want_ids[facet] = ids[0]
    assert list(S.vertex_ids) == want_ids + ids[1:]


def test_stellar_rows_on_named_ids():
    # no id is a number, so the fresh vertex is 0
    T = Triangulation.from_vertex_facets(1, [("x", "y"), ("y", "z"), ("z", "x")])
    S = stellar_facet(T, 0)
    assert S.vertex_ids == ((0, "y"), ("y", "z"), ("z", "x"), ("x", 0))
    assert "corner_labels" not in S.extras


def test_stellar_on_octahedron():
    T = cross_sphere(2)
    S = stellar_facet(T, 0)
    s = S.summary()
    assert s.facet_count == 10
    assert s.euler == 2
    assert len(S.face_poset.class_ids_of_dim(0)) == 7


def test_stellar_on_doubled_simplex_self_gluing():
    T = double_simplex(3)
    S = stellar_facet(T, 1)
    s = S.summary()
    assert s.facet_count == 5
    assert s.euler == 0
    assert s.betti == (1, 0, 0, 1)


def test_stellar_facet_out_of_range():
    with pytest.raises(TriangulationError):
        stellar_facet(cross_sphere(2), 99)


def test_join_of_triangle_boundaries():
    A = triangle_boundary()
    J = join(A, A)
    s = J.summary()
    assert s.dimension == 3
    assert s.facet_count == 9
    assert s.euler == 0
    assert s.betti == (1, 0, 0, 1)


def test_join_dimension_and_size():
    J = join(triangle_boundary(), cross_sphere(1))
    assert J.dimension == 3
    assert J.facet_count == 12
    assert J.summary().euler == 0


def test_join_requires_vertex_layout():
    with pytest.raises(TriangulationError):
        join(double_simplex(2), triangle_boundary())


@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]))
@settings(max_examples=6)
def test_join_multiplies_facets(a, b):
    J = join(cross_sphere(a), cross_sphere(b))
    assert J.dimension == a + b + 1
    assert J.facet_count == cross_sphere(a).facet_count * cross_sphere(b).facet_count


def test_infer_sides_matches_two_coloring():
    T1, _ = barycentric(double_simplex(2))
    T, carriers = barycentric(T1)
    sides = infer_sides(T, slot_carriers(T))
    # every top barycentre gets a side, adjacent facets get opposite sides
    fp = T.face_poset
    n = T.dimension
    tops = [v for v in fp.class_ids_of_dim(0) if slot_carriers(T).dims[v] == n]
    assert sorted(sides) == sorted(tops)
    assert set(sides.values()) == {0, 1}
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=sides)
    assert validate(T, P).profile_ok


def test_npc_sides_from_dual_bipartition():
    T1, _ = barycentric(double_simplex(2))
    T, carriers = barycentric(T1)
    sides = oracles.sides_by_dual_bipartition(T1, T)
    assert sides == infer_sides(T, carriers) or sides == {
        v: 1 - s for v, s in infer_sides(T, carriers).items()
    }


def test_infer_sides_rejects_unsplittable_tops():
    # one top carrier class only: the facet adjacency closes on itself
    T = cross_projective(2)
    with pytest.raises(TriangulationError):
        infer_sides(T, slot_carriers(T))

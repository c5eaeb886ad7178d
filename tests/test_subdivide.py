"""Subdivision operators: flags, matched-pair moves, cones, joins."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect.partition import scheme_partition, validate
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
    assert carriers.faces is not None
    assert len(carriers.faces) == len(carriers.dims)


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
    sides = oracles.sides_by_dual_bipartition(T1, carriers)
    assert sides == infer_sides(T, carriers) or sides == {
        v: 1 - s for v, s in infer_sides(T, carriers).items()
    }


def test_infer_sides_rejects_unsplittable_tops():
    # one top carrier class only: the facet adjacency closes on itself
    T = cross_projective(2)
    with pytest.raises(TriangulationError):
        infer_sides(T, slot_carriers(T))

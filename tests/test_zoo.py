"""Frozen censuses for the generator families."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect.subdivide import join
from multisect.triangulation import TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex


@pytest.mark.parametrize(
    "n,counts,euler",
    [
        (2, (6, 12, 8), 2),
        (3, (8, 24, 32, 16), 0),
        (4, (10, 40, 80, 80, 32), 2),
    ],
)
def test_cross_sphere_census(n, counts, euler):
    s = cross_sphere(n).summary()
    assert s.face_counts == counts
    assert s.face_counts == tuple(oracles.orthant_face_counts(n))
    assert s.euler == euler
    assert s.connected and s.orientable and s.even and s.pseudo_manifold


@pytest.mark.parametrize(
    "n,counts,euler,orientable",
    [
        (2, (3, 6, 4), 1, False),
        (3, (4, 12, 16, 8), 0, True),
        (4, (5, 20, 40, 40, 16), 1, False),
        (5, (6, 30, 80, 120, 96, 32), 0, True),
    ],
)
def test_cross_projective_census(n, counts, euler, orientable):
    s = cross_projective(n).summary()
    assert s.face_counts == counts
    assert s.face_counts == tuple(oracles.projective_face_counts(n))
    assert s.euler == euler
    assert s.orientable is orientable
    assert s.connected and s.even


def test_projective3_codim2_degrees_all_four():
    T = cross_projective(3)
    fp = T.face_poset
    assert {fp.cls_count[c] for c in fp.class_ids_of_dim(1)} == {4}


@given(st.integers(min_value=1, max_value=6))
def test_double_simplex_euler_parity(n):
    s = double_simplex(n).summary()
    assert s.facet_count == 2
    assert s.euler == 1 + (-1) ** n
    assert s.connected and s.orientable and s.pseudo_manifold


def test_double_simplex_counts():
    assert double_simplex(3).summary().face_counts == (4, 6, 4, 2)
    assert double_simplex(4).summary().face_counts == (5, 10, 10, 5, 2)
    assert double_simplex(5).summary().face_counts == (6, 15, 20, 15, 6, 2)


def test_cross_sphere_is_join_closed():
    A = cross_sphere(1)
    J = join(A, A)
    assert J.facet_count == 16
    assert J.isomorphic_to(cross_sphere(3))
    J2 = join(A, cross_sphere(2))
    assert J2.facet_count == 32
    assert J2.isomorphic_to(cross_sphere(4))


def test_cross_sphere_low_dimensions():
    s1 = cross_sphere(1).summary()
    assert s1.face_counts == (4, 4)
    assert s1.euler == 0


def test_projective_cover_recovers_sphere():
    for n in (2, 4):
        C = cross_projective(n).orientation_double_cover()
        assert C.summary().face_counts == tuple(oracles.orthant_face_counts(n))
        assert C.isomorphic_to(cross_sphere(n))


def test_zoo_guards():
    with pytest.raises(TriangulationError):
        double_simplex(0)
    with pytest.raises(TriangulationError):
        cross_sphere(0)
    with pytest.raises(TriangulationError):
        cross_projective(1)


def test_cross_sphere_ceiling():
    with pytest.raises(TriangulationError):
        cross_sphere(8, ceiling=100)


def test_generators_read_the_ceiling_environment(monkeypatch):
    monkeypatch.setenv("MULTISECT_CEILING", "10")
    assert cross_sphere(2).facet_count == 8
    with pytest.raises(TriangulationError, match="over the ceiling 10"):
        cross_sphere(5)
    with pytest.raises(TriangulationError, match="over the ceiling 10"):
        cross_projective(4)
    assert cross_projective(4, ceiling=16).facet_count == 16


@given(st.integers(min_value=2, max_value=5))
@settings(max_examples=4)
def test_projective_is_half_sphere(n):
    sp = cross_sphere(n).summary().face_counts
    pr = cross_projective(n).summary().face_counts
    assert pr == tuple(c // 2 for c in sp)

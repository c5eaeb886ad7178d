"""Vertex partitions: schemes, validation, symmetry and covers."""

import gc
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect.io import load_stream, save_stream
from multisect.partition import (
    VertexPartition,
    coordinate_labels,
    labeling_cover,
    scheme_partition,
    symmetric_representation,
    twisted_admissible,
    validate,
)
from multisect.subdivide import CarrierLabels, barycentric, infer_sides, pachner_2n_pass, slot_carriers, stellar_facet
from multisect.triangulation import Triangulation, TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def twisted_fixture():
    T, _ = load_stream((FIXTURES / "twisted_chain.txt").read_text())
    return T


def test_partition_label_range_checked():
    with pytest.raises(TriangulationError):
        VertexPartition(k=1, labels=(0, 2))
    with pytest.raises(TriangulationError):
        VertexPartition(k=-1, labels=())


def test_coordinate_labels_on_vertex_layout():
    T = cross_projective(3)
    labs = coordinate_labels(T)
    assert sorted(labs) == [0, 1, 2, 3]
    ident = (0, 1, 2, 3)
    bare = Triangulation(3, [[(1, ident)] * 4, [(0, ident)] * 4])
    assert coordinate_labels(bare) == (0, 1, 2, 3)
    # the cone vertex sits at every slot of its cone pieces
    with pytest.raises(TriangulationError, match=r"^corner slots do not determine carriers \(vertex class 6\)$"):
        coordinate_labels(stellar_facet(cross_sphere(2), 0))


def test_pairs_reads_corner_slots_of_a_loaded_stream():
    # no stream carries metadata: the coordinates are the corner slots the vertex classes keep
    T = load_stream(save_stream(cross_projective(3)))[0]
    assert scheme_partition(T, "pairs", blocks=((0, 1), (2, 3))).labels == (0, 0, 1, 1)


def test_pairs_refuses_slots_that_are_not_coordinates():
    # the cone vertex sits at every slot of its cone pieces; the refusal names the scheme's need
    with pytest.raises(
        TriangulationError,
        match=r"^pairs needs coordinate corner slots: corner slots do not determine carriers \(vertex class 6\)$",
    ):
        scheme_partition(stellar_facet(cross_sphere(2), 0), "pairs", blocks=((0, 1), (2,)))


def test_odd_bary_scheme_census():
    T, carriers = barycentric(double_simplex(3))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    assert P.k == 1
    assert P.counts() == (10, 6)


def test_even_bary_scheme_census():
    T, carriers = barycentric(double_simplex(4))
    P = scheme_partition(T, "even-bary", carriers=carriers)
    assert P.k == 2
    assert P.counts() == (15, 15, 2)


def test_scheme_parity_guards():
    T3, c3 = barycentric(double_simplex(3))
    with pytest.raises(TriangulationError):
        scheme_partition(T3, "even-bary", carriers=c3)
    T4, c4 = barycentric(double_simplex(4))
    with pytest.raises(TriangulationError):
        scheme_partition(T4, "odd-bary", carriers=c4)
    with pytest.raises(TriangulationError):
        scheme_partition(T3, "no-such-scheme")


def _top_without_side(T, carriers):
    v = carriers.dims.index(T.dimension)
    return "vertex class %s has a top carrier but no 0/1 side" % T.face_poset.key(v)


# (input dimension, scheme, arguments from (T, carriers), the exact message from (T, carriers))
SCHEME_REFUSALS = {
    "odd-bary without carriers": (
        3, "odd-bary", lambda T, c: {}, lambda T, c: "odd-bary needs carrier labels of the subdivision"),
    "even-bary without carriers": (
        4, "even-bary", lambda T, c: {}, lambda T, c: "even-bary needs carrier labels of the subdivision"),
    "even-npc without carriers": (
        4, "even-npc", lambda T, c: {"sides": {}},
        lambda T, c: "even-npc needs carrier labels and top-carrier sides"),
    "even-npc without sides": (
        4, "even-npc", lambda T, c: {"carriers": c},
        lambda T, c: "even-npc needs carrier labels and top-carrier sides"),
    "odd-bary in even dimension": (
        4, "odd-bary", lambda T, c: {"carriers": c}, lambda T, c: "odd-bary needs odd dimension, got 4"),
    "even-bary in odd dimension": (
        3, "even-bary", lambda T, c: {"carriers": c}, lambda T, c: "even-bary needs even dimension, got 3"),
    "even-npc in odd dimension": (
        3, "even-npc", lambda T, c: {"carriers": c, "sides": {}},
        lambda T, c: "even-npc needs even dimension, got 3"),
    "short carrier list": (
        3, "odd-bary", lambda T, c: {"carriers": CarrierLabels(dims=c.dims[:2])},
        lambda T, c: "carrier labels cover 2 vertex classes, expected %d" % len(c.dims)),
    "short carrier list for even-npc": (
        4, "even-npc", lambda T, c: {"carriers": CarrierLabels(dims=c.dims[:2]), "sides": {}},
        lambda T, c: "carrier labels cover 2 vertex classes, expected %d" % len(c.dims)),
    "top carrier without a side": (
        4, "even-npc", lambda T, c: {"carriers": c, "sides": {}}, _top_without_side),
    "top carrier with side 2": (
        4, "even-npc", lambda T, c: {"carriers": c, "sides": dict.fromkeys(range(len(c.dims)), 2)},
        _top_without_side),
    "pairs without blocks": (
        3, "pairs", lambda T, c: {}, lambda T, c: "pairs needs blocks over the coordinate labels"),
    "short coordinate list": (
        3, "pairs", lambda T, c: {"blocks": ((0, 1), (2, 3)), "labels": (0, 1)},
        lambda T, c: "coordinate labels cover 2 vertex classes, expected %d" % len(c.dims)),
    "explicit without labels": (
        3, "explicit", lambda T, c: {}, lambda T, c: "explicit scheme needs labels"),
    "short explicit list": (
        3, "explicit", lambda T, c: {"labels": (0, 1)},
        lambda T, c: "labels cover 2 vertex classes, expected %d" % len(c.dims)),
}


@pytest.mark.parametrize("case", sorted(SCHEME_REFUSALS))
def test_scheme_refusals_name_their_cause(case):
    n, scheme, kwargs, message = SCHEME_REFUSALS[case]
    T, carriers = barycentric(double_simplex(n))
    with pytest.raises(TriangulationError) as err:
        scheme_partition(T, scheme, **kwargs(T, carriers))
    assert str(err.value) == message(T, carriers)


def test_pairs_scheme_on_projective():
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    assert P.k == 1
    assert P.counts() == (2, 2)
    with pytest.raises(TriangulationError):
        scheme_partition(T, "pairs", blocks=((0, 1), (1, 2)))
    with pytest.raises(TriangulationError):
        scheme_partition(T, "pairs", blocks=((0, 1),))


def test_explicit_scheme_round():
    T = double_simplex(3)
    P = scheme_partition(T, "explicit", labels=(0, 1, 0, 1))
    assert P.k == 1
    assert validate(T, P).profile_ok


def test_explicit_scheme_names_an_unlabelled_vertex():
    T = double_simplex(3)
    assert scheme_partition(T, "explicit", labels={0: 0, 1: 1, 2: 0, 3: 1}).labels == (0, 1, 0, 1)
    with pytest.raises(TriangulationError, match="vertex class %s has no label" % T.face_poset.key(1)):
        scheme_partition(T, "explicit", labels={0: 0})


def test_validate_doubled_five_simplex_pairs():
    T = double_simplex(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    rep = validate(T, P)
    assert rep.profile_ok
    assert rep.supports_multisection and rep.supports_generalized
    assert rep.genera() == (0, 0, 0)
    assert rep.diagnostics == ()
    for g in rep.class_graphs:
        assert (g.vertices, g.edges, g.connected, g.genus) == (2, 1, True, 0)


def test_validate_odd_bary_three_sphere():
    T, carriers = barycentric(double_simplex(3))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    rep = validate(T, P)
    assert rep.profile_ok and rep.supports_multisection
    assert rep.genera() == (3, 3)
    g0, g1 = rep.class_graphs
    assert (g0.vertices, g0.edges) == (10, 12)
    assert (g1.vertices, g1.edges) == (6, 8)
    assert set(rep.profiles) == {(2, 2)}


def test_validate_projective_pairs():
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    rep = validate(T, P)
    assert rep.supports_multisection
    assert rep.genera() == (1, 1)
    assert rep.central.cell_counts == (8, 16, 8)
    assert rep.central.closed and rep.central.connected


def test_validate_generalized_block_of_three():
    T = double_simplex(6)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5, 6)))
    rep = validate(T, P)
    assert not rep.profile_ok
    assert not rep.supports_multisection
    assert rep.supports_generalized
    singles = [rep.subset_report((i,)) for i in range(3)]
    assert tuple(s.raw_dim for s in singles) == (1, 1, 2)
    assert all(s.spine_dim <= s.generalized_dim for s in singles)


def test_validate_small_even_npc_diagnostics():
    TT, _ = barycentric(double_simplex(2))
    T, carriers = barycentric(TT)
    sides = infer_sides(T, slot_carriers(T))
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=sides)
    rep = validate(T, P)
    assert rep.profile_ok
    assert not rep.supports_multisection
    assert "class graph 1 disconnected" in rep.diagnostics
    assert set(rep.profiles) == {(1, 2), (2, 1)}


def test_validate_label_count_mismatch():
    T = double_simplex(3)
    with pytest.raises(TriangulationError):
        validate(T, VertexPartition(k=1, labels=(0, 1)))


def test_validate_large_k_guard():
    T = double_simplex(3)
    with pytest.raises(TriangulationError):
        validate(T, VertexPartition(k=16, labels=(0, 1, 2, 16)))


CLASS_GRAPH_ZOO = {
    "double_simplex(2)": lambda: double_simplex(2),
    "double_simplex(4)": lambda: double_simplex(4),
    "cross_sphere(2)": lambda: cross_sphere(2),
    "cross_sphere(3)": lambda: cross_sphere(3),
    "cross_projective(3)": lambda: cross_projective(3),
    "sd double_simplex(2)": lambda: barycentric(double_simplex(2))[0],
}


@given(name=st.sampled_from(sorted(CLASS_GRAPH_ZOO)), k=st.integers(0, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_class_graphs_match_edge_union_find(name, k, data):
    T = CLASS_GRAPH_ZOO[name]()
    nv = T.face_poset.dim_start[1]
    labels = data.draw(st.lists(st.integers(0, k), min_size=nv, max_size=nv))
    P = VertexPartition(k=k, labels=tuple(labels))
    rep = validate(T, P)
    rows, graph_lines = oracles.class_graphs_by_edge_union_find(T, P)
    assert [(g.label, g.vertices, g.edges, g.connected, g.genus) for g in rep.class_graphs] == rows
    # diagnostics: profile line, then the class-graph lines, then subset lines
    profile_lines = [d for d in rep.diagnostics if d.startswith("some facet")]
    rest = list(rep.diagnostics[len(profile_lines) + len(graph_lines):])
    assert list(rep.diagnostics) == profile_lines + graph_lines + rest
    assert all(d.startswith(("subset ", "central ")) for d in rest)
    if not all(r[3] for r in rows):
        assert not rep.supports_multisection


@given(st.integers(min_value=1, max_value=2))
@settings(max_examples=2)
def test_odd_bary_profile_always_doubled(i):
    n = 2 * i + 1
    T, carriers = barycentric(double_simplex(n))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    rep = validate(T, P)
    assert set(rep.profiles) == {(2,) * (P.k + 1)}


def test_even_bary_profile_one_singleton():
    T, carriers = barycentric(double_simplex(4))
    P = scheme_partition(T, "even-bary", carriers=carriers)
    rep = validate(T, P)
    assert rep.profile_ok
    for row in rep.profiles:
        assert sorted(row) == [1, 2, 2]


def test_validation_profiles_share_one_row_per_profile():
    # sd(∂ 5-crosspolytope) even-npc, 3,840 facets: one tuple per facet held ~240 KiB
    T, carriers = barycentric(cross_sphere(4))
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=infer_sides(T, slot_carriers(T)))
    gc.collect()
    tracemalloc.start()
    try:
        rep = validate(T, P)
        rows = list(rep.profiles)
        assert len(rows) == T.facet_count and len({id(row) for row in rows}) == len(set(rows))
        del rows
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rep.profiles = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 40 * 1024


def test_validation_report_is_kept_for_its_labels_and_k():
    T = double_simplex(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    rep = validate(T, P)
    assert validate(T, VertexPartition(k=P.k, labels=P.labels)) is rep
    # the same labels under a larger k give a fresh report, with an empty class
    wider = validate(T, VertexPartition(k=3, labels=P.labels))
    assert wider is not rep and wider.k == 3 and "class 3 has no vertices" in wider.diagnostics
    assert validate(T, P) is not wider
    # other labels replace the record, and with it the kept report
    other = validate(T, VertexPartition(k=2, labels=(0, 0, 1, 2, 1, 2)))
    assert other is not rep and validate(T, P) is not rep


@pytest.mark.parametrize(
    "build",
    [
        lambda: (double_simplex(5), scheme_partition(double_simplex(5), "pairs", blocks=((0, 1), (2, 3), (4, 5)))),
        lambda: (cross_projective(3), scheme_partition(cross_projective(3), "pairs", blocks=((0, 1), (2, 3)))),
        lambda: (double_simplex(6), scheme_partition(double_simplex(6), "pairs", blocks=((0, 1), (2, 3), (4, 5, 6)))),
    ],
)
def test_multisection_implies_generalized(build):
    T, P = build()
    rep = validate(T, P)
    if rep.supports_multisection:
        assert rep.supports_generalized
    if rep.supports_generalized:
        for sub in rep.subsets:
            assert sub.nonempty and sub.connected


def test_symmetric_representation_trivial_on_flags():
    T, _ = barycentric(double_simplex(3))
    R = symmetric_representation(T)
    assert R.trivial
    assert R.generators == ()


def test_symmetric_representation_trivial_on_crosspolytope():
    R = symmetric_representation(cross_sphere(3))
    assert R.trivial


def test_symmetric_representation_undefined_for_odd_degrees():
    # boundary of the 4-simplex has codimension-2 degree 3
    from itertools import combinations

    facets = list(combinations(range(5), 4))
    T = Triangulation.from_vertex_facets(3, facets)
    with pytest.raises(TriangulationError):
        symmetric_representation(T)


def test_twisted_fixture_representation():
    T = twisted_fixture()
    R = symmetric_representation(T)
    assert not R.trivial
    assert R.generators == ((0, 2, 1, 3),)
    assert R.orbits == ((0,), (1, 2), (3,))


def test_labeling_cover_degree_one_when_trivial():
    T, _ = barycentric(double_simplex(3))
    C = labeling_cover(T)
    assert C.facet_count == T.facet_count
    assert C.isomorphic_to(T)


def test_labeling_cover_of_twisted_fixture():
    T = twisted_fixture()
    C = labeling_cover(T)
    s = C.summary()
    assert C.facet_count == 4
    assert s.connected
    assert s.euler == 0
    assert symmetric_representation(C).trivial


def test_labeling_cover_symrep_always_trivial():
    for T in (cross_projective(3), twisted_fixture()):
        assert symmetric_representation(labeling_cover(T)).trivial


def test_twisted_admissible_singletons():
    T = twisted_fixture()
    R = symmetric_representation(T)
    P = VertexPartition(k=3, labels=(0, 1, 2, 3))
    rep = twisted_admissible(T, P, R)
    assert rep.admissible
    assert rep.blocks == ((0,), (1,), (2,), (3,))
    assert rep.block_action == ((0, 2, 1, 3),)
    assert rep.reason is None


def test_twisted_admissible_straddling_blocks():
    T = twisted_fixture()
    R = symmetric_representation(T)
    P = VertexPartition(k=1, labels=(0, 0, 1, 1))
    rep = twisted_admissible(T, P, R)
    assert not rep.admissible
    assert rep.reason == "generator image of block 1 straddles blocks"


def test_twisted_admissible_aligned_blocks():
    T = twisted_fixture()
    R = symmetric_representation(T)
    P = VertexPartition(k=2, labels=(0, 1, 1, 2))
    rep = twisted_admissible(T, P, R)
    assert rep.admissible
    assert rep.block_action == ((0, 1, 2),)


UNION_GRAPH_INPUTS = {
    "twisted fixture": twisted_fixture,
    "sd double_simplex(3)": lambda: barycentric(double_simplex(3))[0],
}


@pytest.mark.parametrize(
    "name, labels, connected",
    [
        ("twisted fixture", (0, 1, 2, 3), False),
        ("twisted fixture", (0, 0, 1, 1), True),
        ("twisted fixture", (0, 1, 1, 2), False),
        ("twisted fixture", (0, 1, 0, 1), True),
        ("sd double_simplex(3)", (0, 0, 0, 0), True),
        ("sd double_simplex(3)", (0, 0, 1, 1), False),
        ("sd double_simplex(3)", (0, 1, 1, 1), False),
    ],
)
def test_twisted_union_connected_matches_union_find(name, labels, connected):
    T = UNION_GRAPH_INPUTS[name]()
    P = VertexPartition(k=max(labels), labels=labels)
    assert oracles.union_connected_by_union_find(T, P) == connected
    assert twisted_admissible(T, P, symmetric_representation(T)).union_connected == connected


def test_twisted_admissible_needs_alphabet_partition():
    T = twisted_fixture()
    R = symmetric_representation(T)
    with pytest.raises(TriangulationError):
        twisted_admissible(T, VertexPartition(k=0, labels=(0, 0)), R)


def test_twisted_admissible_trivial_rep_any_blocks():
    T, _ = barycentric(double_simplex(3))
    R = symmetric_representation(T)
    P = VertexPartition(k=1, labels=(0, 0, 1, 1))
    rep = twisted_admissible(T, P, R)
    assert rep.admissible

"""Group-level certificates: presentations, inclusions, Euler identity."""

import copy
import gc
import pathlib
import random
import tracemalloc
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multisect import cells, gf2
from multisect.io import load_stream
from multisect.invariants import (
    euler_trisection_check,
    free_reduce,
    h1_onto_check,
    inclusion_epimorphism,
    multisection_report,
    pi1_presentation,
)
from multisect.partition import VertexPartition, scheme_partition, validate
from multisect.subdivide import barycentric, pachner_2n_pass
from multisect.triangulation import Triangulation, TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex
from test_triangulation import relabelling, renamed_rows


def sd3():
    T, carriers = barycentric(double_simplex(3))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    return T, P


def rp3():
    T = cross_projective(3)
    return T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))


def d5():
    T = double_simplex(5)
    return T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))


def rp5():
    T = cross_projective(5)
    return T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))


def sd_rp3():
    T, carriers = barycentric(cross_projective(3))
    return T, scheme_partition(T, "odd-bary", carriers=carriers)


def test_pi1_of_central_circle():
    T = double_simplex(2)
    P = scheme_partition(T, "explicit", labels=(0, 0, 1))
    X = cells.extract(T, P, (0, 1))
    assert X.counts() == (2, 2)
    pres = pi1_presentation(X)
    assert pres.generators == 1
    assert pres.relators == ()
    assert pres.abelian_rank_gf2() == 1
    # the spanning tree grows from central vertex 0
    assert pres.provenance == "subset=0,1 root=0"


def test_pi1_of_central_torus():
    T, P = rp3()
    X = cells.extract(T, P, (0, 1))
    pres = pi1_presentation(X)
    assert pres.generators == 9
    assert len(pres.relators) == 8
    assert pres.abelian_rank_gf2() == 2


def test_pi1_of_genus_three_surface():
    T, P = sd3()
    X = cells.extract(T, P, (0, 1))
    pres = pi1_presentation(X)
    assert pres.generators == 53
    assert len(pres.relators) == 48
    assert pres.abelian_rank_gf2() == 6


def test_pi1_rank_matches_first_betti():
    for T, P in (rp3(), sd3(), d5()):
        X = cells.extract(T, P, tuple(range(P.k + 1)))
        if X.dimension > 2:
            continue
        pres = pi1_presentation(X)
        assert pres.abelian_rank_gf2() == X.betti()[1]


def test_pi1_relators_are_reduced_squares():
    T, P = rp3()
    X = cells.extract(T, P, (0, 1))
    pres = pi1_presentation(X)
    for rel in pres.relators:
        assert len(rel) <= 4
        assert tuple(oracles.reduce_word(rel)) == rel
        for g in rel:
            assert 1 <= abs(g) <= pres.generators


def test_pi1_requires_connected_graph_cells():
    T = double_simplex(2)
    P = scheme_partition(T, "explicit", labels=(0, 0, 1))
    X = cells.extract(T, P, (1,))
    # a single vertex has no 1-skeleton to present
    with pytest.raises(TriangulationError):
        pi1_presentation(X)


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12))
def test_free_reduce_matches_rescan_oracle(word):
    assert free_reduce(tuple(word)) == tuple(oracles.reduce_word(word))


def test_trisection_euler_identity_direct():
    T = double_simplex(4)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4,)))
    R = multisection_report(T, P)
    assert (R.n, R.k) == (4, 2)
    assert R.ambient_euler == 2
    assert R.genera == (0, 0, 0)
    assert R.central_genus == 0
    assert R.euler_identity is True
    v = euler_trisection_check(R)
    assert v.ok and bool(v)
    assert v.gk == (0, 0)


def test_trisection_euler_identity_subdivided():
    T, carriers = barycentric(double_simplex(4))
    P0 = scheme_partition(T, "even-bary", carriers=carriers)
    T2, P2 = pachner_2n_pass(T, P0)
    R = multisection_report(T2, P2)
    assert R.genera == (6, 6, 119)
    assert R.central_genus == 131
    assert R.euler_identity is True
    assert R.supports_multisection
    assert euler_trisection_check(R).ok


def test_trisection_identity_falsified_by_mutation():
    T = double_simplex(4)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4,)))
    R = multisection_report(T, P)
    bad = copy.copy(R)
    bad.ambient_euler = R.ambient_euler - 1
    assert not euler_trisection_check(bad).ok


def test_trisection_identity_needs_dimension_four():
    T, P = d5()
    R = multisection_report(T, P)
    assert R.euler_identity is None
    assert R.central_genus is None
    with pytest.raises(TriangulationError):
        euler_trisection_check(R)


def test_inclusion_onto_torus_from_projective():
    T, P = rp3()
    ir = inclusion_epimorphism(T, P, 0)
    assert ir.label == 0
    assert ir.target_rank == 1
    assert ir.relators_die
    assert ir.abelian_image_rank == 1
    assert ir.surjective and bool(ir)
    assert len(ir.generator_words) == 9


def test_inclusion_onto_genus_three():
    T, P = sd3()
    for i in (0, 1):
        ir = inclusion_epimorphism(T, P, i)
        assert ir.target_rank == 3
        assert ir.surjective
        assert ir.relators_die
        assert ir.abelian_image_rank == 3


def test_inclusion_trivial_target():
    T, P = d5()
    ir = inclusion_epimorphism(T, P, 0)
    assert ir.target_rank == 0
    assert ir.surjective
    assert ir.relators_die
    assert all(w == () for w in ir.generator_words)


def test_inclusion_relators_always_die():
    builds = [rp3(), sd3(), d5()]
    T5 = cross_projective(5)
    builds.append((T5, scheme_partition(T5, "pairs", blocks=((0, 1), (2, 3), (4, 5)))))
    for T, P in builds:
        for i in range(P.k + 1):
            assert inclusion_epimorphism(T, P, i).relators_die


def relabelled_sd_rp3():
    """sd(RP^3) odd-bary with its facets and corners renamed, each vertex class keeping its label."""
    T0, P0 = sd_rp3()
    facet, corner = relabelling(T0, random.Random(3))
    T = Triangulation(T0.dimension, renamed_rows(T0, facet, corner))
    L, fv0, fv = T.dimension + 1, T0.face_poset.facet_vertices, T.face_poset.facet_vertices
    labels = [0] * T.face_poset.dim_start[1]
    for f in range(T0.facet_count):
        for c in range(L):
            labels[fv[facet[f] * L + corner[f][c]]] = P0.labels[fv0[f * L + c]]
    return T, VertexPartition(k=P0.k, labels=tuple(labels))


WORD_BUILDS = {
    "rp3 pairs": rp3,
    "rp5 pairs": rp5,
    "d5 pairs": d5,
    "sd3 odd-bary": sd3,
    "sd rp3 odd-bary": sd_rp3,
    "relabelled sd rp3 odd-bary": relabelled_sd_rp3,
}


def count_label_work(monkeypatch):
    """Record each label pass's labels and each complex build's subset in `cells`."""
    passes, builds = [], []
    label_pass, subset_complex = cells._label_pass, cells._subset_complex
    monkeypatch.setattr(cells, "_label_pass", lambda T, labels: passes.append(labels) or label_pass(T, labels))
    monkeypatch.setattr(cells, "_subset_complex", lambda T, rec, S: builds.append(S) or subset_complex(T, rec, S))
    return passes, builds


@pytest.mark.parametrize("name", WORD_BUILDS)
def test_generator_words_match_tree_path_oracle(name, monkeypatch):
    T, P = WORD_BUILDS[name]()
    passes, builds = count_label_work(monkeypatch)
    full = tuple(range(P.k + 1))
    for label in full:
        builds.clear()
        words = inclusion_epimorphism(T, P, label).generator_words
        # the first call reads the labels and builds the central complex; each call builds its region graph
        assert builds == ([full] if label == 0 else []) + [(label,)]
        assert words == oracles.generator_words_by_tree_paths(T, P, label)
    assert passes == [P.labels]


def test_inclusion_reads_the_relator_of_every_square_with_a_letter(monkeypatch):
    # a central edge has a letter when its doubled label is the region's and its image edge
    # lies outside the region graph's forest; a square with no such edge has the empty relator
    read = []
    square_path = cells.CellComplex.square_path
    monkeypatch.setattr(cells.CellComplex, "square_path", lambda X, i: read.append(i) or square_path(X, i))
    seen = set()
    for build in WORD_BUILDS.values():
        T, P = build()
        fp = T.face_poset
        central = cells.extract(T, P, tuple(range(P.k + 1)))
        for label in range(P.k + 1):
            graph = cells.extract(T, P, (label,))
            cotree = set(oracles.spanning_forest_by_dicts(graph)[1])

            def has_letter(e):
                f, _, _, dirs, pairs = central.cube(e)
                return dirs == (label,) and graph._index(fp.class_of(f, pairs[0])) in cotree

            want = [i for i in central.squares() if any(map(has_letter, central.children_of(i)))]
            read.clear()
            assert inclusion_epimorphism(T, P, label).relators_die
            assert read == want
            seen |= {i in want for i in central.squares()}
    assert seen == {True, False}  # squares were read and squares were skipped


def test_inclusion_refuses_non_cube_central():
    T = double_simplex(3)
    P = VertexPartition(k=1, labels=(1, 1, 0, 1))
    assert not cells.extract(T, P, (0, 1)).all_cubes
    with pytest.raises(TriangulationError, match="cube complexes only"):
        inclusion_epimorphism(T, P, 0)


def test_h1_onto_everywhere():
    T3, P3 = rp3()
    assert h1_onto_check(T3, P3)
    assert h1_onto_check(T3, P3, cls=1)
    T1, P1 = sd3()
    assert h1_onto_check(T1, P1)
    T5, P5 = d5()
    assert h1_onto_check(T5, P5)
    TP = cross_projective(5)
    PP = scheme_partition(TP, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    assert h1_onto_check(TP, PP)
    assert h1_onto_check(TP, PP, cls=2)


@pytest.mark.parametrize("cls", [-1, 2, 7])
def test_h1_onto_refuses_label_out_of_range(cls):
    T, P = rp3()
    with pytest.raises(TriangulationError, match="class label %d out of range 0..1" % cls):
        h1_onto_check(T, P, cls)


def test_h1_onto_in_dimension_one():
    # two points do not reach H_1 of the circle; the circle itself does
    assert list(double_simplex(1).boundary_columns(2)) == []
    assert not h1_onto_check(double_simplex(1), VertexPartition(k=1, labels=(0, 1)))
    assert h1_onto_check(cross_sphere(1), VertexPartition(k=0, labels=(0,) * 4))


def test_h1_onto_matches_kernel_basis_oracle():
    zoo = [double_simplex(n) for n in (1, 2, 3)] + [cross_sphere(n) for n in (1, 2, 3)]
    zoo += [cross_projective(2), cross_projective(3)]
    zoo += [barycentric(T)[0] for T in (double_simplex(2), cross_projective(2), double_simplex(3))]
    verdicts = set()
    for T in zoo:
        nv = T.face_poset.dim_start[1]
        for k in range(4):
            for seed in range(4):
                rng = random.Random(seed)
                P = VertexPartition(k=k, labels=tuple(rng.randrange(k + 1) for _ in range(nv)))
                for cls in range(k + 1):
                    got = h1_onto_check(T, P, cls)
                    assert got == oracles.h1_onto_by_kernel_basis(T, P, cls)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_h1_onto_check_peaks_with_the_ambient_boundary_basis():
    # sd^2(RP^3) odd-bary: the ambient ∂_2 basis (4,608 columns, each as wide as
    # the edge count) dominates; with the cycle images in ambient edge bits and
    # rank ∂_1 eliminated too, the check peaked at 1.71 times the basis alone
    T, carriers = barycentric(barycentric(cross_projective(3))[0])
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    X = cells.extract(T, P, (0, 1))
    X.spanning_forest  # kept on the complex, as every later check reads it

    def boundary_basis():
        base = gf2.Basis()
        for v in T.boundary_columns(2):
            base.add(v)
        return base.rank

    peaks = []
    for ask in (boundary_basis, lambda: h1_onto_check(T, P)):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert ask()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0]
    # squares are read one at a time: the complex keeps no per-square dict
    assert inclusion_epimorphism(T, P, 0)
    assert not any(isinstance(v, dict) for v in vars(X).values())


def test_report_on_projective_five():
    T = cross_projective(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    R = multisection_report(T, P)
    assert R.genera == (1, 1, 1)
    assert R.supports_multisection
    assert R.npc_ok is True


@pytest.mark.parametrize("build", [rp3, d5, sd3])
def test_report_builds_each_subset_complex_once(build, monkeypatch):
    T, P = build()
    passes, builds = count_label_work(monkeypatch)
    full = tuple(range(P.k + 1))
    proper = [S for r in range(1, P.k + 1) for S in combinations(full, r)]
    validate(T, P)
    assert builds == proper + [full]
    # the report and the central complex are kept on the labelling record
    builds.clear()
    multisection_report(T, P)
    assert builds == []
    builds.clear()
    h1_onto_check(T, P)
    assert builds == []
    for label in full:
        builds.clear()
        inclusion_epimorphism(T, P, label)
        assert builds == [(label,)]
    assert passes == [P.labels]


@pytest.mark.parametrize("build", [rp3, d5, sd3])
def test_each_complex_computes_its_connectivity_once(build, monkeypatch):
    T, P = build()
    _, builds = count_label_work(monkeypatch)
    unions = []
    union_find = cells.UnionFind
    monkeypatch.setattr(cells, "UnionFind", lambda n: unions.append(n) or union_find(n))
    validate(T, P)
    multisection_report(T, P)
    for label in range(P.k + 1):
        inclusion_epimorphism(T, P, label)
    # the kept central complex is asked by every call, yet answers from its first union-find
    assert len(unions) == len(builds)


def verdicts(T, P):
    """validate, then h1_onto_check and inclusion_epimorphism for every label, as text."""
    out = [repr(validate(T, P))]
    for label in range(P.k + 1):
        for check in (h1_onto_check, inclusion_epimorphism):
            try:
                out.append(repr(check(T, P, label)))
            except TriangulationError as e:
                out.append("refused: %s" % e)
    return out


@pytest.mark.parametrize("build", [rp3, sd3])
def test_alternating_labellings_match_fresh_triangulations(build):
    T, P = build()
    nv = T.face_poset.dim_start[1]
    rng = random.Random(5)
    other = VertexPartition(k=P.k, labels=tuple(rng.randrange(P.k + 1) for _ in range(nv)))
    wider = VertexPartition(k=P.k + 1, labels=P.labels)
    seen = {}
    for Q in (P, other, P, wider, P, other, wider):
        got = verdicts(T, Q)
        assert got == verdicts(build()[0], Q)
        seen[Q] = got
    # the three labellings disagree, so a stale record would show
    assert len({tuple(got) for got in seen.values()}) == 3


def test_report_is_pure():
    T, P = rp3()
    a = multisection_report(T, P)
    b = multisection_report(T, P)
    assert (a.n, a.k, a.genera, a.central_betti, a.spine_dims) == (
        b.n,
        b.k,
        b.genera,
        b.central_betti,
        b.spine_dims,
    )
    assert a.central_summary == b.central_summary


@pytest.mark.parametrize("build", [sd3, rp3, d5, sd_rp3], ids=["sd3", "rp3", "d5", "sd rp3"])
def test_report_manifold_checks_pass_on_manifolds(build):
    R = multisection_report(*build())
    assert R.ambient_euler == 0 and R.supports_multisection
    assert R.diagnostics == R.validation.diagnostics


def test_report_refuses_the_suspension_of_rp2():
    T, _ = load_stream((pathlib.Path(__file__).parent / "fixtures" / "suspension_rp2.txt").read_text())
    S, carriers = barycentric(T)
    R = multisection_report(S, scheme_partition(S, "odd-bary", carriers=carriers))
    # validation runs the manifold checks, so the report carries its verdict and diagnostics
    assert not R.validation.supports_multisection and R.validation.diagnostics == R.diagnostics
    assert (R.ambient_euler, R.genera, R.central_summary["euler"]) == (1, (20, 21), -40)
    assert not R.supports_multisection and R.supports_generalized
    assert R.diagnostics == (
        "euler characteristic 1, not 0 as on a closed odd-dimensional manifold",
        "central euler characteristic -40, not -38 as on the boundary of a genus-20 handlebody",
    )


def test_dropped_triangulation_is_freed_without_the_collector():
    # a face poset refers to its triangulation weakly and a cell complex holds
    # its face poset, so no reference cycle outlives the last outside reference
    T, P = sd3()
    gc.collect()
    gc.disable()
    try:
        multisection_report(T, P)
        refs = [weakref.ref(x) for x in (T, T.face_poset, cells.extract(T, P, (0, 1)))]
        assert refs[2]() is T._labelling.central
        del T
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_report_central_dimension():
    for T, P in (rp3(), d5()):
        R = multisection_report(T, P)
        assert R.central_summary["dimension"] == R.n - R.k

"""End-to-end acceptance gate.

One test per numbered claim, each with its stated runtime budget.  Two
sub-claims are recorded as strict expected failures; the mathematical
reasons sit next to the markers and in the project notes.
"""

import contextlib
import io
import resource
import sys
import time

import pytest

from multisect import cells
from multisect.cli import main
from multisect.invariants import (
    euler_trisection_check,
    h1_onto_check,
    inclusion_epimorphism,
    multisection_report,
)
from multisect.io import load_stream, save_triangulation
from multisect.partition import scheme_partition, validate
from multisect.subdivide import barycentric, infer_sides, pachner_2n_pass, slot_carriers
from multisect.zoo import cross_projective, cross_sphere, double_simplex

CACHE = {}


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def timed(budget):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget, "took %.1fs, budget %.0fs" % (elapsed, budget)

    return check


def sd3_pipeline():
    if "sd3" not in CACHE:
        T, carriers = barycentric(double_simplex(3))
        P = scheme_partition(T, "odd-bary", carriers=carriers)
        CACHE["sd3"] = (T, P)
    return CACHE["sd3"]


def s4_pachner():
    if "s4" not in CACHE:
        T, carriers = barycentric(double_simplex(4))
        P0 = scheme_partition(T, "even-bary", carriers=carriers)
        CACHE["s4"] = pachner_2n_pass(T, P0)
    return CACHE["s4"]


def even_npc_pipeline(n, times=2):
    T = double_simplex(n)
    carriers = None
    for _ in range(times):
        T, carriers = barycentric(T)
    sides = infer_sides(T, slot_carriers(T))
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=sides)
    return T, P


def test_criterion_01_three_sphere_flag_pipeline():
    done = timed(1.0)
    T, P = sd3_pipeline()
    assert T.facet_count == 48
    rep = validate(T, P)
    assert rep.supports_multisection
    assert rep.genera() == (3, 3)
    X = cells.extract(T, P, (0, 1))
    assert X.betti() == (1, 6, 1)           # central surface genus 3
    npc = cells.npc_check(X)
    assert npc.ok
    assert set(npc.degrees) <= {4, 6}
    done()


def test_criterion_02_projective_genus_one():
    done = timed(1.0)
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    rep = validate(T, P)
    assert rep.supports_multisection
    assert rep.genera() == (1, 1)
    X = cells.extract(T, P, (0, 1))
    assert X.euler() == 0
    assert X.orientable()
    assert X.closed() and X.connected()
    assert h1_onto_check(T, P)
    done()


def test_criterion_03_four_sphere_direct_trisection():
    done = timed(1.0)
    T = double_simplex(4)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4,)))
    R = multisection_report(T, P)
    assert R.supports_multisection
    assert R.genera == (0, 0, 0)
    assert R.central_summary["euler"] == 2
    v = euler_trisection_check(R)
    assert v.ok
    assert v.ambient_euler == 2 and v.central_genus == 0
    assert R.npc_ok is False                # bigon links, honestly rejected
    done()


def test_criterion_04_four_sphere_matched_pair_move():
    done = timed(10.0)
    T, P = s4_pachner()
    assert T.facet_count == 480
    rep = validate(T, P)
    assert rep.supports_multisection
    fp = T.face_poset
    for f in range(T.facet_count):
        hits = sum(1 for j in range(5) if P.labels[fp.class_of(f, (j,))] == P.k)
        assert hits == 2
    for sub in rep.subsets:
        if len(sub.subset) == 2:
            assert sub.spine_dim <= 1
    done()


def test_criterion_05_five_sphere_central_cubes():
    done = timed(1.0)
    T = double_simplex(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    rep = validate(T, P)
    assert rep.supports_multisection
    assert rep.genera() == (0, 0, 0)
    X = cells.extract(T, P, (0, 1, 2))
    assert X.counts() == (8, 12, 6, 2)
    assert X.euler() == 0
    assert X.closed() and X.connected()
    pc = X.parent_counts()
    for i, d in enumerate(X.dims):
        if d == 2:
            assert pc[i] == 2               # every square in exactly two cubes
    done()


@pytest.mark.xfail(
    strict=True,
    reason="two 3-cubes glued along their entire boundary give doubled-triangle "
    "vertex links with three vertices and two repeated 2-simplices; such links "
    "are not simplicial, so they are neither octahedra nor flag",
)
def test_criterion_05_five_sphere_npc_and_octahedral_links():
    T = double_simplex(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    X = cells.extract(T, P, (0, 1, 2))
    npc = cells.npc_check(X)
    assert npc.ok
    for lk in cells.vertex_links(X).values():
        assert lk.vertex_count == 6
        assert lk.simplicial


def test_criterion_06_projective_five_genus_one_each():
    done = timed(5.0)
    T = cross_projective(5)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    rep = validate(T, P)
    assert rep.supports_multisection
    assert rep.genera() == (1, 1, 1)
    assert len(rep.subsets) == 6
    for sub in rep.subsets:
        assert sub.nonempty and sub.connected
    assert rep.central.nonempty and rep.central.connected
    assert h1_onto_check(T, P)
    done()


def test_criterion_07_even_scheme_second_subdivision():
    done = timed(60.0)
    T2, P2 = even_npc_pipeline(2)
    assert T2.facet_count == 72
    rep2 = validate(T2, P2)
    assert rep2.profile_ok
    CACHE["npc2"] = (T2, P2)

    T4, P4 = even_npc_pipeline(4)
    assert T4.facet_count == 28_800
    rep4 = validate(T4, P4)
    assert rep4.supports_multisection
    X = cells.extract(T4, P4, tuple(range(P4.k + 1)))
    assert cells.npc_check(X).ok
    for row in rep4.profiles:
        singles = [l for l, c in enumerate(row) if c == 1]
        assert len(singles) == 1 and singles[0] in (0, 1)
    CACHE["npc4"] = (T4, P4)
    done()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 4 * 1024 * 1024


@pytest.mark.xfail(
    strict=True,
    reason="after two subdivisions of the doubled triangle the non-side class "
    "spans six pairwise disjoint stars, so its class graph is disconnected and "
    "the two-piece condition fails",
)
def test_criterion_07_small_even_scheme_supports():
    if "npc2" in CACHE:
        T2, P2 = CACHE["npc2"]
    else:
        T2, P2 = even_npc_pipeline(2)
    assert validate(T2, P2).supports_multisection


def test_criterion_08_link_isomorphism_oracle():
    done = timed(10.0)
    T, P = sd3_pipeline()
    X = cells.extract(T, P, (0, 1))
    fp = T.face_poset
    for i, lk in cells.vertex_links(X).items():
        assert lk.triangulation is not None
        ambient, _ = T.link(fp.canonical(X.cells[i]))
        assert lk.triangulation.isomorphic_to(ambient)

    T5 = double_simplex(5)
    P5 = scheme_partition(T5, "pairs", blocks=((0, 1), (2, 3), (4, 5)))
    X5 = cells.extract(T5, P5, (0, 1, 2))
    fp5 = T5.face_poset
    for i, lk in cells.vertex_links(X5).items():
        assert lk.triangulation is not None
        ambient, _ = T5.link(fp5.canonical(X5.cells[i]))
        assert lk.triangulation.isomorphic_to(ambient)
    done()


def test_criterion_09_generalized_profile_two_two_three():
    T = double_simplex(6)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3), (4, 5, 6)))
    rep = validate(T, P)
    assert rep.supports_generalized
    dims = tuple(rep.subset_report((i,)).raw_dim for i in range(3))
    assert dims == (1, 1, 2)


def test_criterion_10_central_cubes_match_facets():
    builds = [sd3_pipeline()]
    builds.append(
        (cross_projective(3), scheme_partition(cross_projective(3), "pairs", blocks=((0, 1), (2, 3))))
    )
    builds.append(
        (double_simplex(4), scheme_partition(double_simplex(4), "pairs", blocks=((0, 1), (2, 3), (4,))))
    )
    builds.append(s4_pachner())
    builds.append(
        (double_simplex(5), scheme_partition(double_simplex(5), "pairs", blocks=((0, 1), (2, 3), (4, 5))))
    )
    builds.append(
        (cross_projective(5), scheme_partition(cross_projective(5), "pairs", blocks=((0, 1), (2, 3), (4, 5))))
    )
    builds.append(
        (double_simplex(6), scheme_partition(double_simplex(6), "pairs", blocks=((0, 1), (2, 3), (4, 5, 6))))
    )
    if "npc2" in CACHE:
        builds.append(CACHE["npc2"])
    if "npc4" in CACHE:
        builds.append(CACHE["npc4"])
    for T, P in builds:
        X = cells.extract(T, P, tuple(range(P.k + 1)))
        assert X.top_count() == T.facet_count


def test_criterion_11_inclusion_epimorphisms():
    builds = [sd3_pipeline()]
    builds.append(
        (cross_projective(3), scheme_partition(cross_projective(3), "pairs", blocks=((0, 1), (2, 3))))
    )
    builds.append(
        (cross_projective(5), scheme_partition(cross_projective(5), "pairs", blocks=((0, 1), (2, 3), (4, 5))))
    )
    for T, P in builds:
        for i in range(P.k + 1):
            ir = inclusion_epimorphism(T, P, i)
            assert ir.relators_die
            assert ir.surjective


def test_criterion_12_round_trip_and_determinism():
    done = timed(10.0)
    zoo_members = [
        double_simplex(2),
        double_simplex(3),
        double_simplex(4),
        double_simplex(5),
        cross_sphere(2),
        cross_sphere(3),
        cross_sphere(4),
        cross_projective(2),
        cross_projective(3),
        cross_projective(4),
        cross_projective(5),
    ]
    for T in zoo_members:
        text = save_triangulation(T)
        back, _ = load_stream(text)
        assert back.isomorphic_to(T)
        assert save_triangulation(back) == text
    a = run(["gen", "--cross-sphere", "3"])
    b = run(["gen", "--cross-sphere", "3"])
    assert a == b
    _, doc, _ = a
    x = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    y = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    assert x == y
    done()

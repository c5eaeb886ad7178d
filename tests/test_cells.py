"""Cubical subset complexes: extraction, links, curvature test, collapse."""

import collections
import gc
import pathlib
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import oracles
import multisect.cells as cells_module
from multisect.cells import (
    LinkComplex,
    _link_ridges,
    class_label_multisets,
    collapse,
    labelling,
    extract,
    npc_check,
    vertex_link,
    vertex_links,
)
from multisect.io import load_stream
from multisect.partition import VertexPartition, scheme_partition, validate
from multisect.subdivide import barycentric, infer_sides, slot_carriers
from multisect.triangulation import Triangulation, TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex
from test_triangulation import relabel, relabelled_rows


def pairs_partition(n, blocks):
    T = double_simplex(n)
    return T, scheme_partition(T, "pairs", blocks=blocks)


def oracle_complex(n, blocks, S):
    labels = [0] * (n + 1)
    for b, members in enumerate(blocks):
        for x in members:
            labels[x] = b
    return oracles.double_simplex_cells(n, labels, S)


def oracle_boundary_rows(cells, dims, parents):
    children = collections.defaultdict(list)
    for child, ps in parents.items():
        for p in ps:
            children[p].append(child)
    by_dim = collections.defaultdict(list)
    for i, d in enumerate(dims):
        row = frozenset(c for c in children[i] if children[i].count(c) % 2 == 1)
        by_dim[d].append(row)
    return by_dim


def oracle_betti(cells, dims, parents):
    by_dim = oracle_boundary_rows(cells, dims, parents)
    top = max(dims)
    counts = oracles.cell_counts(dims)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        ranks[d] = oracles.gf2_rank_sets(by_dim[d])
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


def test_central_of_doubled_4_simplex():
    T, P = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    X = extract(T, P, (0, 1, 2))
    cells, dims, parents = oracle_complex(4, ((0, 1), (2, 3), (4,)), (0, 1, 2))
    assert X.counts() == tuple(oracles.cell_counts(dims)) == (4, 4, 2)
    assert X.euler() == 2
    assert X.closed() and X.connected()
    assert X.connected() == oracles.connected_cells(cells, dims, parents)
    assert X.all_cubes
    assert X.dimension == 2


def test_central_of_doubled_5_simplex():
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    X = extract(T, P, (0, 1, 2))
    cells, dims, parents = oracle_complex(5, ((0, 1), (2, 3), (4, 5)), (0, 1, 2))
    assert X.counts() == tuple(oracles.cell_counts(dims)) == (8, 12, 6, 2)
    assert X.closed() and X.connected()
    assert X.orientable()
    assert X.betti() == oracle_betti(cells, dims, parents) == (1, 0, 0, 1)


def test_side_subsets_of_doubled_5_simplex():
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    X = extract(T, P, (0, 1))
    cells, dims, parents = oracle_complex(5, ((0, 1), (2, 3), (4, 5)), (0, 1))
    assert X.counts() == tuple(oracles.cell_counts(dims)) == (4, 4, 1)
    assert X.dimension == 2
    res = collapse(X)
    assert res.spine_dim == oracles.collapse_dim(cells, dims, parents) == 0
    assert res.spine_counts == (1,)
    assert res.pairs_removed * 2 + len(res.spine_cells) == len(X.cells)


def test_subsets_of_doubled_4_simplex():
    blocks = ((0, 1), (2, 3), (4,))
    T, P = pairs_partition(4, blocks)
    for S, want in (((0, 1), (4, 4, 1)), ((0, 2), (2, 1)), ((1, 2), (2, 1))):
        X = extract(T, P, S)
        cells, dims, parents = oracle_complex(4, blocks, S)
        assert X.counts() == tuple(oracles.cell_counts(dims)) == want
        assert collapse(X).spine_dim == oracles.collapse_dim(cells, dims, parents) == 0


def test_extract_rejects_empty_selection():
    T, P = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    with pytest.raises(TriangulationError):
        extract(T, P, ())


def test_extract_rejects_subset_labels_out_of_range():
    T, P = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    for subset, label in (((7,), 7), ((0, 3), 3), ((-1, 2), -1)):
        with pytest.raises(TriangulationError, match="subset label %d out of range 0..2" % label):
            extract(T, P, subset)


def test_class_label_multisets_match_support():
    # relabelled copies, with drawn labels, move every class's canonical corners, so the shapes differ
    T0, P0 = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    copies = [(T0, P0)]
    for seed in (1, 2):
        rng = random.Random(seed)
        T = relabel(T0, rng)
        copies.append((T, VertexPartition(k=2, labels=tuple(rng.randrange(3) for _ in P0.labels))))
    for T, P in copies:
        fp = T.face_poset
        ms = class_label_multisets(T, P)
        for cid in range(fp.n_classes):
            f, corners = fp.canonical(cid)
            direct = tuple(sorted(P.labels[fp.class_of(f, (c,))] for c in corners))
            assert ms[cid] == direct


def test_extract_matches_full_scan_oracle():
    zoo = [double_simplex(n) for n in (1, 2, 3, 4)] + [cross_sphere(n) for n in (1, 2, 3)]
    zoo += [cross_projective(2), cross_projective(3)]
    zoo += [barycentric(T)[0] for T in (double_simplex(2), cross_projective(2), double_simplex(3))]
    cubes = set()
    for T in zoo:
        nv = T.face_poset.dim_start[1]
        for k in range(4):
            for seed in range(3):
                rng = random.Random(seed)
                P = VertexPartition(k=k, labels=tuple(rng.randrange(k + 1) for _ in range(nv)))
                for r in range(1, k + 2):
                    for S in combinations(range(k + 1), r):
                        cubes.add(check_cell_tables(T, P, S).all_cubes)
    assert cubes == {True, False}


def check_cell_tables(T, P, S):
    """Every read of the flat cell tables against the per-element oracles: tuple children, a dict
    from class to cell, one cube record per cell and edge ends found by class lookups."""
    got, want = extract(T, P, S), oracles.extract_by_scan(T, P, S)
    assert (tuple(got.cells), tuple(got.dims), oracles.cell_children(got), got.all_cubes) == (
        want.cells,
        want.dims,
        want.children,
        want.all_cubes,
    )
    assert {cid: got._index(cid) for cid in want.cell_index} == want.cell_index
    # the shared `local` array is each class's cell index in its own support's complex
    assert [got.cells[got.local[cid]] for cid in got.cells] == list(got.cells)
    outside = [cid for cid in range(T.face_poset.n_classes) if cid not in want.cell_index]
    for cid in outside + [-1, T.face_poset.n_classes]:
        with pytest.raises(TriangulationError, match="not a cell"):
            got._index(cid)
    assert oracles.cell_cubes(got) == oracles.cubes_by_grouping(got)
    # an edge's ends are its children, [head, tail], and its corners its shape's one pair
    ends = {e: (*reversed(got.children_of(e)), *got.cube(e).pairs[0]) for e, d in enumerate(got.dims) if d == 1}
    assert ends == oracles.edge_ends_by_lookup(got)
    res = collapse(got)
    assert (res.pairs_removed, res.spine_cells) == oracles.collapse_by_parent_lists(got)
    return got


def sd3_partitioned():
    T, carriers = barycentric(double_simplex(3))
    return T, scheme_partition(T, "odd-bary", carriers=carriers)


def sd3_central():
    return extract(*sd3_partitioned(), (0, 1))


def test_flag_central_surface():
    X = sd3_central()
    assert X.counts() == (44, 96, 48)
    assert X.euler() == -4
    assert X.betti() == (1, 6, 1)
    assert X.orientable()
    assert X.all_cubes and X.closed() and X.connected()
    assert X.top_count() == 48


def test_flag_central_links_are_circles():
    X = sd3_central()
    shapes = collections.Counter()
    for lk in vertex_links(X).values():
        assert lk.simplicial
        assert len(lk.cells_by_dim) == 1
        shapes[lk.vertex_count] += 1
        tri = lk.triangulation
        assert tri is not None
        s = tri.summary()
        assert s.dimension == 1 and s.connected and s.euler == 0
    assert shapes == {4: 36, 6: 8}


def test_flag_central_npc_passes():
    X = sd3_central()
    rep = npc_check(X)
    assert rep.ok
    assert rep.all_cubes
    assert rep.link_count == 44
    assert rep.failures == ()
    assert set(rep.degrees) == {4, 6}


def test_doubled_4_simplex_central_links_are_bigons():
    T, P = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    X = extract(T, P, (0, 1, 2))
    for lk in vertex_links(X).values():
        assert lk.vertex_count == 2
        assert [len(c) for c in lk.cells_by_dim] == [2]
        assert not lk.simplicial
        assert lk.simplicial_reason == "two link 1-simplices share their vertex set"
    rep = npc_check(X)
    assert not rep.ok
    assert len(rep.failures) == 4


def test_doubled_5_simplex_central_links_are_doubled_triangles():
    # the two 3-cubes meet along their whole boundary, so each vertex
    # sees two triangles on the same three germs
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    X = extract(T, P, (0, 1, 2))
    for lk in vertex_links(X).values():
        assert lk.vertex_count == 3
        assert [len(c) for c in lk.cells_by_dim] == [3, 2]
        assert not lk.simplicial
        assert lk.triangulation is not None
        assert lk.triangulation.facet_count == 2
    assert not npc_check(X).ok


def test_link_triangulation_matches_ambient_link():
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    X = extract(T, P, (0, 1, 2))
    fp = T.face_poset
    lk0 = vertex_link(X, 0)
    cid = X.cells[0]
    amb, _ = T.link(fp.canonical(cid))
    assert lk0.triangulation is not None
    assert lk0.triangulation.isomorphic_to(amb)


def test_npc_check_builds_no_link_triangulation(monkeypatch):
    X = sd3_central()
    built = []
    init = Triangulation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Triangulation, "__init__", counting_init)
    assert npc_check(X).ok
    assert built == []
    # the link triangulation appears once it is read
    assert vertex_links(X)[0].triangulation.dimension == 1
    assert len(built) == 1


def test_cube_faces_are_read_without_corner_map():
    # the complex reaches a cube's faces and their corner maps only by mask, at facet * M + mask;
    # FacePoset has no reader that takes a corner tuple to a corner map
    from multisect.invariants import h1_onto_check, inclusion_epimorphism, pi1_presentation
    from multisect.triangulation import FacePoset

    T, P = relabelled_sd_rp3(1)
    assert not hasattr(FacePoset, "corner_map")
    X = extract(T, P, (0, 1))
    assert X.summary()["orientable"] is not None
    assert pi1_presentation(X).relators
    h1_onto_check(T, P)
    for label in (0, 1):
        inclusion_epimorphism(T, P, label)
    assert vertex_link(X, 0).triangulation is not None


def link_complex(vertex_count, *cells_by_dim, simplicial=True, reason=None):
    return LinkComplex(
        vertex_cell=0,
        vertex_ids=tuple((v, 0) for v in range(vertex_count)),
        cells_by_dim=tuple(tuple(cells) for cells in cells_by_dim),
        simplicial=simplicial,
        simplicial_reason=reason,
    )


def cycle(n):
    return [(v, (v + 1) % n) for v in range(n)]


@pytest.mark.parametrize(
    "link,want",
    [
        (link_complex(3, cycle(3)), (False, "clique of size 3 spans no simplex")),
        (
            link_complex(4, list(combinations(range(4), 2)), list(combinations(range(4), 3))),
            (False, "clique of size 4 spans no simplex"),
        ),
        (link_complex(4, list(combinations(range(4), 2)), [(0, 1, 2)]), (False, "clique of size 3 spans no simplex")),
        (link_complex(3, cycle(3), [(0, 1, 2)]), (True, None)),
        (link_complex(4, cycle(4)), (True, None)),
        (link_complex(5, cycle(5)), (True, None)),
        (link_complex(2), (True, None)),
        (link_complex(2, [(0, 1), (0, 1)], simplicial=False, reason="doubled"), (False, "doubled")),
    ],
    ids=["hollow triangle", "hollow tetrahedron", "one triangle of K4", "triangle", "4-cycle", "5-cycle",
         "two points", "not simplicial"],
)
def test_flag_matches_clique_enumeration(link, want):
    assert link.flag() == oracles.flag_by_cliques(link) == oracles.flag_by_growing_sets(link) == want


@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=5), max_size=12),
            st.sampled_from(["as drawn", "closed", "closed, hollow"]),
        )
    )
)
def test_flag_matches_clique_enumeration_on_drawn_complexes(drawn):
    n, simplices, shape = drawn
    faces = {tuple(sorted(s)) for s in simplices}
    if shape != "as drawn":
        faces = {sub for s in faces for r in range(2, len(s) + 1) for sub in combinations(s, r)}
    if shape == "closed, hollow":
        # dropping the largest simplices keeps the complex closed under faces
        faces = {s for s in faces if len(s) < max(map(len, faces))}
    top = max(map(len, faces), default=1)
    link = link_complex(n, *([s for s in sorted(faces) if len(s) == r] for r in range(2, top + 1)))
    assert link.flag() == oracles.flag_by_cliques(link) == oracles.flag_by_growing_sets(link)


@pytest.mark.parametrize(
    "build",
    [
        sd3_central,
        lambda: extract(*pairs_partition(5, ((0, 1), (2, 3), (4, 5))), (0, 1, 2)),
        lambda: balanced_join_central(),
    ],
    ids=["sd3 central", "doubled 5-simplex central", "16-cell joined with a balanced sphere"],
)
def test_flag_matches_clique_enumeration_on_vertex_links(build):
    for lk in vertex_links(build()).values():
        assert lk.flag() == oracles.flag_by_cliques(lk)


def link_fields(lk):
    return (lk.vertex_cell, lk.vertex_ids, lk.cells_by_dim, lk.simplicial, lk.simplicial_reason, lk._tops)


def twisted_chain_partitioned():
    # the two 3-simplices repeat a vertex class, so a square has two corners at one vertex
    T, _ = load_stream((pathlib.Path(__file__).parent / "fixtures" / "twisted_chain.txt").read_text())
    return T, VertexPartition(k=1, labels=(0, 1, 0))


def twisted_chain_central():
    return extract(*twisted_chain_partitioned(), (0, 1))


def not_all_cubes_central():
    T = double_simplex(3)
    return extract(T, VertexPartition(k=1, labels=(1, 1, 0, 1)), (0, 1))


LINK_INPUTS = {
    "sd3 central": sd3_central,
    "doubled 4-simplex central": lambda: extract(*pairs_partition(4, ((0, 1), (2, 3), (4,))), (0, 1, 2)),
    "doubled 5-simplex central": lambda: extract(*pairs_partition(5, ((0, 1), (2, 3), (4, 5))), (0, 1, 2)),
    "RP3 pairs central": lambda: extract(
        cross_projective(3), scheme_partition(cross_projective(3), "pairs", blocks=((0, 1), (2, 3))), (0, 1)
    ),
    "twisted chain central": twisted_chain_central,
    "doubled 5-simplex side": lambda: extract(*pairs_partition(5, ((0, 1), (2, 3), (4, 5))), (0, 1)),
}


def relabelled_projective(n, seed):
    rng = random.Random(seed)
    T = relabel(cross_projective(n), rng)
    return T, VertexPartition(k=2, labels=tuple(rng.randrange(3) for _ in range(T.face_poset.dim_start[1])))


CELL_TABLE_INPUTS = {
    "relabelled cross_projective(3)": lambda: relabelled_projective(3, 1),
    "relabelled cross_projective(4)": lambda: relabelled_projective(4, 2),
    "sd double_simplex(3) odd-bary": sd3_partitioned,
    "twisted chain": twisted_chain_partitioned,
    "cross_projective(3) pairs": lambda: (
        cross_projective(3),
        scheme_partition(cross_projective(3), "pairs", blocks=((0, 1), (2, 3))),
    ),
}


@pytest.mark.parametrize("name", CELL_TABLE_INPUTS)
def test_cell_tables_match_per_element_oracles(name):
    T, P = CELL_TABLE_INPUTS[name]()
    for r in range(1, P.k + 2):
        for S in combinations(range(P.k + 1), r):
            check_cell_tables(T, P, S)
    # supports partition the classes, and `local` numbers each support's ascending class ids
    rec = labelling(T, P)
    assert sorted(cid for ids in rec.by_support.values() for cid in ids) == list(range(T.face_poset.n_classes))
    for ids in rec.by_support.values():
        assert list(ids) == sorted(ids) and [ids[rec.local[cid]] for cid in ids] == list(ids)


def every_subset(P):
    return [S for r in range(1, P.k + 2) for S in combinations(range(P.k + 1), r)]


def every_subset_complex(T, P):
    return [extract(T, P, S) for S in every_subset(P)]


def relabelled_copies(T0, P0):
    """(T0, P0) and two relabelled copies of T0 with drawn labels, which give other complexes."""
    copies = [(T0, P0)]
    for seed in (1, 2):
        rng = random.Random(seed)
        T = relabel(T0, rng)
        copies.append((T, VertexPartition(k=P0.k, labels=tuple(rng.randrange(P0.k + 1) for _ in P0.labels))))
    return copies


@pytest.mark.parametrize("name", CELL_TABLE_INPUTS)
def test_connectivity_from_the_1_skeleton_matches_all_incidences(name):
    # the relabelled copies have disconnected complexes among them
    for T, P in relabelled_copies(*CELL_TABLE_INPUTS[name]()):
        for X in every_subset_complex(T, P):
            assert X.connected() == oracles.connected_by_all_incidences(X)


@pytest.mark.parametrize("name", CELL_TABLE_INPUTS)
def test_betti_and_orientation_match_elimination_and_corner_maps(name):
    for T, P in relabelled_copies(*CELL_TABLE_INPUTS[name]()):
        for X in every_subset_complex(T, P):
            assert X.betti() == oracles.betti_by_elimination(X)
            assert X.orientable() == oracles.orientable_by_corner_map(X)


def test_collapse_matches_parent_lists_with_and_without_free_faces():
    # with no cell of one parent the collapse stops at once; the lollipop graph of
    # sd(RP^2) has a single free face, which must not stop it
    T = barycentric(cross_projective(2))[0]
    rng = random.Random(0)
    P = VertexPartition(k=3, labels=tuple(rng.randrange(4) for _ in range(T.face_poset.dim_start[1])))
    lollipop = extract(T, P, (3,))
    assert lollipop.parent_counts().count(1) == 1
    free = []
    copies = [copy for build in CELL_TABLE_INPUTS.values() for copy in relabelled_copies(*build())]
    complexes = [X for T, P in copies for X in every_subset_complex(T, P)]
    for X in complexes + [lollipop]:
        res = collapse(X)
        assert (res.pairs_removed, res.spine_cells) == oracles.collapse_by_parent_lists(X)
        free.append(1 in X.parent_counts())
    assert set(free[:-1]) == {True, False}


@pytest.mark.parametrize("name", CELL_TABLE_INPUTS)
def test_spanning_forest_arrays_match_dict_oracle(name):
    # the same parents, in the same order, and the same cotree as the dict of (edge, direction) steps
    for T, P in relabelled_copies(*CELL_TABLE_INPUTS[name]()):
        for X in every_subset_complex(T, P):
            forest = X.spanning_forest
            parent, cotree = oracles.spanning_forest_by_dicts(X)
            steps = {v: (forest.edge[v], forest.direction[v]) if forest.edge[v] >= 0 else None for v in forest.order}
            assert (list(forest.order), steps, list(forest.cotree)) == (list(parent), parent, cotree)


def test_label_pass_and_complexes_peak_near_what_they_keep():
    # sd of the 4-sphere as the boundary of the 5-crosspolytope, even-npc: building the label
    # record and every subset complex holds no per-class list on top of the arrays they keep
    T, carriers = barycentric(cross_sphere(4))
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=infer_sides(T, carriers))
    fp = T.face_poset
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rec = cells_module._label_pass(T, P.labels)
        complexes = [cells_module._subset_complex(fp, rec, S) for S in every_subset(P)]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    kept = [rec.shape_of, rec.local, *rec.by_support.values()]
    kept += [a for X in complexes for a in (X.dims, X.child_start, X.child_flat)]
    assert peak <= 1.5 * sum(a.itemsize * len(a) for a in kept)


def test_betti_takes_the_top_rank_from_components_or_eliminates(monkeypatch):
    # drawn labels on small zoo members give non-cube cells and (D-1)-cells listed by three top cells
    from multisect import gf2

    tops = []  # per call of dimension D >= 2, the top cell count and rank ∂_D if known
    betti = gf2.betti

    def record(counts, columns, known):
        D = len(counts) - 1
        if D >= 2:
            tops.append((counts[D], known.get(D)))
        return betti(counts, columns, known)

    monkeypatch.setattr(gf2, "betti", record)
    orientations = set()
    for T in (double_simplex(4), cross_sphere(3), cross_projective(3), barycentric(double_simplex(3))[0]):
        nv = T.face_poset.dim_start[1]
        for k, seed in product((1, 2), range(3)):
            rng = random.Random(seed)
            P = VertexPartition(k=k, labels=tuple(rng.randrange(k + 1) for _ in range(nv)))
            for X in every_subset_complex(T, P):
                assert X.betti() == oracles.betti_by_elimination(X)
                orientations.add(X.orientable())
                assert X.orientable() == oracles.orientable_by_corner_map(X)
    # the component rule ran with closed components and without, and so did the elimination fallback
    assert {rank is None for _, rank in tops} == {True, False}
    assert {rank < count for count, rank in tops if rank is not None} == {True, False}
    assert orientations == {None, True, False}


def test_connectivity_from_the_1_skeleton_sees_disconnected_class_graphs():
    # sd^2 of the doubled triangle, even-npc: the non-side class spans six disjoint stars
    T = double_simplex(2)
    for _ in range(2):
        T, carriers = barycentric(T)
    P = scheme_partition(T, "even-npc", carriers=carriers, sides=infer_sides(T, slot_carriers(T)))
    complexes = every_subset_complex(T, P)
    got = [X.connected() for X in complexes]
    assert got == [oracles.connected_by_all_incidences(X) for X in complexes]
    assert set(got) == {True, False}


@pytest.mark.parametrize("name", CELL_TABLE_INPUTS)
def test_subset_complexes_read_no_face_poset_children(name, monkeypatch):
    # every subset complex takes its children from the label pass's shapes, not from `FacePoset.children`
    from multisect.partition import validate
    from multisect.triangulation import FacePoset

    T, P = CELL_TABLE_INPUTS[name]()
    want = {S: oracles.extract_by_scan(T, P, S) for r in range(1, P.k + 2) for S in combinations(range(P.k + 1), r)}

    def refuse(self, cid):
        raise AssertionError("FacePoset.children called")

    monkeypatch.setattr(FacePoset, "children", refuse)
    validate(T, P)
    for S, w in want.items():
        X = extract(T, P, S)
        assert (tuple(X.cells), oracles.cell_children(X)) == (w.cells, w.children)


def test_vertex_link_lookup_forms():
    X = sd3_central()
    lk_by_index = vertex_link(X, 0)
    assert lk_by_index.vertex_cell == 0
    with pytest.raises(TriangulationError):
        vertex_link(X, 10_000)
    # one link assembled alone, by index or by face key, equals its entry among all links
    for build in LINK_INPUTS.values():
        X = build()
        fp = X.face_poset
        for i, lk in vertex_links(X).items():
            assert link_fields(vertex_link(X, i)) == link_fields(lk)
            assert link_fields(vertex_link(X, fp.key(X.cells[i]))) == link_fields(lk)


def twisted_doubled_5_simplex_central():
    # two 5-simplices glued along every face, two of the gluings swapping corners 2 and 3
    swap, ident = (0, 1, 3, 2, 4, 5), tuple(range(6))
    rows = [[(1 - f, swap if i < 2 else ident) for i in range(6)] for f in range(2)]
    T = Triangulation(5, rows)
    return extract(T, VertexPartition(k=2, labels=(2, 1, 0, 2, 1)), (0, 1, 2))


def doubled_5_simplex_folded_corner():
    # The face table is edited so that two directions at one corner of a
    # 3-cube reach one edge germ: the second direction's edge is read as
    # the first's, with its corner map carrying the second end corner onto
    # the first, so the link's 1- and 2-simplices at that corner both
    # repeat a vertex.  No labelled triangulation does this: two directions
    # double distinct labels, so their edges are distinct cells.
    X = extract(*pairs_partition(5, ((0, 1), (2, 3), (4, 5))), (0, 1, 2))
    fp = X.face_poset
    i = list(X.dims).index(3)
    base = fp.cls_canon[X.cells[i]] // fp.M * fp.M
    _, _, ((e1, c1), (e2, c2), _) = X.shapes[X.shape_of[X.cells[i]]].templates[0]
    assert fp._map_of[base + e1] == 0  # the identity
    swap = list(range(fp.L))
    swap[c1], swap[c2] = c2, c1
    fp._table[base + e2] = fp._table[base + e1]
    fp._map_of[base + e2] = len(fp._perms)
    fp._perms.append(tuple(swap))
    return X


def balanced_join_central():
    # The 16-cell joined with a balanced 3-sphere L, four labels by colour:
    # L is two 16-cells glued along the boundary of a facet, so it holds
    # every triangle of that facet but not the facet.  At a vertex that is
    # a facet of the first 16-cell the central complex's link is L, whose
    # glued facet is a 4-clique that spans nothing.
    signs = list(product((1, -1), repeat=4))
    left = [tuple(("a", c, s[c]) for c in range(4)) for s in signs]
    right = [tuple(("b", c) if s[c] == 1 else ("b", c, half) for c in range(4)) for half in (0, 1) for s in signs[1:]]
    ids = {}
    facets = [tuple(ids.setdefault(v, len(ids)) for v in a + b) for a in left for b in right]
    T = Triangulation.from_vertex_facets(7, facets)
    fp = T.face_poset
    colour = {ids[v]: v[1] for v in ids}
    labels = [0] * fp.dim_start[1]
    for f, vs in enumerate(T.vertex_ids):
        for c, v in enumerate(vs):
            labels[fp.facet_vertices[f * 8 + c]] = colour[v]
    return extract(T, VertexPartition(k=3, labels=tuple(labels)), (0, 1, 2, 3))


FAILING_LINK_INPUTS = {
    "twisted doubled 5-simplex central": twisted_doubled_5_simplex_central,
    "doubled 5-simplex, folded corner": doubled_5_simplex_folded_corner,
    "16-cell joined with a balanced sphere": balanced_join_central,
}


@pytest.mark.parametrize(
    "build",
    [*LINK_INPUTS.values(), *FAILING_LINK_INPUTS.values(), not_all_cubes_central],
    ids=[*LINK_INPUTS, *FAILING_LINK_INPUTS, "not all cubes"],
)
def test_vertex_links_match_all_at_once_oracle(build):
    X = build()
    rep = npc_check(X)
    assert (rep.ok, rep.all_cubes, rep.link_count, rep.degrees, rep.failures) == oracles.npc_check_all_at_once(X)
    if not X.all_cubes:
        for links in (vertex_links, oracles.vertex_links_all_at_once, lambda X: vertex_link(X, 0)):
            with pytest.raises(TriangulationError, match="need a cube complex"):
                links(X)
        return
    got, want = vertex_links(X), oracles.vertex_links_all_at_once(X)
    assert list(got) == list(want)
    for v in want:
        assert link_fields(got[v]) == link_fields(want[v])


@pytest.mark.parametrize("kept, checks", [(0, range(430, 431)), (1, range(5, 430)), (64, range(4, 5))])
def test_npc_check_reuses_the_verdict_of_a_repeated_link_encoding(kept, checks, monkeypatch):
    # 430 links of four encodings, 48 of them failing; with fewer verdicts
    # kept the rest are checked again, with the same report
    X = balanced_join_central()
    checked = []
    simplicial_reason = cells_module._simplicial_reason
    monkeypatch.setattr(cells_module, "_simplicial_reason", lambda *a: checked.append(a) or simplicial_reason(*a))
    monkeypatch.setattr(cells_module, "_VERDICTS_KEPT", kept)
    rep = npc_check(X)
    assert (rep.ok, rep.all_cubes, rep.link_count, rep.degrees, rep.failures) == oracles.npc_check_all_at_once(X)
    assert rep.link_count == 430 and len(rep.failures) == 48
    assert len(checked) in checks


def relabelled_sd_rp3(seed):
    """sd(RP^3), its facets renumbered and corners permuted, with random 2 + 2 labels on the carrier dimensions.

    Every facet has one vertex of each carrier dimension, so each carries
    both labels twice and the central complex is a surface of squares;
    after the relabelling its corner maps are far from the identity.
    """
    T, carriers = barycentric(cross_projective(3))
    m, L = T.facet_count, T.dimension + 1
    U = Triangulation(T.dimension, relabelled_rows(T, random.Random(seed)))
    # replay relabelled_rows's draws: the facet order, then each facet's corner order
    rng = random.Random(seed)
    facet = rng.sample(range(m), m)
    corner = [rng.sample(range(L), L) for _ in range(m)]
    label_of_dim = [p // 2 for p in random.Random(seed).sample(range(L), L)]
    fp, fpu = T.face_poset, U.face_poset
    labels = {}
    for f in range(m):
        for c in range(L):
            label = label_of_dim[carriers.dims[fp.facet_vertices[f * L + c]]]
            assert labels.setdefault(fpu.facet_vertices[facet[f] * L + corner[f][c]], label) == label
    return U, VertexPartition(k=1, labels=tuple(labels[v] for v in range(len(labels))))


CORNER_MAP_INPUTS = {
    **{"relabelled sd(RP3), seed %d" % seed: (lambda seed=seed: extract(*relabelled_sd_rp3(seed), (0, 1))) for seed in (1, 2, 5)},
    "twisted chain central": twisted_chain_central,
    "twisted doubled 5-simplex central": twisted_doubled_5_simplex_central,
    "16-cell joined with a balanced sphere": balanced_join_central,
}


@pytest.mark.parametrize("name", CORNER_MAP_INPUTS)
def test_cube_faces_match_corner_map_oracles(name):
    # orientation, square boundaries and link ridges read by mask agree with the corner-map walks
    X = CORNER_MAP_INPUTS[name]()
    assert X.all_cubes and X.closed()
    assert X.orientable() == oracles.orientable_by_corner_map(X)
    assert X.square_boundaries == oracles.square_boundaries_by_corner_map(X)
    assert X.square_boundaries
    fp = X.face_poset
    for lk in vertex_links(X).values():
        assert _link_ridges(fp, lk._tops) == oracles.link_ridges_by_corner_map(fp, lk._tops)


def test_corner_map_inputs_cover_twisted_and_non_orientable_complexes():
    complexes = [build() for build in CORNER_MAP_INPUTS.values()]
    assert {X.orientable() for X in complexes} == {True, False}
    assert all(len(X.face_poset._perms) > 1 for X in complexes[:3])


def test_failing_links_of_dimension_3_and_up_cover_every_reason():
    reasons = {}
    for build in [LINK_INPUTS["doubled 5-simplex central"], *FAILING_LINK_INPUTS.values()]:
        X = build()
        assert X.all_cubes and X.dimension >= 3
        for _, why in npc_check(X).failures:
            reasons.setdefault(why, X.dimension)
    assert reasons == {
        "two link 1-simplices share their vertex set": 3,
        "two link 2-simplices share their vertex set": 3,
        "a link 1-simplex has a repeated vertex": 3,
        "clique of size 3 spans no simplex": 4,
        "clique of size 4 spans no simplex": 4,
    }
    # the folded corner's 2-simplex repeats a vertex too; its square's repeat is found first
    repeated = {
        h
        for lk in oracles.vertex_links_all_at_once(doubled_5_simplex_folded_corner()).values()
        for h, cells in enumerate(lk.cells_by_dim, start=1)
        for cell in cells
        if len(set(cell)) < len(cell)
    }
    assert repeated == {1, 2}


def sd2_rp3_central():
    """The odd-bary central complex of sd^2(RP^3): 4,224 / 9,216 / 4,608 cells, a closed surface."""
    T, carriers = barycentric(barycentric(cross_projective(3))[0])
    return extract(T, scheme_partition(T, "odd-bary", carriers=carriers), (0, 1))


def test_npc_check_holds_one_link_at_a_time():
    # sd^2(RP^3) odd-bary central complex, 4,224 vertex links: filing every
    # link's data before checking any grew tracemalloc by ~13 MiB here
    X = sd2_rp3_central()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = npc_check(X)
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.link_count == 4224
    assert growth < 4 * 2**20


def test_betti_and_orientation_hold_arrays_as_long_as_the_complex():
    # the complex's four flat arrays hold 0.30 MiB; with dense GF(2) columns
    # betti peaked at 11.0 times that, and with dict-of-lists incidences
    # orientable at 14.6 times; the pairing arrays read 1.1 and 0.6 times here
    X = sd2_rp3_central()
    held = sum(len(a) * a.itemsize for a in (X.cells, X.dims, X.child_start, X.child_flat))
    for ask, want in ((X.betti, (1, 386, 1)), (X.orientable, True)):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = ask()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 2 * held


def test_flat_tables_keep_the_subdivided_crosspolytope_small():
    # sd(∂ 4-crosspolytope) odd-bary, 384 facets and 1,504 central cells: the
    # label pass and the central complex retain 0.05 MiB beside the face poset;
    # with per-element tuples, cube records and dicts they retained 0.2 MiB
    T, carriers = barycentric(cross_sphere(3))
    P = scheme_partition(T, "odd-bary", carriers=carriers)
    assert T.face_poset.n_classes == 1696
    gc.collect()
    tracemalloc.start()
    try:
        X = extract(T, P, tuple(range(P.k + 1)))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(X.cells) == 1504 and X.all_cubes
    assert retained < 0.1 * 2**20


@pytest.mark.parametrize(
    "make, scheme, classes, cells",
    [(lambda: cross_sphere(3), "odd-bary", 1696, 1504), (lambda: double_simplex(4), "even-npc", 1622, 950)],
    ids=["sd-cross-s3-odd-bary", "sd-doubled-4-simplex-even-npc"],
)
def test_subdivision_pipeline_retains_little(make, scheme, classes, cells):
    # traced from before `barycentric`, so the triangulation and its face poset,
    # the partition (even-npc through slot_carriers and infer_sides), the label
    # pass and the central complex all count: 0.12 and 0.14 MiB here; with
    # per-element tuples, cube records and dicts they retained 0.48 and 0.38 MiB.
    # sd(∂ 5-crosspolytope) even-npc, 3,840 facets and 24,482 classes, was held
    # to 3 MiB; scaled by classes or facets that is 0.2 to 0.3 MiB here
    base = make()
    gc.collect()
    tracemalloc.start()
    try:
        T, carriers = barycentric(base)
        sides = infer_sides(T, slot_carriers(T)) if scheme == "even-npc" else None
        P = scheme_partition(T, scheme, carriers=carriers, sides=sides)
        X = extract(T, P, tuple(range(P.k + 1)))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (T.face_poset.n_classes, len(X.cells), X.all_cubes) == (classes, cells, True)
    assert retained < 0.2 * 2**20


def test_collapse_preserves_euler_and_betti():
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    for S in [(0,), (0, 1), (0, 2)]:
        X = extract(T, P, S)
        res = collapse(X)
        assert res.spine_euler == X.euler()
        spine = set(res.spine_cells)
        by_dim = collections.defaultdict(list)
        children = oracles.cell_children(X)
        for i in spine:
            kids = [k for k in children[i] if children[i].count(k) % 2 == 1]
            assert all(k in spine for k in children[i])
            by_dim[X.dims[i]].append(frozenset(kids))
        top = res.spine_dim
        counts = [0] * (top + 1)
        for i in spine:
            counts[X.dims[i]] += 1
        ranks = [0] * (top + 2)
        for d in range(1, top + 1):
            ranks[d] = oracles.gf2_rank_sets(by_dim[d])
        spine_betti = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))
        assert spine_betti == tuple(X.betti()[d] for d in range(top + 1))
        assert all(b == 0 for b in X.betti()[top + 1 :])


def test_collapse_never_removes_last_vertex():
    T, P = pairs_partition(4, ((0, 1), (2, 3), (4,)))
    X = extract(T, P, (0, 2))
    res = collapse(X)
    assert res.spine_counts == (1,)
    assert res.spine_dim == 0


def test_graph_genus_values():
    T3 = cross_projective(3)
    P3 = scheme_partition(T3, "pairs", blocks=((0, 1), (2, 3)))
    graphs = validate(T3, P3).class_graphs
    assert graphs[0].genus == 1
    assert graphs[1].genus == 1

    T5, P5 = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    assert validate(T5, P5).class_graphs[0].genus == 0

    T1, c1 = barycentric(double_simplex(3))
    P1 = scheme_partition(T1, "odd-bary", carriers=c1)
    G = validate(T1, P1).class_graphs[0]
    assert (G.vertices, G.edges) == (10, 12)
    assert G.genus == 3


def test_central_tops_match_facets():
    builds = [
        pairs_partition(4, ((0, 1), (2, 3), (4,))),
        pairs_partition(5, ((0, 1), (2, 3), (4, 5))),
    ]
    T1, c1 = barycentric(double_simplex(3))
    P1 = scheme_partition(T1, "odd-bary", carriers=c1)
    builds.append((T1, P1))
    for T, P in builds:
        X = extract(T, P, tuple(range(P.k + 1)))
        assert X.top_count() == T.facet_count


def test_closed_means_two_parents():
    X = sd3_central()
    pc = X.parent_counts()
    for i, d in enumerate(X.dims):
        if d == X.dimension - 1:
            assert pc[i] == 2


def test_cell_summary_dict():
    T, P = pairs_partition(5, ((0, 1), (2, 3), (4, 5)))
    X = extract(T, P, (0, 1, 2))
    s = X.summary()
    assert s["counts"] == (8, 12, 6, 2)
    assert s["euler"] == 0
    assert s["closed"] and s["connected"]
    assert s["all_cubes"]


def test_projective_central_torus_betti_by_orbit_complex():
    # Independent route: antipodal orbits of sign-vector faces of the
    # 3-crosspolytope, axes {0,1} against {2,3}, squares from the full
    # support.  The library value must match this chain complex.
    def orbit(face):
        flip = frozenset((a, -s) for a, s in face)
        return min(face, flip, key=lambda f: sorted(f))

    verts = [(a, s) for a in range(4) for s in (1, -1)]
    faces = []
    for r in (2, 3, 4):
        from itertools import combinations

        for sub in combinations(verts, r):
            axes = [a for a, _ in sub]
            if len(set(axes)) != len(axes):
                continue
            lo = sum(1 for a in axes if a < 2)
            hi = len(axes) - lo
            if lo >= 1 and hi >= 1:
                faces.append(frozenset(sub))
    cells_by_dim = {0: set(), 1: set(), 2: set()}
    for f in faces:
        lo = sum(1 for a, _ in f if a < 2)
        hi = len(f) - lo
        d = (lo - 1) + (hi - 1)
        cells_by_dim[d].add(orbit(f))
    assert [len(cells_by_dim[d]) for d in (0, 1, 2)] == [8, 16, 8]

    def boundary(face):
        lo = [v for v in face if v[0] < 2]
        hi = [v for v in face if v[0] >= 2]
        out = []
        for v in face:
            side = lo if v[0] < 2 else hi
            if len(side) >= 2:
                out.append(orbit(frozenset(face - {v})))
        return frozenset(x for x in out if out.count(x) % 2 == 1)

    rows1 = [boundary(f) for f in cells_by_dim[1]]
    rows2 = [boundary(f) for f in cells_by_dim[2]]
    r1 = oracles.gf2_rank_sets(rows1)
    r2 = oracles.gf2_rank_sets(rows2)
    expect = (8 - r1, 16 - r1 - r2, 8 - r2)
    assert expect == (1, 2, 1)

    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    X = extract(T, P, (0, 1))
    assert X.counts() == (8, 16, 8)
    assert X.betti() == expect
    assert X.orientable()

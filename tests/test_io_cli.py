"""Text formats, JSON export, and the command line front end."""

import contextlib
import gc
import inspect
import io
import json
import pathlib
import random
import re
import shlex
import sys
import tracemalloc
from functools import lru_cache
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import multisect
import oracles
from multisect import io as io_mod
from multisect.cli import HEADER, main
from multisect.io import load_stream, save_partition, save_stream, save_triangulation
from multisect.partition import scheme_partition
from multisect.subdivide import barycentric, join, stellar_facet
from multisect.triangulation import Triangulation, TriangulationError
from multisect.zoo import cross_projective, cross_sphere, double_simplex
from test_triangulation import relabel, relabelling, renamed_rows

ROOT = pathlib.Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "cellcomplex.schema.json").read_text())


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


# --- text formats -----------------------------------------------------------


def test_gluing_layout_round_trip():
    for T in (double_simplex(4), cross_projective(3)):
        text = save_triangulation(T, layout="gluing")
        back, P = load_stream(text)
        assert P is None
        assert back.gluings == T.gluings
        assert save_triangulation(back, layout="gluing") == text


def test_vertex_layout_round_trip():
    T = cross_sphere(3)
    text = save_triangulation(T, layout="vertex")
    back, _ = load_stream(text)
    assert back.vertex_ids == T.vertex_ids
    assert back.isomorphic_to(T)
    assert save_triangulation(back, layout="vertex") == text


def test_auto_layout_prefers_vertex_ids():
    T = cross_sphere(2)
    assert save_triangulation(T).startswith("dim 2\nvertexfacets 8\n")
    assert save_triangulation(double_simplex(2)).startswith("dim 2\nfacets 2\n")


def test_vertex_layout_needs_vertex_ids():
    with pytest.raises(TriangulationError):
        save_triangulation(double_simplex(2), layout="vertex")


def test_partition_round_trip_class_keys():
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    text = save_stream(T, P)
    back_T, back_P = load_stream(text)
    assert back_P is not None
    assert back_P.k == P.k
    assert back_P.labels == P.labels
    assert save_stream(back_T, back_P) == text


def test_partition_round_trip_plain_ids():
    T = cross_sphere(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    text = save_stream(T, P, layout="vertex")
    assert "\nv 0 " in text or "\nv 1 " in text
    _, back_P = load_stream(text)
    assert back_P is not None
    assert back_P.labels == P.labels


def test_comments_and_blank_lines_ignored():
    T = double_simplex(3)
    lines = save_triangulation(T).splitlines()
    noisy = "# leading note\n\n" + "\n# interlude\n".join(lines) + "\n"
    back, _ = load_stream(noisy)
    assert back.gluings == T.gluings


def test_malformed_documents_rejected():
    good = save_triangulation(double_simplex(3))
    cases = [
        "dim x\nfacets 2\n",
        good[: good.rfind("\n", 0, len(good) - 1)],          # truncated row
        good + "0 1 0 1 2 3\n",                              # trailing tokens
        good.replace("facets 2", "facets 3", 1),
        good.replace("0 1 0 1 2 3", "0 1 0 1 2 9", 1),       # bad corner
        good.replace("0 1 0 1 2 3", "0 1 0 1 2 2", 1),       # not a bijection
    ]
    for text in cases:
        with pytest.raises(TriangulationError):
            load_stream(text)


def test_partition_label_errors_rejected():
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    text = save_stream(T, P)
    with pytest.raises(TriangulationError):
        load_stream(text.replace("v 0:0 0", "v 0:0 9", 1))
    first = "v 0:0 0"
    # restating the same label is tolerated; a conflict is not
    load_stream(text + first + "\n")
    with pytest.raises(TriangulationError):
        load_stream(text + "v 0:0 1\n")
    with pytest.raises(TriangulationError):
        load_stream(text.replace(first + "\n", "", 1))  # missing class


def test_save_is_deterministic():
    T, _ = barycentric(double_simplex(3))
    assert save_triangulation(T) == save_triangulation(T)


# --- the chunked reader against the per-token oracle -------------------------

# every `str.splitlines` boundary ends a comment
BOUNDARIES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# replacement tokens; the header's (dimension, facet count) stay small, as the oracle allocates a row per facet
SMALL_TOKENS = ["x", "1.5", "0x1", "+3", "\u0663", "\u00b2", "3_0", "-1", "0", "4", "7", "99", "#", "k", "v", "dim", "facets", "0:0"]
TOKENS = SMALL_TOKENS + ["2147483648", "9" * 30]


@lru_cache(maxsize=None)
def reader_subjects():
    rng = random.Random(17)
    rp3, s3 = cross_projective(3), cross_sphere(3)
    subjects = {
        "double_simplex(3)": save_triangulation(double_simplex(3)),
        "cross_sphere(2)": save_triangulation(cross_sphere(2)),
        "cross_projective(2)": save_triangulation(cross_projective(2)),
        "relabelled cross_projective(3)": save_triangulation(relabel(rp3, rng)),
        "relabelled sd(double_simplex(2))": save_triangulation(relabel(barycentric(double_simplex(2))[0], rng)),
        "sd(double_simplex(3))": save_triangulation(barycentric(double_simplex(3))[0]),
        "cross_projective(3) with pairs": save_stream(rp3, scheme_partition(rp3, "pairs", blocks=((0, 1), (2, 3)))),
        "cross_sphere(3) with pairs": save_stream(s3, scheme_partition(s3, "pairs", blocks=((0, 1), (2, 3)))),
    }
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.txt")):
        subjects[path.name] = path.read_text()
    return subjects


def read_outcome(reader, text):
    """What a reader makes of a stream: its tables and partition, or its error."""
    try:
        T, P = reader(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return T.dimension, list(T.targets), list(T.map_ids), T.maps, T.vertex_ids, P and (P.k, P.labels)


def mutate(data, text):
    kind = data.draw(st.sampled_from(["truncate", "drop", "duplicate", "swap", "token", "comments", "crlf"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text)))]
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    if kind == "token" and spans:
        j = data.draw(st.integers(0, len(spans) - 1))
        a, b = spans[j]
        return text[:a] + data.draw(st.sampled_from(TOKENS if j >= 4 else SMALL_TOKENS)) + text[b:]
    if kind == "comments":
        return text.replace("\n", " #note" + data.draw(st.sampled_from(BOUNDARIES)))
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:  # a nearby line, often of the same facet
        j = min(len(lines) - 1, i + data.draw(st.integers(1, 4)))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def test_boundaries_are_the_splitlines_boundaries():
    singles = {b for b in BOUNDARIES if len(b) == 1}
    assert singles == {chr(c) for c in range(0x3000) if len(("a" + chr(c) + "b").splitlines()) == 2}
    assert "a\r\nb".splitlines() == ["a", "b"]


DOUBLED_TRIANGLE = "dim 2\nfacets 2\n0 1 0 1 2\n1 1 0 1 2\n2 1 0 1 2\n0 0 0 1 2\n1 0 0 1 2\n2 0 0 1 2\n"
SLOT_ERRORS = {
    # at one slot: target range, then the corner map, then self-gluing
    "target before map": ("0 1 0 1 2", "0 5 0 0 2", "facet 0 slot 0: target 5 out of range"),
    "map before self-gluing": ("0 1 0 1 2", "0 0 0 0 2", "facet 0 slot 0: corner map (0, 0, 2) is not a bijection"),
    "self-gluing": ("0 1 0 1 2", "0 0 0 1 2", "facet 0 slot 0 glued to itself"),
    # across slots, the first bad one in (f, i) order
    "map at an earlier slot": ("1 1 0 1 2\n2 1 0 1 2", "2 9 0 1 2\n1 1 0 1 1", "facet 0 slot 1: corner map (0, 1, 1) is not a bijection"),
    "wide target at an earlier slot": ("2 1 0 1 2\n0 0", "2 %d 0 1 2\n0 0" % 2**40, "facet 0 slot 2: target %d out of range" % 2**40),
    # a bad token anywhere wins over every slot check
    "token after a bad slot": ("0 1 0 1 2", "0 5 0 1 2", "expected bijection entry, got 'x'"),
}


@pytest.mark.parametrize("old, new, message", SLOT_ERRORS.values(), ids=SLOT_ERRORS)
def test_chunked_reader_ranks_slot_errors_as_the_oracle(old, new, message):
    text = DOUBLED_TRIANGLE.replace(old, new, 1)
    if message.startswith("expected"):
        text = text[: text.rfind("2")] + "x\n"
    for chunk in (1, io_mod._CHUNK):
        with mock.patch.object(io_mod, "_CHUNK", chunk):
            assert read_outcome(load_stream, text) == ("TriangulationError", message)
    assert read_outcome(oracles.load_stream_by_tokens, text) == ("TriangulationError", message)


@pytest.mark.parametrize("chunk", [1, 7, 100, io_mod._CHUNK])
def test_chunked_reader_matches_token_oracle_on_subjects(chunk):
    with mock.patch.object(io_mod, "_CHUNK", chunk):
        for name, text in reader_subjects().items():
            want = read_outcome(oracles.load_stream_by_tokens, text)
            assert isinstance(want[0], int), name  # every subject reads
            assert read_outcome(load_stream, text) == want, name


@settings(max_examples=400)
@given(name=st.sampled_from(sorted(reader_subjects())), chunk=st.sampled_from([1, 7, 100, io_mod._CHUNK]), data=st.data())
def test_chunked_reader_matches_token_oracle_on_mutated_streams(name, chunk, data):
    text = reader_subjects()[name]
    for _ in range(data.draw(st.integers(1, 3))):
        text = mutate(data, text)
    want = read_outcome(oracles.load_stream_by_tokens, text)
    with mock.patch.object(io_mod, "_CHUNK", chunk):
        assert read_outcome(load_stream, text) == want


@pytest.mark.parametrize("line_end", ["\n", "\r", "\u2028"])
def test_load_stream_holds_one_chunk_beside_its_tables(line_end):
    # sd(∂ 5-crosspolytope), 3,840 facets in a 321 KB stream: the per-token
    # reader peaked at 3.5 MiB, 8.5 times what the read keeps (0.42 MiB); the
    # chunked reader peaks at 0.46 MiB.  Chunks end at any line boundary, so
    # a stream without a "\n" is not read as one chunk.
    text = save_triangulation(barycentric(cross_sphere(4))[0]).replace("\n", line_end)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        T, _ = load_stream(text)
        kept, peak = (x - start for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert T.facet_count == 3840
    assert peak < 5 * kept


def test_a_huge_dimension_allocates_nothing_before_its_tokens_arrive():
    # the per-token reader allocated a row of n + 1 slots first: 76 MiB here
    tracemalloc.start()
    try:
        with pytest.raises(TriangulationError, match="unexpected end of input, wanted bijection entry"):
            load_stream("dim 9999999\nfacets 1\n0 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- command line -----------------------------------------------------------


def test_cli_header_and_version():
    code, out, _ = run(["gen", "--double-simplex", "3"])
    assert code == 0
    assert out.startswith("# multisect 0.1.0\n")
    code, out, _ = run(["--version"])
    assert code == 0


def test_cli_gen_info_round():
    code, out, _ = run(["gen", "--cross-sphere", "3"])
    assert code == 0
    code, info, _ = run(["info"], stdin_text=out)
    assert code == 0
    assert "faces 8,24,32,16" in info
    assert "euler 0" in info


def test_cli_gen_rejects_mixed_families():
    code, _, err = run(["gen", "--double-simplex", "3", "--cross-sphere", "2"])
    assert code == 2
    code, _, err = run(["gen"])
    assert code == 2


def test_cli_gen_vertex_layout_guard():
    code, out, err = run(["gen", "--double-simplex", "3", "--format", "vertex"])
    assert code == 2
    assert "gluing layout" in err


# a `multisect` shell pipeline followed by the block of its output
README_PIPELINES = [
    pytest.param(command, expected, id=shlex.split(command.split("|")[-1])[1])
    for command, expected in re.findall(
        r"```sh\n(multisect .*?)```\n\n```\n(.*?)```", (ROOT / "README.md").read_text(), re.S
    )
]


@pytest.mark.parametrize("command, expected", README_PIPELINES)
def test_readme_pipelines(command, expected):
    assert len(README_PIPELINES) == 3
    out = None
    for stage in command.replace("\\\n", " ").split("|"):
        argv = shlex.split(stage)
        assert argv[0] == "multisect"
        code, out, err = run(argv[1:], stdin_text=out)
        assert (code, err) == (0, "")
    assert out.startswith(HEADER)
    # a `...` line in the README stands for any run of output lines
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected.splitlines())
    assert re.fullmatch(pattern, out[len(HEADER):]), out


def test_cli_five_sphere_pipeline():
    code, doc, _ = run(["gen", "--double-simplex", "5"])
    assert code == 0
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3/4,5"], stdin_text=doc
    )
    assert code == 0
    code, rep, _ = run(["report"], stdin_text=part)
    assert code == 0
    assert "genera 0,0,0" in rep
    assert "supports_multisection true" in rep
    code, rep2, _ = run(["report", "--expect-multisection"], stdin_text=part)
    assert code == 0
    assert rep2 == rep


def test_cli_projective_npc_pipeline():
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc
    )
    assert code == 0
    code, out, _ = run(["npc-check"], stdin_text=part)
    assert code == 0
    assert "links 8" in out
    assert "degrees 4" in out
    assert "npc ok true" in out


def test_cli_small_even_npc_pipeline_fails_honestly():
    code, doc, _ = run(["gen", "--double-simplex", "2"])
    code, sd1, _ = run(["subdivide", "--barycentric"], stdin_text=doc)
    code, sd2, _ = run(["subdivide", "--barycentric"], stdin_text=sd1)
    assert code == 0
    code, part, _ = run(["partition", "--scheme", "even-npc"], stdin_text=sd2)
    assert code == 0
    code, rep, _ = run(["report", "--expect-multisection"], stdin_text=part)
    assert code == 1
    assert "supports_multisection false" in rep
    assert "diagnostic class graph 1 disconnected" in rep


def test_cli_report_refuses_the_suspension_of_rp2(tmp_path):
    # the two apexes have projective-plane links; the profile and subset checks pass this partition
    code, sd, _ = run(["subdivide", "--barycentric", str(ROOT / "tests" / "fixtures" / "suspension_rp2.txt")])
    code, part, _ = run(["partition", "--scheme", "odd-bary"], stdin_text=sd)
    assert code == 0
    diagnostics = [
        "euler characteristic 1, not 0 as on a closed odd-dimensional manifold",
        "central euler characteristic -40, not -38 as on the boundary of a genus-20 handlebody",
    ]
    # verify refuses it with the same diagnostics; its exit code follows the profile
    code, out, _ = run(["verify"], stdin_text=part)
    assert code == 0 and "supports_multisection false" in out
    assert out.endswith("".join("diagnostic %s\n" % d for d in diagnostics))
    path = tmp_path / "report.json"
    code, rep, _ = run(["report", "--expect-multisection", "--out", str(path)], stdin_text=part)
    assert code == 1
    assert "supports_multisection false" in rep and "genera 20,21" in rep
    assert rep.endswith("".join("diagnostic %s\n" % d for d in diagnostics))
    assert json.loads(path.read_text())["diagnostics"] == diagnostics


def test_cli_subdivide_times():
    code, doc, _ = run(["gen", "--double-simplex", "3"])
    code, sd, _ = run(["subdivide", "--barycentric", "--times", "2"], stdin_text=doc)
    assert code == 0
    code, info, _ = run(["info"], stdin_text=sd)
    assert "facets 1152" in info


def test_cli_subdivide_builds_no_face_poset(monkeypatch):
    # the carriers `barycentric` reads off a face poset are not written, so no poset is built
    from multisect import triangulation

    code, doc, _ = run(["gen", "--cross-projective", "3"])
    builds = []
    face_poset = triangulation.FacePoset
    monkeypatch.setattr(triangulation, "FacePoset", lambda T: builds.append(T) or face_poset(T))
    code, sd, _ = run(["subdivide", "--barycentric", "--times", "2"], stdin_text=doc)
    assert (code, builds) == (0, [])
    assert sd == HEADER + io_mod.save_gluing(barycentric(barycentric(cross_projective(3))[0])[0])


def test_cli_subdivide_requires_mode():
    code, doc, _ = run(["gen", "--double-simplex", "3"])
    code, _, err = run(["subdivide"], stdin_text=doc)
    assert code == 2


def test_cli_pachner_pass():
    code, doc, _ = run(["gen", "--double-simplex", "4"])
    code, sd, _ = run(["subdivide", "--barycentric"], stdin_text=doc)
    code, part, _ = run(["partition", "--scheme", "even-bary"], stdin_text=sd)
    assert code == 0
    code, moved, _ = run(["pachner-pass"], stdin_text=part)
    assert code == 0
    code, info, _ = run(["info"], stdin_text=moved)
    assert "facets 480" in info


def test_cli_stellar_and_join():
    code, doc, _ = run(["gen", "--cross-sphere", "2", "--format", "vertex"])
    code, out, _ = run(["stellar", "--facet", "0"], stdin_text=doc)
    assert code == 0
    code, info, _ = run(["info"], stdin_text=out)
    assert "facets 10" in info

    code, a, _ = run(["gen", "--cross-sphere", "1", "--format", "vertex"])
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        pa = os.path.join(d, "a.txt")
        with open(pa, "w") as fh:
            fh.write(a)
        code, j, _ = run(["join", pa, pa])
        assert code == 0
        code, info, _ = run(["info"], stdin_text=j)
        assert "facets 16" in info


def test_cli_verify_and_exit_codes():
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc
    )
    code, out, _ = run(["verify"], stdin_text=part)
    assert code == 0
    assert "profile ok true" in out
    assert "class graph 0 vertices 2 edges 2 connected true genus 1" in out

    # without a partition section the command cannot verify anything
    code, _, err = run(["verify"], stdin_text=doc)
    assert code == 2


def test_cli_build_and_collapse():
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc
    )
    code, out, _ = run(["build", "--subset", "0,1"], stdin_text=part)
    assert code == 0
    assert "cells 8,16,8" in out
    assert "euler 0" in out
    code, out, _ = run(["collapse", "--subset", "0"], stdin_text=part)
    assert code == 0
    assert "spine-dim 1" in out
    assert "pairs-removed 0" in out


def test_cli_refuses_subset_labels_out_of_range(tmp_path):
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    out_path = tmp_path / "cells.json"
    for command in (["build"], ["collapse"], ["npc-check"], ["export", "--json", str(out_path)]):
        for subset, label in (("7", 7), ("0,2", 2), ("-1", -1)):
            code, out, err = run(command + ["--subset", subset], stdin_text=part)
            assert (code, out, err) == (2, "", "multisect: subset label %d out of range 0..1\n" % label)
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["build", "collapse", "npc-check", "export"])
def test_cli_refuses_an_empty_subset(command, tmp_path):
    # an empty --subset is malformed like "," is, not a request for every label
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    out_path = tmp_path / "cells.json"
    argv = [command] + (["--json", str(out_path)] if command == "export" else [])
    for subset in ("", ","):
        code, out, err = run(argv + ["--subset", subset], stdin_text=part)
        assert (code, out, err) == (2, "", "multisect: bad subset %r, expected comma-separated class labels\n" % subset)
    assert not out_path.exists()


def test_cli_pairs_refuses_streams_without_coordinate_slots():
    # the 5-sphere as the boundary of the 6-simplex, each facet's vertices ascending:
    # vertex 5 sits at slot 5 of facet 0 and at slot 4 of facet 2, so slots are not coordinates
    facets = [[v for v in range(7) if v != gap] for gap in (6, 5, 4, 3, 2, 1, 0)]
    stream = "dim 5\nvertexfacets 7\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
    code, out, err = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3/4,5"], stdin_text=stream)
    assert (code, out) == (2, "")
    # the vertex is named as the stream names it, as a partition section would
    assert err == (
        "multisect: --scheme pairs needs coordinate corner slots:"
        " corner slots do not determine carriers (vertex class 5)\n"
    )
    # the carrier-reading schemes keep their own refusal
    code, _, err = run(["partition", "--scheme", "odd-bary"], stdin_text=stream)
    assert (code, err) == (2, "multisect: corner slots do not determine carriers (vertex class 5)\n")
    # in the gluing layout the stream names vertices by face key
    glued = save_triangulation(load_stream(stream)[0], layout="gluing")
    code, _, err = run(["partition", "--scheme", "odd-bary"], stdin_text=glued)
    assert (code, err) == (2, "multisect: corner slots do not determine carriers (vertex class 0:5)\n")


@lru_cache(maxsize=None)
def pairs_streams():
    """Streams for the library-against-CLI `pairs` check, each with whether its corner slots are coordinates.

    None marks a relabelling whose per-facet corner shuffles may or may not keep every class at one slot.
    """
    out = {}
    for n in range(1, 6):
        out["double_simplex(%d)" % n] = (save_stream(double_simplex(n)), True)
        for layout in ("gluing", "vertex"):
            out["cross_sphere(%d) %s" % (n, layout)] = (save_stream(cross_sphere(n), layout=layout), True)
        if n >= 2:
            out["cross_projective(%d)" % n] = (save_stream(cross_projective(n)), True)
    for name, T in (("double_simplex(3)", double_simplex(3)), ("cross_sphere(3)", cross_sphere(3)),
                    ("cross_projective(4)", cross_projective(4))):
        m, L = T.facet_count, T.dimension + 1
        for seed in (0, 1):
            rng = random.Random(seed)
            facet, corner = relabelling(T, rng)
            one = rng.sample(range(L), L)
            for kind, corners, ok in (("facets", [list(range(L))] * m, True), ("one corner order", [one] * m, True),
                                      ("facets and corners", corner, None)):
                rows = renamed_rows(T, facet, corners)
                out["%s, seed %d, %s shuffled" % (name, seed, kind)] = (save_stream(Triangulation(T.dimension, rows)), ok)
    for name, T in (("double_simplex(2)", double_simplex(2)), ("cross_sphere(2)", cross_sphere(2)),
                    ("cross_projective(3)", cross_projective(3))):
        out["sd " + name] = (save_stream(barycentric(T)[0]), True)
    for name, T, facet in (("cross_sphere(2)", cross_sphere(2), 0), ("cross_sphere(3)", cross_sphere(3), 5),
                           ("double_simplex(3)", double_simplex(3), 1), ("cross_projective(2)", cross_projective(2), 3)):
        out["stellar %s facet %d" % (name, facet)] = (save_stream(stellar_facet(T, facet)), False)
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        out["join cross_sphere(%d) cross_sphere(%d)" % (a, b)] = (save_stream(join(cross_sphere(a), cross_sphere(b))), True)
    out["twisted_chain"] = ((ROOT / "tests" / "fixtures" / "twisted_chain.txt").read_text(), False)
    out["suspension_rp2"] = ((ROOT / "tests" / "fixtures" / "suspension_rp2.txt").read_text(), False)
    return out


@pytest.mark.parametrize("name", list(pairs_streams()))
def test_library_pairs_matches_cli_pairs(name):
    # both read each vertex class's corner slot: the same labels, or the same slot refusal,
    # to which the CLI adds only its flag; block errors stay bare on both
    text, slots_ok = pairs_streams()[name]
    T = load_stream(text)[0]
    n = T.dimension
    specs = [
        "/".join(",".join(map(str, range(i, min(i + 2, n + 1)))) for i in range(0, n + 1, 2)),
        "/".join(map(str, range(n + 1))),
        ",".join(map(str, range(n + 1))),
        ",".join(map(str, range(n))),  # coordinate n is in no block
        "0/" + ",".join(map(str, range(n + 1))),  # coordinate 0 sits in two blocks
    ]
    slot_refusals = 0
    for spec in specs:
        code, out, err = run(["partition", "--scheme", "pairs", "--blocks", spec], stdin_text=text)
        blocks = [[int(x) for x in part.split(",")] for part in spec.split("/")]
        try:
            P = scheme_partition(T, "pairs", blocks=blocks)
        except TriangulationError as e:
            slots = str(e).startswith("pairs needs coordinate corner slots: corner slots do not determine carriers")
            slot_refusals += slots
            prefix = "--scheme " if slots else ""
            assert (code, out, err) == (2, "", "multisect: %s%s\n" % (prefix, e))
        else:
            assert (code, err) == (0, "")
            got = load_stream(out)[1]
            assert (got.k, got.labels) == (P.k, P.labels)
    if slots_ok is not None:
        assert slot_refusals == (0 if slots_ok else len(specs))


def test_cli_partition_reads_a_labels_file(tmp_path):
    T = cross_projective(3)
    P = scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))
    labels = tmp_path / "labels.txt"
    labels.write_text("# the pairs partition\r\n" + save_partition(T, P).replace("\n", " # v\r\n"))
    argv = ["partition", "--scheme", "explicit", "--labels", str(labels)]
    assert run(argv, stdin_text=save_triangulation(T)) == (0, HEADER + save_stream(T, P), "")
    labels.write_text(save_partition(T, P) + "v 0:0 0 extra\n")
    assert run(argv, stdin_text=save_triangulation(T)) == (2, "", "multisect: trailing input in labels file at 'extra'\n")


def test_cli_report_out_json(tmp_path):
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc
    )
    out_path = tmp_path / "rep.json"
    code, _, _ = run(["report", "--out", str(out_path)], stdin_text=part)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["format"] == 1
    assert doc["genera"] == [1, 1]
    assert doc["supports_multisection"] is True
    assert doc["n"] == 3 and doc["k"] == 1


def test_cli_export_json_schema(tmp_path):
    code, doc, _ = run(["gen", "--cross-projective", "3"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc
    )
    out_path = tmp_path / "central.json"
    code, out, _ = run(["export", "--json", str(out_path), "--subset", "0,1"], stdin_text=part)
    assert code == 0
    payload = json.loads(out_path.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["counts"] == [8, 16, 8]
    assert payload["betti"] == [1, 2, 1]


def test_cli_cover_modes():
    code, doc, _ = run(["gen", "--cross-projective", "4"])
    code, out, _ = run(["cover", "--orientation"], stdin_text=doc)
    assert code == 0
    code, info, _ = run(["info"], stdin_text=out)
    assert "facets 32" in info
    assert "orientable true" in info

    code, out, _ = run(["cover", "--labeling"], stdin_text=doc)
    assert code == 0
    assert "# labeling cover, degree 1" in out

    code, _, _ = run(["cover"], stdin_text=doc)
    assert code == 2


TWISTED_CHAIN = str(ROOT / "tests" / "fixtures" / "twisted_chain.txt")


@pytest.mark.parametrize(
    "kind, err",
    [
        ("--labeling", "multisect: labeling cover would produce more than the ceiling of 3 facets\n"),
        ("--orientation", "multisect: orientation double cover would produce 4 facets, over the ceiling 3\n"),
    ],
)
def test_cli_cover_refuses_past_the_ceiling(kind, err, monkeypatch):
    # both covers of the 2-facet twisted chain have 4 facets
    assert run(["cover", kind, "--ceiling", "3", TWISTED_CHAIN]) == (2, "", err)
    monkeypatch.setenv("MULTISECT_CEILING", "3")
    assert run(["cover", kind, TWISTED_CHAIN]) == (2, "", err)


@pytest.mark.parametrize("kind", ["--labeling", "--orientation"])
def test_cli_cover_at_the_ceiling_is_unchanged(kind):
    code, out, err = run(["cover", kind, TWISTED_CHAIN])
    assert (code, err) == (0, "") and "dim 3" in out
    assert run(["cover", kind, "--ceiling", "4", TWISTED_CHAIN]) == (code, out, err)


def test_cli_symrep():
    fixture = (pathlib.Path(__file__).parent / "fixtures" / "twisted_chain.txt").read_text()
    code, out, _ = run(["symrep"], stdin_text=fixture)
    assert code == 0
    assert "trivial false" in out
    assert "generators 1" in out
    assert "orbits 1,1,2" in out

    code, doc, _ = run(["gen", "--cross-sphere", "3"])
    code, out, _ = run(["symrep"], stdin_text=doc)
    assert code == 0
    assert "trivial true" in out


def test_cli_npc_check_failure_exit():
    code, doc, _ = run(["gen", "--double-simplex", "4"])
    code, part, _ = run(
        ["partition", "--scheme", "pairs", "--blocks", "0,1/2,3/4"], stdin_text=doc
    )
    code, out, _ = run(["npc-check"], stdin_text=part)
    assert code == 1
    assert "npc ok false" in out


def test_cli_ceiling_env(monkeypatch):
    code, doc, _ = run(["gen", "--double-simplex", "3"])
    monkeypatch.setenv("MULTISECT_CEILING", "10")
    code, _, err = run(["subdivide", "--barycentric"], stdin_text=doc)
    assert code == 2
    assert "ceiling" in err


@pytest.mark.parametrize("argv", [["info"], ["gen", "--double-simplex", "2"], ["subdivide", "--barycentric"]])
def test_cli_refuses_a_ceiling_that_is_not_positive(argv):
    _, doc, _ = run(["gen", "--double-simplex", "2"])
    code, out, err = run(argv + ["--ceiling", "0"], stdin_text=doc)
    assert (code, out, err) == (2, "", "multisect: ceiling must be positive\n")


@pytest.mark.parametrize(
    "value, argv", [("0", ["cover", "--orientation", TWISTED_CHAIN]), ("-1", ["subdivide", "--barycentric"])]
)
def test_cli_refuses_an_environment_ceiling_that_is_not_positive(value, argv, monkeypatch):
    _, doc, _ = run(["gen", "--double-simplex", "2"])
    monkeypatch.setenv("MULTISECT_CEILING", value)
    assert run(argv, stdin_text=doc) == (2, "", "multisect: MULTISECT_CEILING must be positive\n")


def test_cli_bad_stream_is_usage_error():
    code, _, err = run(["info"], stdin_text="dim 3\nfacets nope\n")
    assert code == 2
    assert err.startswith("multisect:")


def test_cli_byte_determinism():
    first = run(["gen", "--cross-sphere", "3"])
    second = run(["gen", "--cross-sphere", "3"])
    assert first == second
    _, doc, _ = first
    a = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    b = run(["partition", "--scheme", "pairs", "--blocks", "0,1/2,3"], stdin_text=doc)
    assert a == b


def test_console_script_wiring():
    import os
    import subprocess

    # the child finds the package in the source tree when it is not installed
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "multisect.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_npc_check_runs_without_networkx(tmp_path):
    import os
    import subprocess

    T = cross_projective(3)
    path = tmp_path / "rp3.txt"
    path.write_text(save_stream(T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3)))))
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from multisect.cli import main\n"
        "code = main(['npc-check', sys.argv[1]])\n"
        "print('exit', code, 'networkx' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "npc ok true" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "exit 0 False"


def test_public_functions_have_docstrings():
    functions = [name for name in multisect.__all__ if inspect.isfunction(getattr(multisect, name))]
    assert functions
    assert [name for name in functions if not inspect.getdoc(getattr(multisect, name))] == []


# --- unwritable output and non-ASCII input ----------------------------------


def _rp3_pairs_stream():
    T = cross_projective(3)
    return save_stream(T, scheme_partition(T, "pairs", blocks=((0, 1), (2, 3))))


@pytest.mark.parametrize("argv", [["export", "--json"], ["report", "--out"]], ids=["export", "report"])
def test_cli_write_failure_exits_2(tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, _, err = run(argv + [str(path)], stdin_text=_rp3_pairs_stream())
    assert code == 2
    assert err == "multisect: cannot write %s: No such file or directory\n" % path
    assert not path.exists()


SUPERSCRIPT = "dim 1\nvertexfacets 3\n0 1\n1 ²\n² 0\n"


def test_cli_non_ascii_file_exits_2(tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text(SUPERSCRIPT, encoding="utf-8")
    code, out, err = run(["info", str(path)])
    assert (code, out, err) == (2, "", "multisect: cannot read %s: not ASCII text\n" % path)


def test_cli_non_ascii_stdin_exits_2():
    assert run(["info"], stdin_text=SUPERSCRIPT) == (2, "", "multisect: cannot read -: not ASCII text\n")
    # bytes the stdin encoding cannot decode
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(b"dim 1\n\xff\n"), encoding="utf-8")
    try:
        assert run(["info"]) == (2, "", "multisect: cannot read -: not ASCII text\n")
    finally:
        sys.stdin = old


def test_load_stream_keeps_non_ascii_digits_as_names():
    # "2²".isdigit() holds, but only ASCII digit tokens are numbers
    T, _ = load_stream("dim 1\nvertexfacets 3\n1² 2²\n2² 3²\n3² 1²\n")
    assert T.vertex_ids == (("1²", "2²"), ("2²", "3²"), ("3²", "1²"))
    assert T.summary().face_counts == (3, 3)
    with pytest.raises(TriangulationError, match="dimension"):
        load_stream("dim ²\n")


@pytest.mark.parametrize(
    "mixed, numbers, names, want",
    [
        ("0 1\n1 a\na 0\n", "0 1\n1 2\n2 0\n", "x y\ny a\na x\n", "faces 3,3\n"),
        (
            "0 1 a\n0 1 b\n0 a b\n1 a b\n",
            "0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
            "a b c\na b d\na c d\nb c d\n",
            "faces 4,6,4\n",
        ),
    ],
    ids=["circle", "2-sphere"],
)
def test_cli_info_on_mixed_number_and_name_ids(mixed, numbers, names, want):
    def info(rows):
        lines = rows.splitlines()
        return run(["info"], stdin_text="dim %d\nvertexfacets %d\n%s" % (len(lines[0].split()) - 1, len(lines), rows))

    code, out, err = info(mixed)
    assert (code, err) == (0, "") and want in out
    # the same complex with all-number or all-name ids prints the same
    assert info(numbers) == info(names) == (0, out, "")


@pytest.mark.parametrize(
    "rows, joined",
    [
        ("x y\ny z\nz x\n", ["x y 0 1", "x y 1 2", "x y 2 0"]),
        ("0 1\n1 a\na 0\n", ["0 1 2 3", "0 1 3 4", "0 1 4 2"]),
    ],
    ids=["names", "mixed"],
)
def test_cli_stellar_and_join_on_named_ids(tmp_path, rows, joined):
    # fresh ids are numbers above every number in use; B's names become further fresh numbers
    circle = tmp_path / "circle.txt"
    circle.write_text("dim 1\nvertexfacets 3\n" + rows)
    for argv, betti, first_rows in (
        (["stellar", "--facet", "0", str(circle)], "betti 1,1\n", None),
        (["join", str(circle), str(circle)], "betti 1,0,0,1\n", joined),
    ):
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        if first_rows:
            assert out.splitlines()[3:6] == first_rows
        code, info, err = run(["info"], stdin_text=out)
        assert (code, err) == (0, "") and betti in info


# --- the documented scripts -------------------------------------------------


# the direct route's verdict, as README states it: `pairs` on cross_projective(2)
# fits the profile, but piece 0 keeps a one-dimensional spine
DIRECT_PAIRS_RP2 = [
    "direct pairs: 4 facets, <t>s",
    "  profile ok        True",
    "  supports          False",
    "  genera            (1, 0)",
    "  piece (0,): raw dim 1, spine dim 1",
    "  piece (1,): raw dim 0, spine dim 0",
    "  ! subset (0,) collapses to dimension 1, above the bound 0",
    "  ! subset (0,) misses the codimension-2 spine bound 0",
]


@pytest.mark.parametrize(
    "argv, header, lines",
    [
        (["scripts/genus_growth.py", "--rounds", "1"], "round  facets  genera", []),
        (["scripts/projective_even_scheme.py", "--dimension", "2"], "direct pairs: 4 facets", DIRECT_PAIRS_RP2),
    ],
    ids=["genus_growth", "projective_even_scheme"],
)
def test_scripts_run(argv, header, lines):
    import subprocess

    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(header)
    masked = [re.sub(r"\d+\.\d+s$", "<t>s", line) for line in proc.stdout.splitlines()]
    assert masked[: len(lines)] == lines

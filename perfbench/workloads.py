"""The three benchmark workloads.

Each workload has four parts:

- `setup(seed)` makes the seeded input stream texts (not timed; it is
  part of `setup_s`);
- `run(inputs, tr, workdir)` is one timed pass: it drives multisect only
  through its public functions and `multisect.cli.main`, starting from
  the stream texts, and returns the objects it produced;
- `probe(out, tr)` runs only in a traced pass, after the timed span:
  it re-times, on the same inputs, the public sub-calls that the pass's
  composite calls are made of;
- `facts(out)` reads the verdicts, the work counts and a digest of the
  output bytes from the returned objects.

Every call into multisect sits in a span named `<module>.<function>`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from functools import partial
from itertools import combinations
from math import factorial
from typing import Callable, Dict, List, Sequence, Tuple

from multisect import cells, cli
from multisect.invariants import h1_onto_check, inclusion_epimorphism
from multisect.io import load_stream, save_stream, save_triangulation
from multisect.partition import scheme_partition, validate
from multisect.subdivide import barycentric, infer_sides, slot_carriers
from multisect.triangulation import FacePoset
from multisect.zoo import cross_projective, cross_sphere, double_simplex

from relabel import relabel_stream

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "fixtures")


def gluing_bytes(text: str) -> int:
    """Bytes of a stream's triangulation section.

    Partition sections are left out: their face keys name canonical
    incarnations, whose digit counts change with the relabelling.
    """
    cut = text.find("\nk ")
    return len(text) if cut < 0 else cut + 1


def canonical_form_work(T) -> int:
    """The step estimate `Triangulation.canonical_form` checks against `max_work`.

    Sum over connected components of size**2 * (n+1)! * (n+1).  It is
    computed here from the input, not read from the program, so it
    measures the input's size and does not follow a redesign of
    `canonical_form`.
    """
    m = T.facet_count
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, row in enumerate(T.gluings):
        for t, _ in row:
            parent[find(f)] = find(t)
    sizes: Dict[int, int] = {}
    for f in range(m):
        r = find(f)
        sizes[r] = sizes.get(r, 0) + 1
    L = T.dimension + 1
    return sum(s * s * factorial(L) * L for s in sizes.values())


def face_poset_nodes(T) -> int:
    """Union-find slots the current `FacePoset` allocates: one per (facet, corner subset).

    Like `canonical_form_work`, a size of the input that does not follow
    a redesign of `FacePoset`.
    """
    return T.facet_count << (T.dimension + 1)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv: Sequence[str], stdin_text: str) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def probe_subsets(tr, T, P) -> int:
    """Probes of `validate`'s sub-calls; returns collapse pairs removed."""
    with tr.span("cells.class_label_multisets", probe=True):
        ms = cells.class_label_multisets(T, P)
    pairs = 0
    for r in range(1, P.k + 2):
        for S in combinations(range(P.k + 1), r):
            with tr.span("cells.extract", probe=True):
                X = cells.extract(T, P, S, ms)
            with tr.span("cells.collapse", probe=True):
                pairs += cells.collapse(X).pairs_removed
    return pairs


def probe_links(tr, X) -> None:
    """Probes of `npc_check`'s sub-calls."""
    with tr.span("cells.vertex_links", probe=True):
        links = cells.vertex_links(X)
    with tr.span("cells.LinkComplex.flag", probe=True):
        for v in sorted(links):
            links[v].flag()


# --- npc-s4 ----------------------------------------------------------------


def npc_pipeline(text: str, tr) -> dict:
    """load -> barycentric -> even-npc partition -> validate -> central complex -> npc_check."""
    with tr.span("io.load_stream"):
        T0, _ = load_stream(text)
    with tr.span("subdivide.barycentric"):
        T, carriers = barycentric(T0)
    with tr.span("subdivide.slot_carriers"):
        slots = slot_carriers(T)
    with tr.span("subdivide.infer_sides"):
        sides = infer_sides(T, slots)
    with tr.span("partition.scheme_partition"):
        P = scheme_partition(T, "even-npc", carriers=carriers, sides=sides)
    with tr.span("partition.validate"):
        rep = validate(T, P)
    central = tuple(range(P.k + 1))
    with tr.span("cells.extract"):
        X = cells.extract(T, P, central)
    with tr.span("cells.npc_check"):
        npc = cells.npc_check(X)
    return {"input": text, "T": T, "P": P, "rep": rep, "X": X, "npc": npc}


class NpcS4:
    """Even-npc library pipeline on the subdivided crosspolytope 4-sphere."""

    name = "npc-s4"

    @staticmethod
    def setup(seed: int) -> dict:
        rng = random.Random(seed)
        return {"input": relabel_stream(save_triangulation(cross_sphere(4)), rng)}

    @staticmethod
    def run(inp: dict, tr, workdir: str) -> dict:
        return npc_pipeline(inp["input"], tr)

    @staticmethod
    def probe(out: dict, tr) -> dict:
        T, P = out["T"], out["P"]
        with tr.span("triangulation.FacePoset", probe=True):
            FacePoset(T)
        pairs = probe_subsets(tr, T, P)
        probe_links(tr, out["X"])
        return {"collapse_pairs": pairs}

    @staticmethod
    def facts(out: dict) -> dict:
        T, rep, X, npc = out["T"], out["rep"], out["X"], out["npc"]
        answers = {
            "facets": T.facet_count,
            "profile_ok": rep.profile_ok,
            "supports_multisection": rep.supports_multisection,
            "npc_ok": npc.ok,
            "links": npc.link_count,
        }
        counts = {
            "face_classes": T.face_poset.n_classes,
            "face_poset_nodes": face_poset_nodes(T),
            "facets_out": T.facet_count,
            "cells": len(X.cells),
            "links": npc.link_count,
            "subsets": len(rep.subsets) + 1,
            "stream_bytes": gluing_bytes(out["input"]),
            "canonical_form_work": 0,
            "generator_words": 0,
        }
        subsets = [(s.subset, s.cell_counts, s.spine_dim, s.connected) for s in rep.subsets]
        return {
            "answers": answers,
            "counts": counts,
            "digest": digest(rep.genera(), rep.diagnostics, subsets, npc.degrees, npc.failures),
        }


# --- pipe-rp3 ---------------------------------------------------------------


def pipe_chain(text: str, times: int, tr, workdir: str) -> dict:
    """CLI subdivide -> partition -> report, then load_stream and the group-level checks."""
    report_path = os.path.join(workdir, "report.json")
    with tr.span("cli.subdivide"):
        sub = run_cli(["subdivide", "--barycentric", "--times", str(times)], text)
    with tr.span("cli.partition"):
        part = run_cli(["partition", "--scheme", "odd-bary"], sub[1])
    with tr.span("cli.report"):
        rep = run_cli(["report", "--out", report_path], part[1])
    with tr.span("io.load_stream"):
        T, P = load_stream(part[1])
    with tr.span("invariants.h1_onto_check"):
        h1 = h1_onto_check(T, P)
    incl = []
    for label in range(P.k + 1):
        with tr.span("invariants.inclusion_epimorphism"):
            incl.append(inclusion_epimorphism(T, P, label))
    with open(report_path, "rb") as fh:
        report_json = fh.read()
    return {
        "streams": (text, sub[1], part[1]),
        "cli": (sub, part, rep),
        "report_json": report_json,
        "T": T,
        "P": P,
        "h1": h1,
        "incl": incl,
    }


class PipeRp3:
    """CLI chain on RP^3 with text between stages, then the group-level checks."""

    name = "pipe-rp3"

    @staticmethod
    def setup(seed: int) -> dict:
        rng = random.Random(seed)
        code, text, err = run_cli(["gen", "--cross-projective", "3"], "")
        if code != 0:
            raise RuntimeError("gen failed: %s" % err)
        return {"input": relabel_stream(text, rng)}

    @staticmethod
    def run(inp: dict, tr, workdir: str) -> dict:
        return pipe_chain(inp["input"], 2, tr, workdir)

    @staticmethod
    def probe(out: dict, tr) -> dict:
        T, P = out["T"], out["P"]
        with tr.span("triangulation.FacePoset", probe=True):
            FacePoset(T)
        with tr.span("partition.validate", probe=True):
            validate(T, P)
        pairs = probe_subsets(tr, T, P)
        X = cells.extract(T, P, tuple(range(P.k + 1)))
        probe_links(tr, X)
        with tr.span("cells.npc_check", probe=True):
            cells.npc_check(X)
        return {"collapse_pairs": pairs}

    @staticmethod
    def facts(out: dict) -> dict:
        sub, part, rep = out["cli"]
        report = json.loads(out["report_json"])
        T = out["T"]
        answers = {
            "exit_codes": [sub[0], part[0], rep[0]],
            "stderr": sub[2] + part[2] + rep[2],
            "report_stdout": rep[1].splitlines(),
            "genera": report["genera"],
            "central_genus": report["central_genus"],
            "central_betti": report["central_betti"],
            "npc_ok": report["npc_ok"],
            "h1_onto_check": out["h1"],
            "inclusions": [[r.label, r.relators_die, r.surjective] for r in out["incl"]],
        }
        inp, s_text, p_text = out["streams"]
        stream_bytes = (
            gluing_bytes(inp)          # subdivide reads
            + 2 * gluing_bytes(s_text)  # subdivide writes, partition reads
            + 3 * gluing_bytes(p_text)  # partition writes, report and load_stream read
        )
        counts = {
            "face_classes": T.face_poset.n_classes,
            "face_poset_nodes": face_poset_nodes(T),
            "facets_out": T.facet_count,
            "cells": sum(report["central"]["counts"]),
            "links": report["central"]["counts"][0],
            "subsets": len(report["spine_dims"]) + 1,
            "stream_bytes": stream_bytes,
            "canonical_form_work": 0,
            "generator_words": sum(len(r.generator_words) for r in out["incl"]),
        }
        return {
            "answers": answers,
            "counts": counts,
            "digest": digest(s_text, p_text, rep[1], out["report_json"]),
        }


# --- iso-zoo ----------------------------------------------------------------


def _stream(build: Callable) -> Callable[[], str]:
    return lambda: save_triangulation(build())


def _twisted_chain() -> str:
    with open(os.path.join(FIXTURES, "twisted_chain.txt"), encoding="ascii") as fh:
        return fh.read()


# (name, stream of the checked copy, stream of the original); the expected
# verdicts are in expected.json.  Both members of a pair have the same size
# and dimension, so every `isomorphic_to` reaches the canonical forms.
ZOO_PAIRS: List[Tuple[str, Callable[[], str], Callable[[], str]]] = [
    (name, _stream(build), _stream(build))
    for name, build in [("double_simplex(%d)" % n, partial(double_simplex, n)) for n in range(2, 6)]
    + [("cross_sphere(%d)" % n, partial(cross_sphere, n)) for n in range(2, 5)]
    + [("cross_projective(%d)" % n, partial(cross_projective, n)) for n in range(2, 5)]
] + [
    ("twisted_chain~double_simplex(3)", _twisted_chain, _stream(partial(double_simplex, 3))),
    (
        "double_cover(cross_projective(3))~cross_sphere(3)",
        _stream(lambda: cross_projective(3).orientation_double_cover()),
        _stream(partial(cross_sphere, 3)),
    ),
]


class IsoZoo:
    """Relabelled zoo members against their originals, plus two non-isomorphic pairs."""

    name = "iso-zoo"

    @staticmethod
    def setup(seed: int) -> dict:
        rng = random.Random(seed)
        pairs = []
        for name, copy, original in ZOO_PAIRS:
            a = relabel_stream(original(), rng)
            b = relabel_stream(copy(), rng)
            pairs.append((name, a, b))
        return {"pairs": pairs}

    @staticmethod
    def run(inp: dict, tr, workdir: str) -> dict:
        results = []
        for name, a_text, b_text in inp["pairs"]:
            with tr.span("io.load_stream"):
                A, _ = load_stream(a_text)
            with tr.span("io.load_stream"):
                B, _ = load_stream(b_text)
            with tr.span("io.save_stream"):
                saved = save_stream(B)
            with tr.span("io.load_stream"):
                back, _ = load_stream(saved)
            with tr.span("triangulation.isomorphic_to"):
                iso = back.isomorphic_to(A)
            results.append((name, a_text, b_text, saved, A, back, iso))
        return {"results": results}

    @staticmethod
    def probe(out: dict, tr) -> dict:
        return {"collapse_pairs": 0}

    @staticmethod
    def facts(out: dict) -> dict:
        answers = {name: iso for name, _, _, _, _, _, iso in out["results"]}
        answers["round_trip_identical"] = all(saved == b for _, _, b, saved, _, _, _ in out["results"])
        work = 0
        stream_bytes = 0
        for _, a, b, saved, A, back, _ in out["results"]:
            work += canonical_form_work(A) + canonical_form_work(back)
            stream_bytes += gluing_bytes(a) + gluing_bytes(b) + 2 * gluing_bytes(saved)
        counts = {
            "face_classes": 0,
            "face_poset_nodes": 0,
            "facets_out": 0,
            "cells": 0,
            "links": 0,
            "subsets": 0,
            "stream_bytes": stream_bytes,
            "canonical_form_work": work,
            "generator_words": 0,
        }
        return {
            "answers": answers,
            "counts": counts,
            "digest": digest([(r[0], r[3], r[6]) for r in out["results"]]),
        }


WORKLOADS = {w.name: w for w in (NpcS4, PipeRp3, IsoZoo)}

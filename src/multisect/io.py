"""Plain-text stream formats and JSON rendering.

A stream is one triangulation section, in either the gluing layout
(`dim`, `facets`, one line per facet slot) or the vertex layout (`dim`,
`vertexfacets`, one line of corner identifiers per facet), optionally
followed by a partition section (`k`, then `v <key> <label>` lines).
`#` starts a comment anywhere; tokens are whitespace-separated.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from .cells import CellComplex
from .partition import VertexPartition
from .triangulation import Triangulation, TriangulationError


def _tokens(text: str) -> Deque[str]:
    out: Deque[str] = deque()
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        out.extend(body.split())
    return out


def _take(toks: Deque[str], what: str) -> str:
    if not toks:
        raise TriangulationError("unexpected end of input, wanted %s" % what)
    return toks.popleft()


def _take_int(toks: Deque[str], what: str) -> int:
    t = _take(toks, what)
    try:
        return int(t)
    except ValueError:
        raise TriangulationError("expected %s, got %r" % (what, t)) from None


def _expect(toks: Deque[str], word: str) -> None:
    t = _take(toks, "keyword %r" % word)
    if t != word:
        raise TriangulationError("expected %r, got %r" % (word, t))


def _vid(tok: str) -> Union[int, str]:
    body = tok[1:] if tok.startswith("-") else tok
    return int(tok) if body.isascii() and body.isdigit() else tok


def save_gluing(T: Triangulation) -> str:
    L = T.dimension + 1
    lines = ["dim %d" % T.dimension, "facets %d" % T.facet_count]
    maps = [" ".join(str(x) for x in pi) for pi in T.maps]
    for k, (t, p) in enumerate(zip(T.targets, T.map_ids)):
        lines.append("%d %d %s" % (k % L, t, maps[p]))
    return "\n".join(lines) + "\n"


def save_vertex(T: Triangulation) -> str:
    if T.vertex_ids is None:
        raise TriangulationError("this triangulation has no vertex identifiers; use the gluing layout")
    lines = ["dim %d" % T.dimension, "vertexfacets %d" % T.facet_count]
    for row in T.vertex_ids:
        toks = [str(v) for v in row]
        for t in toks:
            if "#" in t or any(ch.isspace() for ch in t):
                raise TriangulationError("vertex identifier %r cannot be written" % t)
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def save_triangulation(T: Triangulation, layout: Optional[str] = None) -> str:
    """`layout` is "gluing", "vertex", or None for whichever the data has."""
    if layout is None:
        layout = "vertex" if T.vertex_ids is not None else "gluing"
    if layout == "gluing":
        return save_gluing(T)
    if layout == "vertex":
        return save_vertex(T)
    raise TriangulationError("unknown layout %r" % (layout,))


def _vertex_key(T: Triangulation, v: int) -> str:
    if T.vertex_ids is not None:
        f, corners = T.face_poset.canonical(v)
        return str(T.vertex_ids[f][corners[0]])
    return T.face_poset.key(v)


def save_partition(T: Triangulation, P: VertexPartition) -> str:
    """Render a partition as `k` and `v <vertex key> <label>` lines."""
    nv = T.face_poset.dim_start[1]
    if len(P.labels) != nv:
        raise TriangulationError("partition covers %d vertex classes, triangulation has %d" % (len(P.labels), nv))
    lines = ["k %d" % P.k]
    for v in range(nv):
        lines.append("v %s %d" % (_vertex_key(T, v), P.labels[v]))
    return "\n".join(lines) + "\n"


def save_stream(T: Triangulation, P: Optional[VertexPartition] = None, layout: Optional[str] = None) -> str:
    """Render a triangulation, then the partition when one is given."""
    out = save_triangulation(T, layout)
    if P is not None:
        out += save_partition(T, P)
    return out


def _load_triangulation(toks: Deque[str]) -> Triangulation:
    _expect(toks, "dim")
    n = _take_int(toks, "dimension")
    if n < 1:
        raise TriangulationError("dimension %d out of range" % n)
    kind = _take(toks, "'facets' or 'vertexfacets'")
    m = _take_int(toks, "facet count")
    if m < 1:
        raise TriangulationError("facet count %d out of range" % m)
    L = n + 1
    if kind == "facets":
        rows: List[List[Optional[Tuple[int, Tuple[int, ...]]]]] = []
        for f in range(m):
            row: List[Optional[Tuple[int, Tuple[int, ...]]]] = [None] * L
            for _ in range(L):
                i = _take_int(toks, "face index (facet %d)" % f)
                if not 0 <= i <= n:
                    raise TriangulationError("facet %d: face index %d out of range" % (f, i))
                if row[i] is not None:
                    raise TriangulationError("facet %d: face %d listed twice" % (f, i))
                t = _take_int(toks, "target facet")
                pi = tuple(_take_int(toks, "bijection entry") for _ in range(L))
                row[i] = (t, pi)
            rows.append(row)
        return Triangulation(n, rows)  # type: ignore[arg-type]
    if kind == "vertexfacets":
        facets = []
        for _ in range(m):
            facets.append(tuple(_vid(_take(toks, "vertex identifier")) for _ in range(L)))
        return Triangulation.from_vertex_facets(n, facets)
    raise TriangulationError("expected 'facets' or 'vertexfacets', got %r" % kind)


def _load_partition(toks: Deque[str], T: Triangulation) -> VertexPartition:
    _expect(toks, "k")
    k = _take_int(toks, "class count")
    fp = T.face_poset
    nv = fp.dim_start[1]
    by_id: Dict[str, int] = {}
    if T.vertex_ids is not None:
        for vid, v in zip((vid for row in T.vertex_ids for vid in row), fp.facet_vertices):
            by_id[str(vid)] = v
    labels: List[Optional[int]] = [None] * nv
    while toks and toks[0] == "v":
        toks.popleft()
        key = _take(toks, "vertex key")
        lab = _take_int(toks, "class label")
        if key in by_id:
            cid = by_id[key]
        elif ":" in key:
            cid = fp.class_of_key(key)
            if fp.cls_dim[cid] != 0:
                raise TriangulationError("key %r names a face, not a vertex" % key)
        else:
            raise TriangulationError("unknown vertex %r" % key)
        if labels[cid] is not None and labels[cid] != lab:
            raise TriangulationError("vertex %r assigned two labels" % key)
        labels[cid] = lab
    missing = sum(1 for x in labels if x is None)
    if missing:
        raise TriangulationError("partition misses %d vertex classes" % missing)
    return VertexPartition(k=k, labels=tuple(labels), scheme="explicit")  # type: ignore[arg-type]


def load_stream(text: str) -> Tuple[Triangulation, Optional[VertexPartition]]:
    """Parse a triangulation and its optional partition; reject trailing input."""
    toks = _tokens(text)
    T = _load_triangulation(toks)
    P = None
    if toks and toks[0] == "k":
        P = _load_partition(toks, T)
    if toks:
        raise TriangulationError("trailing input starting at %r" % toks[0])
    return T, P


def cell_complex_json(X: CellComplex) -> dict:
    """The cell complex's summary and Betti numbers as a format-1 JSON object."""
    s = X.summary()
    return {
        "format": 1,
        "ambient_dimension": X.face_poset.L - 1,
        "subset": list(X.subset),
        "dimension": s["dimension"],
        "counts": list(s["counts"]),
        "euler": s["euler"],
        "connected": s["connected"],
        "closed": s["closed"],
        "all_cubes": s["all_cubes"],
        "top_cells": s["top_cells"],
        "orientable": s["orientable"],
        "betti": list(X.betti()),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

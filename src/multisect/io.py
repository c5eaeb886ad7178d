"""Plain-text stream formats and JSON rendering.

A stream is one triangulation section, in either the gluing layout
(`dim`, `facets`, one line per facet slot) or the vertex layout (`dim`,
`vertexfacets`, one line of corner identifiers per facet), optionally
followed by a partition section (`k`, then `v <key> <label>` lines).
`#` starts a comment that runs to the end of its line (any
`str.splitlines` boundary); tokens are whitespace-separated.

A stream is read one chunk of whole lines at a time, about `_CHUNK`
characters each and cut at any line boundary: the chunk loses its
comments and is split into tokens, and tokens a chunk leaves over carry
into the next.  The gluing block is read a run of whole facets at a
time.  Each distinct token of a run is converted to an int once; the
run's face indices, targets and corner-map entries are read as columns,
and those go straight into the triangulation's flat tables, checked by
the row constructor's slot checks.  A read so holds the tables and one
chunk's tokens and columns, whatever the stream's length: on sd²(∂Δ⁴),
a 2.5 MB stream, its traced peak is 1.4 MiB, of which the kept tables
are 1.1 MiB.  Only a run that fails to convert, or whose face indices
are not each facet's 0..n in some order, is scanned token by token, for
the error that reading one token at a time meets first.
"""

from __future__ import annotations

import json
import re
from array import array
from typing import Dict, List, NoReturn, Optional, Tuple, Union

from .cells import CellComplex
from .partition import VertexPartition
from .triangulation import MapIds, Triangulation, TriangulationError, slot_error

_CHUNK = 1 << 14  # characters a chunk holds, up to the end of its last line

# a `str.splitlines` boundary, "\r\n" as one; written as branches, not one
# character class, which would compile through a 64 K-entry table
_LINE_END = re.compile(r"\r\n?|[\n\v\f\x1c-\x1e\x85]|\u2028|\u2029")


class _Tokens:
    """A text's whitespace-separated tokens, comments dropped, split one chunk of lines at a time."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0  # where the next chunk starts
        self._toks: List[str] = []
        self._i = 0  # the next token of `_toks`

    def _split_next(self) -> bool:
        """Append the next chunk's tokens to those not taken; False at the end of the text."""
        text, pos = self._text, self._pos
        if pos >= len(text):
            return False
        cut = _LINE_END.search(text, pos + _CHUNK)
        end = cut.end() if cut else len(text)
        chunk = text[pos:end]
        if "#" in chunk:  # a comment runs to the end of its line
            chunk = "\n".join(line.split("#", 1)[0] for line in chunk.splitlines())
        del self._toks[: self._i]
        self._toks += chunk.split()
        self._i, self._pos = 0, end
        return True

    def peek(self) -> Optional[str]:
        """The next token, or None at the end of the text."""
        while self._i == len(self._toks):
            if not self._split_next():
                return None
        return self._toks[self._i]

    def take(self, what: str) -> str:
        t = self.peek()
        if t is None:
            raise TriangulationError("unexpected end of input, wanted %s" % what)
        self._i += 1
        return t

    def take_int(self, what: str) -> int:
        t = self.take(what)
        try:
            return int(t)
        except ValueError:
            raise TriangulationError("expected %s, got %r" % (what, t)) from None

    def expect(self, word: str) -> None:
        t = self.take("keyword %r" % word)
        if t != word:
            raise TriangulationError("expected %r, got %r" % (word, t))

    def run(self, width: int, count: int) -> List[str]:
        """The next whole groups of `width` tokens, at most `count` and at least one; at the end of the text, the tokens left."""
        while len(self._toks) - self._i < width and self._split_next():
            pass
        toks = self._toks
        del toks[: self._i]
        n = min(len(toks) // width, count) * width or len(toks)
        self._toks, self._i = toks[n:], 0
        del toks[n:]
        return toks


def _vid(tok: str) -> Union[int, str]:
    body = tok[1:] if tok.startswith("-") else tok
    return int(tok) if body.isascii() and body.isdigit() else tok


def save_gluing(T: Triangulation) -> str:
    L = T.dimension + 1
    lines = ["dim %d" % T.dimension, "facets %d" % T.facet_count]
    maps = [" ".join(map(str, pi)) for pi in T.maps]
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


def save_partition(T: Triangulation, P: VertexPartition) -> str:
    """Render a partition as `k` and `v <vertex key> <label>` lines."""
    nv = T.face_poset.dim_start[1]
    if len(P.labels) != nv:
        raise TriangulationError("partition covers %d vertex classes, triangulation has %d" % (len(P.labels), nv))
    lines = ["k %d" % P.k]
    for v in range(nv):
        lines.append("v %s %d" % (T.vertex_key(v), P.labels[v]))
    return "\n".join(lines) + "\n"


def save_stream(T: Triangulation, P: Optional[VertexPartition] = None, layout: Optional[str] = None) -> str:
    """Render a triangulation, then the partition when one is given."""
    out = save_triangulation(T, layout)
    if P is not None:
        out += save_partition(T, P)
    return out


def _load_triangulation(toks: _Tokens) -> Triangulation:
    toks.expect("dim")
    n = toks.take_int("dimension")
    if n < 1:
        raise TriangulationError("dimension %d out of range" % n)
    kind = toks.take("'facets' or 'vertexfacets'")
    m = toks.take_int("facet count")
    if m < 1:
        raise TriangulationError("facet count %d out of range" % m)
    L = n + 1
    if kind == "facets":
        return _load_gluing(toks, n, m)
    if kind == "vertexfacets":
        facets: List[Tuple] = []
        while len(facets) < m:
            run = toks.run(L, m - len(facets))
            if len(run) < L:
                raise TriangulationError("unexpected end of input, wanted vertex identifier")
            facets.extend(zip(*[map(_vid, run)] * L))
        return Triangulation.from_vertex_facets(n, facets)
    raise TriangulationError("expected 'facets' or 'vertexfacets', got %r" % kind)


def _load_gluing(toks: _Tokens, n: int, m: int) -> Triangulation:
    """The gluing lines of m facets, a run of whole facets at a time, into flat tables."""
    L = n + 1
    width = L + 2  # a line: face index, target facet, corner map
    targets, ids = array("i"), array("i")
    map_id = MapIds()
    error = None  # the first bad slot's; the lines after it are still read for bad tokens
    f = 0
    while f < m:
        run = toks.run(L * width, m - f)
        nf = len(run) // (L * width)
        if not nf:
            _raise_in_lines(run, f, L)
        try:
            value = {t: int(t) for t in set(run)}  # a run spells few distinct numbers
        except ValueError:
            _raise_in_lines(run, f, L)
        vals = list(map(value.__getitem__, run))
        faces = vals[::width]
        order = None
        if faces != list(range(L)) * nf:  # each facet's faces 0..n in turn, as every writer emits them
            order = _slot_order(faces, L)
            if order is None:
                _raise_in_lines(run, f, L)
        del run, faces, value
        if error is None:
            cols = [vals[c::width] for c in range(1, width)]
            if order is not None:
                cols = [[col[j] for j in order] for col in cols]
            new = len(map_id.maps)
            run_ids = list(map(map_id.__getitem__, zip(*cols[1:])))
            error = slot_error(L, m, f * L, cols[0], run_ids, map_id.maps, new)
            if error is None:
                targets.extend(cols[0])
                ids.extend(run_ids)
        f += nf
    if error is not None:
        raise TriangulationError(error)
    return Triangulation._from_tables(n, targets, ids, map_id.maps)


def _slot_order(faces: List[int], L: int) -> Optional[List[int]]:
    """Per slot, the line that fills it; None unless each facet lists its faces 0..n once each."""
    order = [0] * len(faces)
    for b in range(0, len(faces), L):
        row = faces[b : b + L]
        if sorted(row) != list(range(L)):
            return None
        for line, i in enumerate(row, b):
            order[b + i] = line
    return order


def _raise_in_lines(toks: List[str], f0: int, L: int) -> NoReturn:
    """Raise the first error of gluing lines from facet f0 on, read one token at a time; past them, the end of input."""
    width = L + 2

    def at(j: int) -> Tuple[int, str]:
        """The facet token j falls in, and what it must be."""
        f, q = f0 + j // (L * width), j % width
        return f, "face index (facet %d)" % f if q == 0 else "target facet" if q == 1 else "bijection entry"

    seen = set()
    for j, t in enumerate(toks):
        f, what = at(j)
        try:
            v = int(t)
        except ValueError:
            raise TriangulationError("expected %s, got %r" % (what, t)) from None
        if j % width == 0:
            if j % (L * width) == 0:
                seen.clear()
            if not 0 <= v < L:
                raise TriangulationError("facet %d: face index %d out of range" % (f, v))
            if v in seen:
                raise TriangulationError("facet %d: face %d listed twice" % (f, v))
            seen.add(v)
    raise TriangulationError("unexpected end of input, wanted %s" % at(len(toks))[1])


def _load_partition(toks: _Tokens, T: Triangulation) -> VertexPartition:
    toks.expect("k")
    k = toks.take_int("class count")
    fp = T.face_poset
    nv = fp.dim_start[1]
    by_id: Dict[str, int] = {}
    if T.vertex_ids is not None:
        for vid, v in zip((vid for row in T.vertex_ids for vid in row), fp.facet_vertices):
            by_id[str(vid)] = v
    labels: List[Optional[int]] = [None] * nv
    while toks.peek() == "v":
        toks.take("v")
        key = toks.take("vertex key")
        lab = toks.take_int("class label")
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
    toks = _Tokens(text)
    T = _load_triangulation(toks)
    P = _load_partition(toks, T) if toks.peek() == "k" else None
    rest = toks.peek()
    if rest is not None:
        raise TriangulationError("trailing input starting at %r" % rest)
    return T, P


def cell_complex_json(X: CellComplex) -> dict:
    """The cell complex's summary and Betti numbers as a format-1 JSON object."""
    s = X.summary()
    return {
        **s,
        "counts": list(s["counts"]),
        "format": 1,
        "ambient_dimension": X.face_poset.L - 1,
        "subset": list(X.subset),
        "betti": list(X.betti()),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

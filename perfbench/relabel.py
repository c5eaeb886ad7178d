"""Seeded relabelling of triangulation streams.

A relabelling renumbers the facets with one permutation and the corners
of every facet with one permutation each.  Gluings, corner maps and the
vertex classes of a partition are carried over consistently, so the
relabelled stream describes the same complex (and the same partition)
under other names.  Every verdict the benchmark checks is invariant
under this, which is why one known answer per workload serves every
seed.

The output is written by `multisect.io.save_stream` in the gluing
layout, so loading and saving a relabelled stream reproduces it byte for
byte.
"""

from __future__ import annotations

import random
from typing import Optional

from multisect.io import load_stream, save_stream
from multisect.partition import VertexPartition
from multisect.triangulation import Triangulation


def relabel_stream(text: str, rng: Optional[random.Random]) -> str:
    """Relabel a stream; `rng=None` keeps every name and only rewrites the layout."""
    T, P = load_stream(text)
    m, L = T.facet_count, T.dimension + 1
    facet = list(range(m))
    corner = [list(range(L)) for _ in range(m)]
    if rng is not None:
        rng.shuffle(facet)
        for row in corner:
            rng.shuffle(row)
    # old (f, i) -> (t, pi) becomes new (facet[f], corner[f][i]) -> (facet[t], pi'),
    # where pi' sends corner[f][c] to corner[t][pi[c]]
    gluings = [[None] * L for _ in range(m)]
    for f, row in enumerate(T.gluings):
        for i, (t, pi) in enumerate(row):
            new_pi = [0] * L
            for c in range(L):
                new_pi[corner[f][c]] = corner[t][pi[c]]
            gluings[facet[f]][corner[f][i]] = (facet[t], tuple(new_pi))
    T2 = Triangulation(T.dimension, gluings)
    P2 = None
    if P is not None:
        fp, fp2 = T.face_poset, T2.face_poset
        labels = [0] * len(P.labels)
        for v, label in enumerate(P.labels):
            f, (c,) = fp.canonical(v)
            labels[fp2.class_of(facet[f], (corner[f][c],))] = label
        P2 = VertexPartition(k=P.k, labels=tuple(labels), scheme=P.scheme)
    return save_stream(T2, P2, layout="gluing")

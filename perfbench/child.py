"""One pass of one workload, in a fresh interpreter started by run.py.

Prints one JSON line: set-up, wall and CPU time of the pass, peak RSS,
the verdicts and work counts, a digest of the output bytes and, for a
traced pass, the spans and the per-layer values read from them.

    python3 perfbench/child.py --workload npc-s4 --seed 1 --trace 0 \
        --spawned-at <time.perf_counter() of the parent> --workdir DIR --pass 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "triangulation.face_poset_s": ("triangulation.FacePoset",),
    "triangulation.canonical_form_s": ("triangulation.isomorphic_to",),
    "subdivide.barycentric_s": ("subdivide.barycentric",),
    "partition.validate_s": ("partition.validate",),
    "cells.class_label_multisets_s": ("cells.class_label_multisets",),
    "cells.extract_s": ("cells.extract",),
    "cells.collapse_s": ("cells.collapse",),
    "cells.vertex_links_s": ("cells.vertex_links",),
    "cells.flag_s": ("cells.LinkComplex.flag",),
    "cells.npc_check_s": ("cells.npc_check",),
    "invariants.h1_onto_check_s": ("invariants.h1_onto_check",),
    "invariants.inclusion_epimorphism_s": ("invariants.inclusion_epimorphism",),
    "io.load_stream_s": ("io.load_stream",),
    "io.save_stream_s": ("io.save_stream",),
    "cli.subdivide_s": ("cli.subdivide",),
    "cli.partition_s": ("cli.partition",),
    "cli.report_s": ("cli.report",),
}

# per-layer count metric -> key of the workload's counts
LAYER_COUNTS = {
    "triangulation.face_poset_nodes": "face_poset_nodes",
    "triangulation.face_classes": "face_classes",
    "triangulation.canonical_form_work": "canonical_form_work",
    "subdivide.facets_out": "facets_out",
    "partition.subsets": "subsets",
    "cells.cells": "cells",
    "cells.links": "links",
    "invariants.generator_words": "generator_words",
    "io.stream_bytes": "stream_bytes",
}


def layer_values(spans, counts, probe) -> dict:
    own = self_times(spans)
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(own[s["id"]] for s in spans if s["name"] in names)
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts[key]
    out["cells.collapse_pairs"] = probe["collapse_pairs"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    args = ap.parse_args()

    W = WORKLOADS[args.workload]
    run_id = "%s:%d:%d" % (args.workload, args.seed, args.pass_index)
    tr = Tracer(bool(args.trace), run_id)
    result = {"pass": args.pass_index, "traced": bool(args.trace), "error": None}
    try:
        inp = W.setup(args.seed)
        t0 = time.perf_counter()
        c0 = time.process_time()
        with tr.span("verdict"):
            out = W.run(inp, tr, args.workdir)
        c1 = time.process_time()
        t1 = time.perf_counter()
        result.update(setup_s=t0 - args.spawned_at, verdict_s=t1 - t0, verdict_cpu_s=c1 - c0)
        probe = None
        if args.trace:
            with tr.span("probe", probe=True):
                probe = W.probe(out, tr)
        result.update(W.facts(out))
        if args.trace:
            result["layers"] = layer_values(tr.spans, result["counts"], probe)
            result["spans"] = tr.spans
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

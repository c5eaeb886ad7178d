"""Self-test of the seeded relabelling: verdicts and counts do not depend on names.

Runs the workloads' pipeline code on small inputs, once on the plain
stream and once per seed on a relabelled one, and requires the same
verdicts and the same work counts:

- the CLI chain of pipe-rp3 with one subdivision, on sd(boundary of the
  3-simplex) and on sd(RP^3);
- the even-npc pipeline of npc-s4 on sd(boundary of the 4-simplex)
  (even-npc needs an even dimension, so it cannot run on the 3-manifolds);
- `validate` on a partitioned stream, whose vertex classes the
  relabelling carries over.

    python3 perfbench/selftest.py        # exits 1 on a mismatch
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from multisect.io import load_stream, save_stream, save_triangulation  # noqa: E402
from multisect.partition import scheme_partition, validate  # noqa: E402
from multisect.subdivide import barycentric  # noqa: E402
from multisect.zoo import cross_projective, double_simplex  # noqa: E402

from relabel import relabel_stream  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import NpcS4, PipeRp3, npc_pipeline, pipe_chain  # noqa: E402

SEEDS = (1, 2, 3)


def verdicts(facts: dict) -> dict:
    """The seed-independent part of a pass's facts (the digest names output bytes)."""
    return {"answers": facts["answers"], "counts": facts["counts"]}


def main() -> int:
    tr = Tracer(False, "selftest")
    failures = []
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        cases = [
            ("pipe sd(boundary 3-simplex)", save_triangulation(double_simplex(3)),
             lambda text: verdicts(PipeRp3.facts(pipe_chain(text, 1, tr, workdir)))),
            ("pipe sd(RP^3)", save_triangulation(cross_projective(3)),
             lambda text: verdicts(PipeRp3.facts(pipe_chain(text, 1, tr, workdir)))),
            ("npc sd(boundary 4-simplex)", save_triangulation(double_simplex(4)),
             lambda text: verdicts(NpcS4.facts(npc_pipeline(text, tr)))),
        ]
        T, carriers = barycentric(double_simplex(3))
        partitioned = save_stream(T, scheme_partition(T, "odd-bary", carriers=carriers))

        def validate_stream(text: str) -> dict:
            rep = validate(*load_stream(text))
            return {"profile_ok": rep.profile_ok, "supports": rep.supports_multisection,
                    "genera": rep.genera(), "subsets": [(s.subset, s.cell_counts) for s in rep.subsets]}

        for name, text, run in cases + [("validate partitioned sd(boundary 3-simplex)", partitioned, validate_stream)]:
            base = run(relabel_stream(text, None))
            for seed in SEEDS:
                relabelled = relabel_stream(text, random.Random(seed))
                if relabelled == relabel_stream(text, None):
                    failures.append((name, seed, "relabelling changed nothing", None))
                got = run(relabelled)
                status = "ok" if got == base else "MISMATCH"
                print("%-45s seed %d %s" % (name, seed, status))
                if got != base:
                    failures.append((name, seed, base, got))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, seed, base, got in failures:
        print("%s seed %d:\n  plain     %r\n  relabelled %r" % (name, seed, base, got))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness in perfbench/.

One traced pass per workload, in its own interpreter as the harness runs
it, must reach the known answers and work counts; the harness's own
self-test must pass.  A library change that breaks a call the harness
makes (a return shape, a signature) fails here rather than in a
benchmark run.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", [name for name in EXPECTED if not name.startswith("_")])
def test_traced_pass_reaches_the_known_answers(workload, tmp_path):
    argv = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", "1", "--trace", "1",
        "--spawned-at", repr(time.perf_counter()), "--workdir", str(tmp_path), "--pass", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["error"] is None
    assert {"answers": result["answers"], "counts": result["counts"]} == EXPECTED[workload]


def test_harness_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

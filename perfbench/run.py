"""multisect benchmark: time-to-verdict, memory and correctness per workload.

    python3 perfbench/run.py --workload npc-s4 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Paths are found from this file, so it runs from any directory.  Every
pass of a workload runs in its own fresh interpreter (`child.py`), one
at a time, with a fixed PYTHONHASHSEED.  Passes repeat until the next
round would end after `--seconds`; at least two untraced passes run, so
the output bytes of one seed can be compared between two processes.
Every untraced pass gives one sample of each end-to-end metric,
set-up time included.

With `--trace 0` the last line of stdout is a JSON object whose metrics
are the end-to-end ones (medians over the passes).  With `--trace 1`
untraced and traced passes alternate; the metrics are the per-layer
ones from the traced passes plus the tracing overhead, and every span is
written to `perfbench/out/<workload>-seed<seed>-trace1.spans.jsonl`.

Every verdict, work count and repeated output is a check.  A wrong
answer, an exception, a changed count or differing bytes for the same
seed counts as failed; the command then exits 1.  The command exits 2
without a result when multisect's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("npc-s4", "pipe-rp3", "iso-zoo")
HARD_LIMIT_S = 165.0   # a run stops starting passes well before 180 s

END_TO_END_UNITS = {"verdict_s": "s", "verdict_cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def child_env() -> dict:
    """Fixed hash seed, one thread, and bytecode caching on (as for an installed package)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "multisect")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


def run_pass(workload: str, seed: int, traced: bool, index: int, budget: float) -> dict:
    workdir = os.path.join(OUT, "work-%d-%d" % (os.getpid(), index))
    os.makedirs(workdir, exist_ok=True)
    spawned = time.perf_counter()
    argv = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--spawned-at", repr(spawned), "--workdir", workdir, "--pass", str(index),
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=budget)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rec = {"error": "pass exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])}
        else:
            rec = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        rec = {"error": "pass exceeded %.0f s and was stopped" % budget}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec.update(pass_index=index, traced=traced, wall_s=time.perf_counter() - spawned)
    return rec


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_pass(rec: dict, expected: dict, checks: Checks) -> None:
    tag = "pass %d" % rec["pass_index"]
    if rec.get("error"):
        lines = rec["error"].strip().splitlines() or ["error"]
        checks.check(False, "%s: %s" % (tag, lines[-1]))
        return
    for section in ("answers", "counts"):
        for key, want in expected[section].items():
            got = rec[section].get(key)
            checks.check(got == want, "%s: %s %s is %r, expected %r" % (tag, section, key, got, want))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """Passes until the next round would end after `seconds`.

    A round is one untraced pass, or with tracing an untraced and a
    traced pass.
    """
    start = time.perf_counter()
    passes: List[dict] = []
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            budget = max(10.0, HARD_LIMIT_S - (time.perf_counter() - start))
            passes.append(run_pass(workload, seed, traced, len(passes), budget))
        rounds += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t_round
        if rounds >= (1 if trace else 2) and elapsed + last > seconds:
            break
        if elapsed + last > HARD_LIMIT_S:
            break

    checks = Checks()
    for rec in passes:
        check_pass(rec, expected, checks)
    good = [r for r in passes if not r.get("error")]
    for rec in good[1:]:
        checks.check(
            rec["digest"] == good[0]["digest"],
            "pass %d: output bytes differ from pass %d for the same seed" % (rec["pass_index"], good[0]["pass_index"]),
        )
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    for rec in traced[1:]:
        checks.check(
            rec["layers"]["cells.collapse_pairs"] == traced[0]["layers"]["cells.collapse_pairs"],
            "pass %d: collapse pairs differ between traced passes" % rec["pass_index"],
        )

    samples: Dict[str, List[float]] = {m: [r[m] for r in plain] for m in END_TO_END_UNITS}
    metrics: Dict[str, dict] = {}
    if not trace:
        for m, unit in END_TO_END_UNITS.items():
            if samples[m]:
                metrics[m] = {"value": statistics.median(samples[m]), "unit": unit}
    elif traced and plain:
        for name in traced[0]["layers"]:
            vals = [r["layers"][name] for r in traced]
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(vals) if unit == "s" else vals[0], "unit": unit}
        for name, m in (("trace.overhead_s", "verdict_s"), ("trace.overhead_cpu_s", "verdict_cpu_s")):
            metrics[name] = {
                "value": statistics.median(r[m] for r in traced) - statistics.median(samples[m]),
                "unit": "s",
            }
    return {
        "workload": workload,
        "passes": passes,
        "samples": samples,
        "metrics": metrics,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "elapsed_s": time.perf_counter() - start,
    }


def top_level_sum(spans: List[dict]) -> float:
    """Sum of the self times of the spans directly under the verdict span, plus its own."""
    own = self_times(spans)
    root = next(s for s in spans if s["name"] == "verdict")
    return own[root["id"]] + sum(own[s["id"]] for s in spans if s["parent"] == root["id"])


def print_summary(res: dict, trace: bool) -> None:
    name = res["workload"]
    n_plain = len(res["samples"]["verdict_s"])
    print("== %s: %d passes (%d untraced), %.1f s" % (name, len(res["passes"]), n_plain, res["elapsed_s"]))
    for m, unit in END_TO_END_UNITS.items():
        vals = res["samples"][m]
        if vals:
            print(
                "  %-14s %12.4f %-4s median of %d (min %.4f, max %.4f)"
                % (m, statistics.median(vals), unit, len(vals), min(vals), max(vals))
            )
    failed = len(res["failures"])
    print("  %-14s %12.4f %-4s %d failed of %d checks" % ("fail_ratio", failed / max(res["attempted"], 1), "1", failed, res["attempted"]))
    for f in res["failures"][:20]:
        print("  FAILED %s" % f)
    if trace:
        for m, v in sorted(res["metrics"].items()):
            value = "%14.6f" % v["value"] if v["unit"] == "s" else "%14d" % v["value"]
            print("  %-38s %s %s" % (m, value, v["unit"]))
        traced = [r for r in res["passes"] if r.get("traced") and not r.get("error")]
        if traced and res["samples"]["verdict_s"]:
            tops = [top_level_sum(r["spans"]) for r in traced]
            print(
                "  top-level self times %.4f s vs untraced verdict_s %.4f s (tracing overhead %.4f s)"
                % (
                    statistics.median(tops),
                    statistics.median(res["samples"]["verdict_s"]),
                    res["metrics"]["trace.overhead_s"]["value"],
                )
            )


def write_records(res: dict, prov: dict, seed: int, trace: bool) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (res["workload"], seed, int(trace)))
    spans = [s for r in res["passes"] for s in r.pop("spans", ())]
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"provenance": prov, "result": res}, fh, indent=1, sort_keys=True)
    if spans:
        with open(stem + ".spans.jsonl", "w", encoding="ascii") as fh:
            for s in spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "multisect", "__init__.py")):
        sys.stderr.write("perfbench: no multisect sources under %s\n" % SRC)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="ascii") as fh:
        expected = json.load(fh)
    # compile bytecode once, so no timed pass pays for it
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, %r); import multisect" % SRC],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    if warm.returncode != 0:
        sys.stderr.write("perfbench: cannot import multisect:\n%s" % warm.stderr)
        return 2

    prov = provenance(args.seed)
    print("multisect benchmark seed=%d seconds=%g trace=%d" % (args.seed, args.seconds, args.trace))
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), expected[name])
        print_summary(res, bool(args.trace))
        write_records(res, prov, args.seed, bool(args.trace))
        results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], m): v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

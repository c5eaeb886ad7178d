"""Spans recorded from the benchmark's own code around calls into multisect.

A span has a name, a start and end on the monotonic clock, the index of
the span that was open when it started (its parent), the run id and a
probe flag.  Spans stay in memory; the caller writes them out when the
run ends.  With tracing off, `span` returns a context manager that
records nothing, so traced and untraced passes run the same code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[dict] = []
        self._open: List[int] = []

    def span(self, name: str, probe: bool = False):
        if not self.enabled:
            return nullcontext()
        return self._record(name, probe)

    @contextmanager
    def _record(self, name: str, probe: bool) -> Iterator[None]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "probe": probe,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    children: Dict[Optional[int], List[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            if c["end"] > lo:
                covered += c["end"] - lo
                reach = c["end"]
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out

"""In-memory spans recorded by the benchmark around its calls into shelfgaze.

A span is (id, parent id, name, start ns, end ns, calls). Its name is
``<layer>.<function>`` for a call into a package layer and ``harness.<step>``
for the benchmark's own grouping; ``calls`` counts the public calls the span
wraps. Spans stay in a list until the run ends and are then written out as
JSON lines, one per span, after one header line.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns

_OFF = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False

    def span(self, name: str, calls: int = 1):
        return _OFF


class Tracer:
    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        record = [len(self.spans), self._open[-1] if self._open else -1, name, perf_counter_ns(), 0, calls]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = perf_counter_ns()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the parts their child spans cover."""
        child = [0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, name, start, end, _ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child[sid]) / 1e9
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for sid, parent, name, start, end, calls in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "calls": calls},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

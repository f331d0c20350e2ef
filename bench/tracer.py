"""In-memory spans for the traced pass.

A span records its name, start, end, parent span and a dict of counts
whose keys are per-layer metric names. Nothing is written until the run
ends, so tracing adds one clock read and one dict per call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **labels):
        """Time the block as a child of the innermost open span; yield its counts dict."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "labels": labels,
            "counts": {},
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def label(self, key: str, value) -> None:
        """Label the innermost open span."""
        self.spans[self._open[-1]]["labels"][key] = value

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, record: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == record["id"]]

    def seconds(self, name: str) -> float:
        return sum(self.duration(s) for s in self.named(name))

    def count(self, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans)

    def write(self, path: Path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {
                "trace": self.trace_id,
                "id": s["id"],
                "parent": s["parent"],
                "name": s["name"],
                "labels": s["labels"],
                "counts": s["counts"],
                "start_s": s["start"] - origin,
                "duration_s": self.duration(s),
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")

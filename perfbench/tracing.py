"""Spans recorded by the benchmark around its calls into the library.

A span is ``(id, name, start, end, parent, attrs)``; spans stay in
memory and are written as one JSON file when the run ends.  Untraced
runs use :class:`NullTracer`, whose spans record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": None,
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def descendants(self, root_id: int) -> List[Dict[str, object]]:
        """Spans below ``root_id`` (spans are stored parent-first)."""
        inside = {root_id}
        found = []
        for record in self.spans[root_id + 1:]:
            if record["parent"] in inside:
                inside.add(record["id"])
                found.append(record)
        return found

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


class NullTracer:
    enabled = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        yield {"attrs": {}}

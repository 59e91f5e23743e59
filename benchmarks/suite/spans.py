"""The suite's own spans: name, start, end, parent.

Recorded around the calls the harness makes into ``repro`` (set-up,
warm-up, each repeat, and the phases a workload marks inside its unit),
kept in memory and written out with the layer table when a traced run
ends. Spans inside ``repro.*`` are a later issue.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Spans:
    """An in-memory span list; times are seconds since construction."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append(
            {
                "name": name,
                "start": time.perf_counter() - self._origin,
                "end": None,
                "parent": parent,
            }
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index]["end"] = time.perf_counter() - self._origin

    def seconds(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
        )

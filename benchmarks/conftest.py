"""Shared helpers for the paper's experiment benches.

Every ``test_*.py`` file in this directory regenerates one figure or claim
of the paper (see DESIGN.md's per-experiment index). The paper has no
quantitative tables, so each bench prints the table the paper *would*
have shown and asserts the qualitative shape of the result (who wins, by
roughly what factor, where crossovers fall). The benches are plain pytest
tests: the simulated numbers are exact per seed, and the only host-time
figure (FIG2 / FIG3's in-process management call) is a bound checked on
the fastest of many calls.

Run with::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/suite -s

(``benchmarks/suite/`` is the repo benchmark, with its own self-tests.)
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a paper-style results table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join("-" * w for w in widths)
    print("\n%s" % title)
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print(line)
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def min_host_seconds(fn: Callable[[], object]) -> float:
    """The fastest of 200 timed calls of ``fn``, in host seconds."""
    fastest = float("inf")
    for _ in range(200):
        started = time.perf_counter()
        fn()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest

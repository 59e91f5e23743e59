"""Build an event loop by name, for the benchmark suite's loop micro.

Production code builds :class:`~repro.sim.eventloop.EventLoop` directly;
the name switch lives on only because ``benchmarks/suite/micro.py``
times the transient path of both loops through it. It goes with
:mod:`repro.sim.lanes` once the suite stops measuring the laned loop.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop

__all__ = ["make_loop"]


def make_loop(clock: Optional[Clock], scheduler: str) -> EventLoop:
    """Build the ``"global"`` or the ``"laned"`` event loop."""
    if scheduler == "global":
        return EventLoop(clock)
    if scheduler == "laned":
        return LanedEventLoop(clock)
    raise ValueError("unknown scheduler %r (expected global or laned)" % scheduler)

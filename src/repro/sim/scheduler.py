"""Scheduler selection: one switch between global and laned event loops.

Scenario factories throughout the repo (chaos campaigns, conformance
CLI, rollout matrix, macro benchmark) build their own
:class:`~repro.sim.eventloop.EventLoop` deep inside ``seed -> env``
closures. Threading a ``scheduler=`` argument through every one of them
would churn a dozen signatures, so this module offers both spellings:

* an explicit factory — ``make_loop(clock, scheduler="laned")`` — for
  call sites that already take configuration (``Cluster``,
  ``MacroScenario``);
* an ambient default — :func:`set_default_scheduler` or the
  :func:`use_scheduler` context manager — honoured by ``make_loop``
  when no explicit choice is passed, which is how the CLIs and the
  parity harness flip whole scenarios without touching their factories.

Both schedulers are observably identical by contract (``tests/parity``);
the choice is purely a performance/structure knob, which is why an
ambient default is acceptable where behavioural config would not be.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop

__all__ = [
    "SCHEDULERS",
    "default_scheduler",
    "make_loop",
    "set_default_scheduler",
    "use_scheduler",
]

#: Recognised scheduler names, in CLI/display order.
SCHEDULERS = ("global", "laned")

# Process-wide default, guarded by the parity contract: both values
# produce byte-identical runs.
_DEFAULT = "global"


def default_scheduler() -> str:
    """The scheduler ``make_loop`` uses when none is passed."""
    return _DEFAULT


def set_default_scheduler(name: str) -> str:
    """Set the ambient default scheduler; returns the previous one."""
    global _DEFAULT
    if name not in SCHEDULERS:
        raise ValueError(
            "unknown scheduler %r (expected one of %s)" % (name, ", ".join(SCHEDULERS))
        )
    previous = _DEFAULT
    _DEFAULT = name
    return previous


@contextmanager
def use_scheduler(name: str) -> Iterator[None]:
    """Scope the ambient default scheduler for a ``with`` block."""
    previous = set_default_scheduler(name)
    try:
        yield
    finally:
        set_default_scheduler(previous)


def make_loop(
    clock: Optional[Clock] = None, scheduler: Optional[str] = None
) -> EventLoop:
    """Build an event loop for ``scheduler`` (default: the ambient one)."""
    name = scheduler if scheduler is not None else _DEFAULT
    if name == "global":
        return EventLoop(clock)
    if name == "laned":
        return LanedEventLoop(clock)
    raise ValueError(
        "unknown scheduler %r (expected one of %s)" % (name, ", ".join(SCHEDULERS))
    )

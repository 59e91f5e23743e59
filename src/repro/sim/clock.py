"""Simulated time source.

All components take a :class:`Clock` rather than calling ``time.time`` so
that an entire multi-node experiment advances on virtual time and is
repeatable. The clock only moves forward; the event loop owns advancing it.
"""

from __future__ import annotations

# repro: allow-file[DET001] -- this module IS the sanctioned time
# authority; everything else must take a Clock instead of host time.


class Clock:
    """A monotonically non-decreasing virtual clock, in seconds.

    The clock starts at ``0.0``. Only the owning event loop should call
    :meth:`advance_to`; everything else treats the clock as read-only.

    ``now`` is a plain attribute, not a property, because it is read
    several times per simulated request. It has three writers:
    ``__init__``, :meth:`advance_to` and ``EventLoop.run_until``, which
    has made ``advance_to``'s comparison itself when it writes.
    ``tests/sim/test_clock.py::test_now_has_three_writers`` walks
    ``src/repro`` to keep it at those.
    """

    __slots__ = {
        "now": "Current virtual time in seconds since the simulation epoch."
    }

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError("clock cannot start before t=0: %r" % start)
        self.now = float(start)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`ValueError` on an attempt to move backwards, which
        would indicate a scheduling bug rather than a recoverable state.
        """
        if when < self.now:
            raise ValueError(
                "clock moved backwards: now=%r requested=%r" % (self.now, when)
            )
        self.now = float(when)

    def __repr__(self) -> str:
        return "Clock(now=%.6f)" % self.now

"""Deterministic open-loop arrival generation with diurnal rate curves.

The macro benchmark drives traffic the way a real service sees it: an
*open-loop* arrival process whose rate follows a compressed "day" —
quiet overnight trough, ramp through the morning, midday peak, evening
tail. Arrivals do not wait for responses (open loop), so saturation
shows up as queueing and drops rather than as a silently slowed driver.

Arrivals are a non-homogeneous Poisson process sampled by *thinning*:
candidate arrivals are drawn from a homogeneous process at the peak
rate, and each candidate is accepted with probability ``rate(t)/peak``.
All randomness comes from an injected :mod:`repro.sim.rng` stream, so
two same-seed runs produce byte-identical arrival timelines.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.eventloop import EventLoop

#: ``2.0 * math.pi * x`` is ``(2.0 * math.pi) * x``, so this is exact.
_TWO_PI = 2.0 * math.pi


class DiurnalProfile:
    """Rate curve ``rate(t)``: a raised-cosine day shape in requests/s.

    ``t = 0`` is midnight (the trough at ``base_rps``); the peak of
    ``peak_rps`` lands mid-"day". ``day_seconds`` compresses the 24h
    cycle into simulated time; the curve repeats for multi-day runs.
    The time-average rate is ``(base_rps + peak_rps) / 2``.
    """

    __slots__ = ("base_rps", "peak_rps", "day_seconds")

    def __init__(
        self, base_rps: float, peak_rps: float, day_seconds: float
    ) -> None:
        if base_rps < 0 or peak_rps < base_rps:
            raise ValueError(
                "need 0 <= base_rps <= peak_rps: %r, %r" % (base_rps, peak_rps)
            )
        if day_seconds <= 0:
            raise ValueError("day_seconds must be > 0: %r" % day_seconds)
        self.base_rps = float(base_rps)
        self.peak_rps = float(peak_rps)
        self.day_seconds = float(day_seconds)

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at scenario time ``t`` (seconds)."""
        x = (t / self.day_seconds) % 1.0
        shape = 0.5 - 0.5 * math.cos(2.0 * math.pi * x)
        return self.base_rps + (self.peak_rps - self.base_rps) * shape

    def mean_rate(self) -> float:
        return (self.base_rps + self.peak_rps) / 2.0

    def __repr__(self) -> str:
        return "DiurnalProfile(base=%.1f, peak=%.1f, day=%.1fs)" % (
            self.base_rps,
            self.peak_rps,
            self.day_seconds,
        )


class OpenLoopArrivals:
    """Schedules ``on_arrival(index)`` calls on the event loop by thinning.

    One loop event per accepted arrival: each callback draws candidates
    until the next accepted one, so :attr:`candidates` and
    :attr:`finished` advance when a candidate is drawn, ahead of the
    virtual time it would have fired at.

    Parameters
    ----------
    loop:
        The simulation event loop.
    rng:
        A seeded stream; only its ``random()`` is drawn (e.g.
        ``RngStreams(seed).stream("arrivals")``).
    profile:
        The :class:`DiurnalProfile` rate curve.
    on_arrival:
        Called with the 1-based arrival index at each accepted arrival;
        the current virtual time is ``loop.clock.now``.
    duration:
        Scenario length in simulated seconds; no arrivals occur after
        ``start_time + duration``.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng,
        profile: DiurnalProfile,
        on_arrival: Callable[[int], None],
        duration: float,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be > 0: %r" % duration)
        self._loop = loop
        self._rng = rng
        self._profile = profile
        self._on_arrival = on_arrival
        self.duration = float(duration)
        self.arrivals = 0
        self.candidates = 0
        self.finished = False
        self._started_at: Optional[float] = None
        #: What an arrival reads, bound once by :meth:`start` (methods too).
        self._thinning: tuple = ()

    def start(self) -> None:
        """Begin generating; idempotent-guarded against double starts."""
        if self._started_at is not None:
            raise RuntimeError("arrival process already started")
        now = self._loop.clock.now
        self._started_at = now
        if self._profile.peak_rps <= 0.0:
            # A zero-peak day has no arrivals (and no rate to draw gaps at).
            self.finished = True
            return
        base, peak = self._profile.base_rps, self._profile.peak_rps
        day, deadline = self._profile.day_seconds, now + self.duration
        loop = self._loop
        self._thinning = (
            self._rng.random, loop.call_transient_at, self._arrive, loop.clock,
            base, peak, day, now, deadline,
        )
        self._arrive(True)

    def _arrive(self, _first: bool = False) -> None:
        """Deliver an accepted arrival (none when :meth:`start` calls it
        with ``_first``), then draw candidates until one is accepted and
        schedule it; rejected candidates never reach the loop. The gap is
        :meth:`random.Random.expovariate`'s body and the accept test
        :meth:`DiurnalProfile.rate`'s, in line: the same draws and float
        operations in the same order."""
        random, schedule, arrive, clock, base, peak, day, started_at, deadline = (
            self._thinning
        )
        if _first:
            when = started_at
        else:
            self.arrivals += 1
            self._on_arrival(self.arrivals)
            when = clock.now
        log, cos = math.log, math.cos
        while True:
            when += -log(1.0 - random()) / peak
            if when > deadline:
                self.finished = True
                return
            self.candidates += 1
            shape = 0.5 - 0.5 * cos(_TWO_PI * (((when - started_at) / day) % 1.0))
            if random() * peak < base + (peak - base) * shape:
                schedule(when, arrive)
                return

    def __repr__(self) -> str:
        return "OpenLoopArrivals(%d arrivals / %d candidates, %s)" % (
            self.arrivals,
            self.candidates,
            "finished" if self.finished else "running",
        )

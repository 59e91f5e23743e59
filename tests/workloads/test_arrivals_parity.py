"""One loop event per accepted arrival, against the generator it replaced.

``ReferenceArrivals`` below is ``OpenLoopArrivals`` as it stood at commit
38f947d: every thinning candidate is a loop event, and the accept draw
happens when that event fires. It is kept here as the oracle. The
generator under test draws candidates inside one callback until one is
accepted, so rejected candidates never reach the loop. On the same seed
the two must give the same ``(index, time)`` arrivals, the same counters
and the same final RNG state; with a completion scheduled a service time
after every arrival, the same interleaved firing log; and the loop fires
exactly the rejected candidates fewer.
"""

from __future__ import annotations

from math import log
from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals


# ----------------------------------------------------------------------
# The oracle: the parent commit's generator, scheduling path verbatim.
# ----------------------------------------------------------------------
class ReferenceArrivals:
    def __init__(self, loop, rng, profile, on_arrival, duration) -> None:
        self._loop = loop
        self._rng = rng
        self._profile = profile
        self._on_arrival = on_arrival
        self.duration = float(duration)
        self.arrivals = 0
        self.candidates = 0
        self.finished = False
        self._started_at: Optional[float] = None
        self._deadline = 0.0

    def start(self) -> None:
        self._started_at = self._loop.clock.now
        self._deadline = self._started_at + self.duration
        self._schedule_next(self._loop.clock.now)

    def _schedule_next(self, from_when: float) -> None:
        gap = self._rng.expovariate(self._profile.peak_rps)
        next_at = from_when + gap
        if next_at > self._deadline:
            self.finished = True
            return
        self._loop.call_transient_at(next_at, self._candidate)

    def _candidate(self) -> None:
        now = self._loop.clock.now
        self.candidates += 1
        rate = self._profile.rate(now - self._started_at)
        if self._rng.random() * self._profile.peak_rps < rate:
            self.arrivals += 1
            self._on_arrival(self.arrivals)
        self._schedule_next(now)


# ----------------------------------------------------------------------
# One run: arrivals, a completion after each, everything logged.
# ----------------------------------------------------------------------
class Run:
    def __init__(
        self,
        generator: Callable,
        rng,
        profile: DiurnalProfile,
        duration: float,
        start_at: float,
        service_time: float,
        stop_early_at: Optional[float] = None,
    ) -> None:
        loop = EventLoop()
        self.arrived: List[Tuple[int, float]] = []
        self.firing: List[Tuple[float, str]] = []

        def on_arrival(index: int) -> None:
            now = loop.clock.now
            self.arrived.append((index, now))
            self.firing.append((now, "arrival"))
            loop.call_transient_at(now + service_time, on_complete)

        def on_complete() -> None:
            self.firing.append((loop.clock.now, "complete"))

        arrivals = generator(loop, rng, profile, on_arrival, duration)

        def begin() -> None:
            self.firing.append((loop.clock.now, "start"))
            arrivals.start()

        if start_at:
            # Started by an event, so the start time is what the loop
            # wrote to the clock for that event's ``when``: a float, also
            # when ``start_at`` is an int.
            loop.call_at(start_at, begin)
        else:
            begin()
        if stop_early_at is None:
            loop.run_until(start_at + duration)
            loop.drain()
        else:
            loop.run_until(stop_early_at)
        self.arrivals = arrivals.arrivals
        self.candidates = arrivals.candidates
        self.finished = arrivals.finished
        self.rng_state = rng.getstate()
        # Not counting the event that called start().
        self.fired = loop.fired - (1 if start_at else 0)
        self.now = loop.clock.now


def pair(seed: int, *args, **kwargs) -> Tuple[Run, Run]:
    reference = Run(ReferenceArrivals, RngStreams(seed).stream("a"), *args, **kwargs)
    changed = Run(OpenLoopArrivals, RngStreams(seed).stream("a"), *args, **kwargs)
    return reference, changed


def assert_same_day(reference: Run, changed: Run) -> None:
    assert changed.arrived == reference.arrived
    assert changed.firing == reference.firing
    assert all(type(when) is float for when, _ in changed.firing)
    assert changed.arrivals == reference.arrivals == len(reference.arrived)
    assert changed.candidates == reference.candidates
    assert changed.finished and reference.finished
    assert changed.rng_state == reference.rng_state
    rejected = reference.candidates - reference.arrivals
    assert changed.fired == reference.fired - rejected
    assert changed.fired == 2 * changed.arrivals
    assert changed.now == reference.now


#: (base, peak) as a share of a drawn peak: flat, zero base, steep, the
#: macro day's 1:4.
SHAPES = {"flat": 1.0, "zero-base": 0.0, "steep": 0.02, "day": 0.25}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    peak=st.floats(min_value=1.0, max_value=200.0),
    shape=st.sampled_from(sorted(SHAPES)),
    day_seconds=st.floats(min_value=0.5, max_value=8.0),
    days=st.sampled_from([0.3, 1.0, 2.5]),
    start_at=st.sampled_from([0.0, 0.75, 3]),
    service_time=st.floats(min_value=0.001, max_value=0.5),
)
def test_same_arrivals_as_the_reference_generator(
    seed, peak, shape, day_seconds, days, start_at, service_time
):
    profile = DiurnalProfile(peak * SHAPES[shape], peak, day_seconds)
    reference, changed = pair(
        seed, profile, day_seconds * days, start_at, service_time
    )
    assert_same_day(reference, changed)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    cut=st.floats(min_value=0.05, max_value=0.95),
)
def test_a_run_stopped_early_has_seen_the_same_arrivals(seed, cut):
    """Mid-day the counters run ahead (candidates are counted when
    drawn), but what has reached ``on_arrival`` by any instant has not
    moved."""
    profile = DiurnalProfile(10.0, 120.0, 4.0)
    reference, changed = pair(
        seed, profile, 4.0, 0.0, 0.01, stop_early_at=4.0 * cut
    )
    assert changed.arrived == reference.arrived
    assert changed.firing == reference.firing
    assert changed.arrivals == reference.arrivals
    assert changed.candidates >= reference.candidates
    # Exactly one arrival is scheduled ahead, or the day is drawn out.
    assert changed.finished or changed.candidates > reference.candidates


# ----------------------------------------------------------------------
# The boundary of the accept test, which no seeded stream reaches.
# ----------------------------------------------------------------------
class ScriptedRng:
    """``random()`` reads a list of draws; ``expovariate`` is CPython's
    body on that list, so the oracle's gaps and the in-line gaps of the
    generator under test come off the same draws."""

    def __init__(self, draws: List[float]) -> None:
        self._draws = list(draws)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self._draws.pop(0)

    def expovariate(self, lambd: float) -> float:
        return -log(1.0 - self.random()) / lambd

    def getstate(self):
        return (tuple(self._draws), self.calls)


def test_a_draw_that_lands_on_the_rate_is_rejected():
    """``random() * peak < rate`` is strict: on a zero-base curve a
    candidate exactly at a day boundary (rate 0.0) is rejected even by
    a draw of 0.0."""
    g = -log(1.0 - 0.5) / 8.0
    profile = DiurnalProfile(0.0, 8.0, g + g)
    # Gap and accept draws alternate. Candidates at g (the peak of day
    # one: accepted), 2g (the boundary, draw 0.0: rejected), 3g
    # (accepted), then a gap past the end.
    draws = [0.5, 0.5, 0.5, 0.0, 0.5, 0.5, 0.999999]
    reference = Run(ReferenceArrivals, ScriptedRng(draws), profile, 4 * g, 0.0, g / 4)
    changed = Run(OpenLoopArrivals, ScriptedRng(draws), profile, 4 * g, 0.0, g / 4)
    assert reference.arrived == [(1, g), (2, g + g + g)]
    assert reference.candidates == 3
    assert reference.rng_state == ((), 7)
    assert_same_day(reference, changed)

"""Open-loop diurnal arrivals: deterministic, shaped, and bounded."""

import math

import pytest

from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals


def collect(seed, base=50.0, peak=200.0, day=20.0, duration=20.0):
    loop = EventLoop()
    profile = DiurnalProfile(base, peak, day)
    times = []
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(seed).stream("arrivals"),
        profile,
        lambda index: times.append((index, loop.clock.now)),
        duration=duration,
    )
    arrivals.start()
    loop.run_for(duration + 1.0)
    return arrivals, times


def test_profile_shape():
    profile = DiurnalProfile(100.0, 500.0, 86400.0)
    assert profile.rate(0.0) == pytest.approx(100.0)  # midnight trough
    assert profile.rate(43200.0) == pytest.approx(500.0)  # midday peak
    assert profile.rate(86400.0) == pytest.approx(100.0)  # wraps
    assert profile.mean_rate() == pytest.approx(300.0)
    # Monotone ramp through the morning.
    morning = [profile.rate(t) for t in range(0, 43200, 3600)]
    assert morning == sorted(morning)


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(200.0, 100.0, 60.0)  # peak < base
    with pytest.raises(ValueError):
        DiurnalProfile(10.0, 20.0, 0.0)


def test_same_seed_identical_timeline():
    _, times_a = collect(seed=7)
    _, times_b = collect(seed=7)
    assert times_a == times_b
    _, times_c = collect(seed=8)
    assert times_a != times_c


def test_arrival_count_tracks_mean_rate():
    arrivals, times = collect(seed=3, base=100.0, peak=300.0, duration=20.0)
    expected = 200.0 * 20.0  # mean rate x duration
    assert len(times) == arrivals.arrivals
    assert abs(len(times) - expected) < expected * 0.10
    # Thinning acceptance ratio ~ mean/peak.
    assert arrivals.candidates > arrivals.arrivals


def test_density_follows_the_curve():
    _, times = collect(seed=11, base=20.0, peak=400.0, day=40.0, duration=40.0)
    trough = sum(1 for _, t in times if t < 8.0 or t > 32.0)
    peak = sum(1 for _, t in times if 16.0 <= t <= 24.0)
    assert peak > trough * 2


def test_no_arrivals_after_deadline():
    arrivals, times = collect(seed=5, duration=10.0)
    assert arrivals.finished
    assert all(t <= 10.0 + 1e-9 for _, t in times)
    assert [i for i, _ in times] == list(range(1, len(times) + 1))


def test_double_start_rejected():
    loop = EventLoop()
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(1).stream("arrivals"),
        DiurnalProfile(10.0, 20.0, 10.0),
        lambda index: None,
        duration=5.0,
    )
    arrivals.start()
    with pytest.raises(RuntimeError):
        arrivals.start()


def test_zero_peak_day_finishes_at_once():
    """``DiurnalProfile(0, 0, d)`` is a valid curve; starting on it used
    to die in ``expovariate(0.0)``."""

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError("rng.%s used on a zero-peak day" % name)

    loop = EventLoop()
    arrivals = OpenLoopArrivals(
        loop,
        NoDraws(),
        DiurnalProfile(0.0, 0.0, 10.0),
        lambda index: pytest.fail("arrival on a zero-peak day"),
        duration=5.0,
    )
    arrivals.start()
    assert arrivals.finished
    assert (arrivals.arrivals, arrivals.candidates) == (0, 0)
    assert loop.pending == 0 and loop.scheduled == 0
    with pytest.raises(RuntimeError):
        arrivals.start()


def test_zero_base_day_started_late():
    """Beside it: a zero trough is an ordinary day, and the curve is
    read from the start time, not from the loop's epoch."""
    loop = EventLoop()
    loop.run_until(7.5)
    times = []
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(4).stream("arrivals"),
        DiurnalProfile(0.0, 300.0, 10.0),
        lambda index: times.append(loop.clock.now),
        duration=10.0,
    )
    arrivals.start()
    loop.run_for(11.0)
    assert arrivals.finished
    assert len(times) == arrivals.arrivals
    assert abs(len(times) - 1500) < 150  # mean rate 150/s over 10 s
    assert 7.5 < times[0] and times[-1] <= 17.5
    # Midday sits at 12.5 on the loop's clock, the troughs at 7.5 / 17.5.
    midday = sum(1 for t in times if 11.5 <= t <= 13.5)
    edges = sum(1 for t in times if t < 8.5 or t > 16.5)
    assert midday > 10 * edges


def test_mean_rate_matches_integral():
    profile = DiurnalProfile(60.0, 180.0, 100.0)
    steps = 10000
    integral = sum(
        profile.rate(i * 100.0 / steps) for i in range(steps)
    ) / steps
    assert integral == pytest.approx(profile.mean_rate(), rel=1e-3)
    assert math.isclose(profile.mean_rate(), 120.0)

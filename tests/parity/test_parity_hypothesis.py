"""Property-based lane parity: random schedules, topologies and faults.

Two generators, two levels:

* raw event loops — random scripts of timed events that spawn
  same-instant and future children across lanes and cancel earlier
  events mid-run, the adversarial surface of the k-way merge; and
  scripts mixing every scheduling API (cancellable, transient with and
  without ``arg``, ``call_soon``) with ``step``, ``peek_next_time``,
  ``pending`` and partial ``run_until`` calls, where the laned loop's
  event objects are the oracle for the global loop's tuple entries;
* whole clusters — random node counts, link latencies, jitter, loss
  rates and fault scripts replayed through the real injector, compared
  by fault-trace digest.

On divergence Hypothesis shrinks to a minimal seed + script — the
reproduction recipe goes straight into a regression test.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DependableEnvironment
from repro.faults.campaign import replay_schedule
from repro.faults.schedule import FaultSchedule
from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop

# One script op: (when in centiseconds, lane 0-2, children spawned on
# fire, cancel code — 0 means none, k>0 cancels handle (k-1) % len).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=20,
)


def run_script(loop, ops):
    """Deterministic interpreter for a generated schedule script."""
    lanes = [0, loop.register_lane("n1"), loop.register_lane("n2")]
    log = []
    handles = []

    def schedule(tag, when, lane, children, cancel):
        def fire():
            log.append((tag, round(loop.clock.now, 9)))
            if cancel and handles:
                handles[(cancel - 1) % len(handles)].cancel()
            for child in range(children):
                # child 0 is same-instant (merge-boundary territory),
                # later children land in other lanes in the future.
                schedule(
                    "%s.%d" % (tag, child),
                    loop.clock.now + 0.01 * child,
                    lanes[(lane + child + 1) % 3],
                    0,
                    0,
                )

        handles.append(loop.call_at(when, fire, lane=lane, label=tag))

    for index, (when_cs, lane_idx, children, cancel) in enumerate(ops):
        schedule(str(index), when_cs / 100.0, lanes[lane_idx], children, cancel)
    loop.run_until(2.0)
    return log, loop.fired, loop.scheduled, loop.pending, loop.clock.now


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_random_schedules_fire_identically(ops):
    """Any script of events, children and cancellations fires in the
    same order at the same instants on both schedulers."""
    assert run_script(EventLoop(Clock()), ops) == run_script(
        LanedEventLoop(Clock()), ops
    )


# One mixed-script op. ``at`` / ``soon`` return cancellable handles and
# ``cancel`` cancels one; ``transient`` (with or without ``arg``) returns
# none; ``step``, ``peek`` and ``run`` (a partial deadline) drive and
# read the loop mid-script. Times are few, so entries share instants.
_WHEN = st.integers(min_value=0, max_value=12)  # centiseconds from now
_LANE = st.integers(min_value=0, max_value=2)
_CHILDREN = st.integers(min_value=0, max_value=4)
MIXED_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _WHEN, _LANE, _CHILDREN, st.integers(0, 4)),
        st.tuples(st.just("transient"), _WHEN, _LANE, _CHILDREN, st.booleans()),
        st.tuples(st.just("soon"), _LANE, _CHILDREN),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=150)),
    ),
    min_size=1,
    max_size=30,
)


def run_mixed_script(loop, ops):
    """Interpreter for scripts mixing every scheduling API with reads."""
    lanes = [0, loop.register_lane("n1"), loop.register_lane("n2")]
    log = []
    handles = []
    specs = {}  # tag -> (lane, children, cancel)

    def fire(tag):
        now = loop.clock.now
        log.append((tag, round(now, 9), loop.pending))
        lane, children, cancel = specs[tag]
        if cancel and handles:
            handles[(cancel - 1) % len(handles)].cancel()
        for child in range(children):
            # Child 0 lands at the current instant; each kind in turn
            # meets the others there and in the future.
            kind = (child + len(tag)) % 4
            schedule(
                "%s.%d" % (tag, child),
                kind,
                now + 0.01 * child,
                lanes[(lane + child + 1) % 3],
                0,
                0,
            )

    def schedule(tag, kind, when, lane, children, cancel):
        specs[tag] = (lane, children, cancel)
        if kind == 0:
            handles.append(loop.call_at(when, lambda: fire(tag), tag, lane))
        elif kind == 1:
            loop.call_transient_at(when, fire, tag, lane=lane)
        elif kind == 2:
            loop.call_transient_at(when, lambda: fire(tag), lane=lane)
        else:
            handles.append(loop.call_soon(lambda: fire(tag), tag, lane))

    for index, op in enumerate(ops):
        tag = str(index)
        now = loop.clock.now
        if op[0] == "at":
            _, when_cs, lane, children, cancel = op
            schedule(tag, 0, now + when_cs / 100.0, lanes[lane], children, cancel)
        elif op[0] == "transient":
            _, when_cs, lane, children, with_arg = op
            kind = 1 if with_arg else 2
            schedule(tag, kind, now + when_cs / 100.0, lanes[lane], children, 0)
        elif op[0] == "soon":
            schedule(tag, 3, now, lanes[op[1]], op[2], 0)
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "step":
            log.append(("step", loop.step(), round(loop.clock.now, 9)))
        elif op[0] == "peek":
            log.append(("peek", loop.peek_next_time(), loop.pending))
        else:
            log.append(("run", loop.run_until(op[1] / 100.0), loop.pending))
    loop.run_until(3.0)
    return log, loop.fired, loop.scheduled, loop.pending, loop.clock.now


@settings(max_examples=100, deadline=None)
@given(ops=MIXED_OPS)
# step() with a heap entry and a ready entry at one instant: heap first.
@example(ops=[("at", 5, 0, 1, 0), ("at", 5, 0, 0, 0), ("step",), ("step",)])
# A cancelled ready head under peek_next_time, pending and step.
@example(ops=[("soon", 0, 0), ("soon", 1, 0), ("cancel", 0), ("peek",), ("step",)])
def test_mixed_entry_scripts_fire_identically(ops):
    """Cancellable and transient entries (with and without ``arg``),
    ``call_soon``, ``step``, ``peek_next_time`` / ``pending`` reads and a
    partial ``run_until``: the global loop's tuple entries fire and
    report exactly what the laned loop's event objects do."""
    assert run_mixed_script(EventLoop(Clock()), ops) == run_mixed_script(
        LanedEventLoop(Clock()), ops
    )


# A fault script against nodes n1..n<count>: (kind, centiseconds, node).
FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "repair", "partition", "heal"]),
        st.integers(min_value=50, max_value=600),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=4,
)


def _build_schedule(script, node_count):
    schedule = FaultSchedule()
    node_ids = ["n%d" % (k + 1) for k in range(node_count)]
    for kind, when_cs, which in script:
        at = when_cs / 100.0
        node = node_ids[which % node_count]
        if kind == "crash":
            schedule.crash(at, node)
        elif kind == "repair":
            schedule.repair(at, node)
        elif kind == "partition":
            rest = [n for n in node_ids if n != node]
            schedule.partition(at, [node], rest)
        else:
            schedule.heal(at)
    return schedule


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    node_count=st.integers(min_value=3, max_value=4),
    latency=st.sampled_from([0.001, 0.004]),
    jitter=st.sampled_from([0.0, 0.0005]),
    loss_rate=st.sampled_from([0.0, 0.02]),
    script=FAULTS,
)
def test_random_cluster_fault_scripts_reach_identical_digests(
    seed, node_count, latency, jitter, loss_rate, script
):
    """Random topology + link parameters + fault script: the replayed
    fault trace digest (which folds in every observed view change and
    redeployment) is scheduler-independent."""
    from repro.sim.scheduler import use_scheduler

    def scenario(scheduler):
        with use_scheduler(scheduler):
            env = DependableEnvironment.build(
                node_count=node_count,
                seed=seed,
                latency=latency,
                jitter=jitter,
                loss_rate=loss_rate,
            )
            schedule = _build_schedule(script, node_count)
            trace, violations = replay_schedule(
                env, schedule, duration=6.0, settle=4.0
            )
        # NOTE: loop.fired is deliberately NOT compared — the laned
        # scheduler keeps Network tick coalescing lane-local, so a
        # cross-lane burst becomes several smaller delivery events.
        # Event *order* (hence every digest) is unchanged; raw event
        # counts are an implementation detail, not an observable.
        return (
            trace.digest(),
            [str(v) for v in violations],
            round(env.loop.clock.now, 9),
        )

    assert scenario("global") == scenario("laned")

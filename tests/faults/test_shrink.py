"""ddmin over fault schedules: the shrink keeps only the faults that matter."""

import pytest

from repro.faults import FaultSchedule, shrink_schedule
from repro.faults.schedule import CRASH, REPAIR, FaultAction


def noisy_schedule():
    return (
        FaultSchedule()
        .crash(1.0, "n1")
        .repair(3.0, "n1")
        .partition(4.0, ["n1", "n2"], ["n3"])
        .heal(6.0)
        .crash(7.0, "n2")
        .loss_burst(8.0, 0.2, 2.0)
        .slow_node(9.0, "n3", 0.05, 3.0)
        .repair(11.0, "n2")
        .clock_skew(12.0, "n4", 1.5, 2.0)
        .crash(13.0, "n3")
    )


def crashes_and_repairs_n2(schedule):
    faults = {(action.kind, action.arg("node")) for action in schedule}
    return (CRASH, "n2") in faults and (REPAIR, "n2") in faults


def test_shrink_keeps_exactly_the_crash_and_repair_of_n2():
    probed = []

    def fails(schedule):
        probed.append(schedule.actions)
        return crashes_and_repairs_n2(schedule)

    shrunk, probes = shrink_schedule(noisy_schedule(), fails)
    assert shrunk.actions == (
        FaultAction(7.0, CRASH, (("node", "n2"),)),
        FaultAction(11.0, REPAIR, (("node", "n2"),)),
    )
    # Every distinct sub-schedule is probed once, the full one first.
    assert probes == len(probed) == len(set(probed)) == 23
    assert probed[0] == noisy_schedule().actions
    # 1-minimal: dropping either remaining fault makes the schedule pass.
    for action in shrunk:
        assert not crashes_and_repairs_n2(
            FaultSchedule([a for a in shrunk if a != action])
        )


def test_a_schedule_that_passes_is_refused():
    with pytest.raises(ValueError):
        shrink_schedule(FaultSchedule().crash(1.0, "n1"), crashes_and_repairs_n2)


def test_a_single_failing_action_is_already_minimal():
    schedule = FaultSchedule().crash(2.0, "n2")
    shrunk, probes = shrink_schedule(schedule, lambda s: len(s) == 1)
    assert shrunk == schedule
    assert probes == 1

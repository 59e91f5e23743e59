"""ABL-DETECT — ablation: failure-detector timeout.

The failover latency measured in CLAIM-FAIL is dominated by the heartbeat
failure detector's timeout. A tighter timeout detects crashes faster but
falsely suspects live nodes on a lossy network (triggering spurious
redeployments); a looser one is safe but slow. We sweep ``fd_timeout``
under 0% and 10% message loss and measure detection latency and false
suspicion rate — the classic completeness/accuracy trade-off, quantified
for this platform.
"""

from benchmarks.conftest import print_table
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams

FD_TIMEOUTS = [0.2, 0.35, 0.7, 1.4]
HB_INTERVAL = 0.1
QUIET_PERIOD = 60.0  # observe false suspicions over a minute of calm
MEMBERS = 4


def run_detector(fd_timeout, loss_rate, seed, adaptive=False):
    loop = EventLoop()
    network = Network(loop, RngStreams(seed), loss_rate=loss_rate)
    directory = GroupDirectory()
    members = []
    for i in range(MEMBERS):
        member = GroupMember(
            "n%d" % (i + 1),
            "g",
            loop,
            network,
            directory,
            hb_interval=HB_INTERVAL,
            fd_timeout=fd_timeout,
            adaptive_fd=adaptive,
        )
        member.join()
        loop.run_for(0.5)
        members.append(member)
    loop.run_for(2.0)

    # Phase 1: calm network; any suspicion here is false.
    baseline = loop.clock.now
    loop.run_for(QUIET_PERIOD)
    false_suspicions = sum(
        sum(1 for t, _ in m.suspicions if t >= baseline) for m in members
    )

    # Phase 2: a real crash; measure detection latency at the survivors.
    crash_at = loop.clock.now
    members[-1].crash()
    loop.run_for(fd_timeout * 4 + 2.0)
    latencies = []
    for member in members[:-1]:
        hits = [
            t - crash_at
            for t, who in member.suspicions
            if who == members[-1].endpoint_name and t >= crash_at
        ]
        if hits:
            latencies.append(min(hits))
    return {
        "false_per_min": false_suspicions / (QUIET_PERIOD / 60.0),
        "detect_s": sum(latencies) / len(latencies) if latencies else None,
        "detected_by": len(latencies),
    }


def test_abl_failure_detector_sweep():
    def scenario():
        out = {}
        for loss in (0.0, 0.10):
            for fd_timeout in FD_TIMEOUTS:
                out[(loss, fd_timeout)] = run_detector(
                    fd_timeout, loss, seed=int(fd_timeout * 1000) + int(loss * 100)
                )
            # The adaptive detector, with a generous 2 s ceiling.
            out[(loss, "adaptive")] = run_detector(
                2.0, loss, seed=991 + int(loss * 100), adaptive=True
            )
        return out

    results = scenario()

    for loss in (0.0, 0.10):
        rows = []
        for fd_timeout in FD_TIMEOUTS + ["adaptive"]:
            r = results[(loss, fd_timeout)]
            rows.append(
                (
                    "%.2f" % fd_timeout
                    if isinstance(fd_timeout, float)
                    else fd_timeout,
                    "%.2f" % r["detect_s"] if r["detect_s"] is not None else "-",
                    "%.1f" % r["false_per_min"],
                    r["detected_by"],
                )
            )
        print_table(
            "ABL-DETECT (loss=%.0f%%): heartbeat every %.1fs, %d members"
            % (loss * 100, HB_INTERVAL, MEMBERS),
            ["fd timeout s", "detection s", "false susp./min", "survivors detecting"],
            rows,
        )

    # Shape: detection latency tracks the timeout (monotone)...
    for loss in (0.0, 0.10):
        series = [results[(loss, t)]["detect_s"] for t in FD_TIMEOUTS]
        assert all(s is not None for s in series)
        assert series == sorted(series)
        for fd_timeout, detect in zip(FD_TIMEOUTS, series):
            # The last heartbeat may predate the crash by a full interval,
            # so detection can undershoot the timeout by up to that much.
            assert fd_timeout - 2 * HB_INTERVAL <= detect
            assert detect <= fd_timeout + 4 * HB_INTERVAL + 0.2
    # ...a calm lossless network never produces false suspicions...
    for fd_timeout in FD_TIMEOUTS:
        assert results[(0.0, fd_timeout)]["false_per_min"] == 0.0
    # ...and under loss, tight timeouts are the dangerous corner: the
    # tightest setting false-suspects at least as often as the loosest.
    lossy = [results[(0.10, t)]["false_per_min"] for t in FD_TIMEOUTS]
    assert lossy[0] >= lossy[-1]
    assert lossy[-1] == 0.0  # 14 consecutive losses: effectively never
    # The adaptive detector gets both: fast detection on a clean network
    # AND no false suspicions under loss, without hand-tuning.
    clean_adaptive = results[(0.0, "adaptive")]
    lossy_adaptive = results[(0.10, "adaptive")]
    assert clean_adaptive["detect_s"] < 0.8
    assert clean_adaptive["false_per_min"] == 0.0
    assert lossy_adaptive["false_per_min"] == 0.0
    assert lossy_adaptive["detect_s"] < 2.0

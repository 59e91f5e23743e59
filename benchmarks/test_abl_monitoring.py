"""ABL-MONITOR — ablation: JSR-284 accounting vs 2008 thread sampling.

§3.1 calls the sampling approach "far from optimal as it requires an
offline pre-processing of the bundle and leaves memory measurement outside
the metrics", and waits for JSR-284. With both implemented, we can measure
what the difference costs SLA enforcement:

* memory violations are **invisible** under sampling — enforcement never
  fires on a memory hog;
* CPU estimates are noisy — near the quota boundary, sampling produces
  false positives/negatives that exact accounting does not.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.isolation.quotas import ResourceQuota
from repro.monitoring.monitor import MonitoringModule
from repro.monitoring.sampler import ThreadSampler
from repro.osgi.definition import simple_bundle
from repro.sim.rng import RngStreams

from tests.conftest import RecordingActivator

WINDOWS = 60  # monitoring windows observed per scenario


def run_mode(mode, cpu_per_second, memory_bytes, quota_cpu, seed=141):
    cluster = Cluster.build(1, seed=seed, monitoring_mode=mode)
    node = cluster.node("n1")
    deploy = node.deploy_instance(
        "svc", quota=ResourceQuota(cpu_share=quota_cpu, memory_bytes=1024)
    )
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    activator = RecordingActivator()
    instance.install(
        simple_bundle("worker", activator_factory=lambda: activator)
    ).start()
    activator.context.account(memory_delta=memory_bytes)

    def burn():
        if activator.context is not None:
            activator.context.account(cpu=cpu_per_second)
            cluster.loop.call_after(1.0, burn)

    cluster.loop.call_after(1.0, burn)
    cluster.run_for(1.0)  # baseline window
    violations = {"cpu": 0, "memory": 0, "clean": 0}

    def observe(report):
        if report.cpu_violation:
            violations["cpu"] += 1
        if report.memory_violation:
            violations["memory"] += 1
        if not report.any_violation:
            violations["clean"] += 1

    node.monitoring.add_listener(observe)
    cluster.run_for(float(WINDOWS))
    return violations


def test_abl_monitoring_modes():
    def scenario():
        out = {}
        # Case A: memory hog (2 KiB against a 1 KiB quota), CPU idle.
        out[("exact", "memhog")] = run_mode("jsr284", 0.0, 2048, 0.5)
        out[("sampling", "memhog")] = run_mode("sampling", 0.0, 2048, 0.5)
        # Case B: CPU right at the quota boundary (0.30 vs quota 0.30,
        # tolerance 10%): exact accounting never flags; sampling's ±15%
        # noise sometimes crosses the tolerated band.
        out[("exact", "boundary")] = run_mode("jsr284", 0.30, 0, 0.30)
        out[("sampling", "boundary")] = run_mode("sampling", 0.30, 0, 0.30)
        # Case C: flagrant CPU hog (3x quota): both must catch it.
        out[("exact", "cpuhog")] = run_mode("jsr284", 0.60, 0, 0.20)
        out[("sampling", "cpuhog")] = run_mode("sampling", 0.60, 0, 0.20)
        return out

    results = scenario()

    rows = []
    for case in ("memhog", "boundary", "cpuhog"):
        for mode in ("exact", "sampling"):
            v = results[(mode, case)]
            rows.append(
                (case, mode, v["cpu"], v["memory"], v["clean"])
            )
    print_table(
        "ABL-MONITOR: violations flagged over %d windows" % WINDOWS,
        ["case", "accounting", "cpu flags", "memory flags", "clean windows"],
        rows,
    )

    # Memory: exact accounting flags every window; sampling flags none —
    # the §3.1 "leaves memory measurement outside the metrics" gap.
    assert results[("exact", "memhog")]["memory"] >= WINDOWS - 2
    assert results[("sampling", "memhog")]["memory"] == 0
    # Boundary: exact accounting is silent; sampling produces spurious
    # flags from its estimation noise.
    assert results[("exact", "boundary")]["cpu"] == 0
    assert results[("sampling", "boundary")]["cpu"] > 0
    # A flagrant hog is always caught by exact accounting; sampling still
    # catches it in most windows, but its noise is *multiplicative on the
    # cumulative counter*, so per-window deltas degrade as the counter
    # grows — another reason the paper calls the approach "far from
    # optimal".
    assert results[("exact", "cpuhog")]["cpu"] >= WINDOWS - 2
    assert results[("sampling", "cpuhog")]["cpu"] >= WINDOWS * 0.5
    assert (
        results[("sampling", "cpuhog")]["cpu"]
        < results[("exact", "cpuhog")]["cpu"]
    )

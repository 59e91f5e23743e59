"""Two environments in one process are observed apart.

The probe belongs to an event loop, not to the process: with telemetry
and a history recorder attached to environment A only, and B stepped in
between A's steps on the same seed, A's history and span export are
byte-for-byte those of A run alone, and B is never observed.
"""

from repro.conformance import HistoryRecorder
from repro.faults.campaign import default_scenario
from repro.telemetry import Telemetry, attach
from repro.telemetry.export import dump_spans_json

SEED = 5
STEPS = 16
STEP = 0.5
CRASH_AT_STEP = 4


def run_a(other=None):
    """Observe A (crashing acme's host mid-run); step ``other`` in between."""
    env = default_scenario(SEED)
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="a")
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, telemetry=telemetry, recorder=recorder):
        telemetry.open_root("a")
        for step in range(STEPS):
            if step == CRASH_AT_STEP:
                env.fail_node(env.locate("acme"))
                if other is not None:
                    other.fail_node(other.locate("acme"))
            env.run_for(STEP)
            if other is not None:
                other.run_for(STEP)
                assert other.loop.probe is None
        telemetry.close_root()
    return env, recorder.history, dump_spans_json(telemetry.export_spans(), {})


def test_observing_one_environment_leaves_the_other_alone():
    _, solo_history, solo_spans = run_a()
    other = default_scenario(SEED)
    env, history, spans = run_a(other=other)
    assert other.loop.probe is None
    assert history.digest() == solo_history.digest()
    assert spans == solo_spans
    # The run did exercise what the probe observes.
    assert history.of_kind("view_install") and history.of_kind("migration")
    assert '"migration.failover"' in spans and '"ipvs.request"' in spans
    # B ran the same steps on its own loop, traffic and failover included.
    assert other.loop.clock.now == env.loop.clock.now
    assert other.director.submitted == env.director.submitted > 0
    assert other.locate("acme") == env.locate("acme") is not None

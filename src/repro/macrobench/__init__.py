"""The "million-user day" macro scenario (workload ``macro_day`` of ``benchmarks/suite/``).

Runs the platform shaped like production: several
:class:`~repro.ipvs.server.DirectorCluster` shards behind a
consistent-hash ring, dozens of real-server instances, and an open-loop
diurnal arrival process pushing millions of simulated requests through
one deterministic event loop. See ``docs/PERF.md`` for how to run it and
read the numbers.
"""

from repro.macrobench.scenario import (
    MacroConfig,
    MacroResult,
    MacroScenario,
)

__all__ = ["MacroConfig", "MacroResult", "MacroScenario"]

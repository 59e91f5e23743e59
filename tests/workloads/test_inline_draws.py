"""The macro request path draws in line what the standard library would.

``OpenLoopArrivals`` computes each thinning gap as
``-log(1.0 - random()) / peak``, the body of ``random.Random.expovariate``,
and ``MacroScenario`` picks a client with ``getrandbits`` and a redraw,
the body of ``randrange(n)`` for ``n > 0``. Both bodies are the same in
CPython 3.10 to 3.13. A CPython that changes either one fails here
instead of silently moving a digest.
"""

from __future__ import annotations

from math import log

import pytest

from repro.macrobench import MacroConfig, MacroScenario
from repro.sim.rng import RngStreams

SEED = 2026


@pytest.mark.parametrize("rate", [1.0, 8.0, 1600.0, 4800.0])
def test_the_inline_gap_is_expovariate_bit_for_bit(rate):
    inline = RngStreams(SEED).stream("macro.arrivals")
    stdlib = RngStreams(SEED).stream("macro.arrivals")
    random = inline.random
    for _ in range(100_000):
        assert -log(1.0 - random()) / rate == stdlib.expovariate(rate)
    assert inline.getstate() == stdlib.getstate()


@pytest.mark.parametrize("clients", [1, 2, 3, 10000, 16384, 16385])
def test_the_client_pick_is_randrange_draw_for_draw(clients):
    """Every client a short day picks, from the scenario itself."""
    scenario = MacroScenario(
        MacroConfig.smoke(day_seconds=1.0, clients=clients, seed=SEED)
    )
    names = {name: index for index, name in enumerate(scenario._client_names)}
    picked = []

    def record(_vip, client):
        picked.append(names[client])

    scenario._submits = [record] * len(scenario._submits)
    scenario.run()
    reference = RngStreams(SEED).stream("macro.clients")
    assert len(picked) > 500
    assert picked == [reference.randrange(clients) for _ in picked]
    assert scenario.rng.stream("macro.clients").getstate() == reference.getstate()


def test_a_day_without_clients_is_refused():
    with pytest.raises(ValueError):
        MacroScenario(MacroConfig.smoke(day_seconds=1.0, clients=0)).run()

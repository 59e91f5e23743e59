"""Deterministic discrete-event simulation substrate.

Everything distributed in this reproduction (group communication, failure
detection, migration timing, ipvs request routing) runs on top of this
package so that experiments are exactly repeatable from a seed.

The central object is the :class:`~repro.sim.eventloop.EventLoop`: a
priority queue of timestamped callbacks with a deterministic tie-break.
:class:`~repro.sim.network.Network` models message latency, loss and
partitions between named endpoints, and :class:`~repro.sim.rng.RngStreams`
hands out independent seeded random streams per subsystem so adding a new
consumer of randomness never perturbs existing ones.

Every run builds this one loop (see ``docs/SIM.md``), so one seed gives
one order of events.
"""

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.sim.network import Endpoint, Message, Network, NetworkStats
from repro.sim.rng import RngStreams

__all__ = [
    "Clock",
    "EventLoop",
    "ScheduledEvent",
    "Endpoint",
    "Message",
    "Network",
    "NetworkStats",
    "RngStreams",
]

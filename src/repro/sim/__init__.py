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

Two schedulers implement the same contract (see ``docs/SIM.md``): the
global single-heap loop and the partitioned
:class:`~repro.sim.lanes.LanedEventLoop`, selected via
:func:`~repro.sim.scheduler.make_loop` / ``--scheduler laned``. Same
seed, same run, byte for byte — ``tests/parity`` holds both to it.
"""

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.sim.lanes import Lane, LanedEventLoop, LaneScheduler
from repro.sim.network import Endpoint, Message, Network, NetworkStats
from repro.sim.rng import RngStreams
from repro.sim.scheduler import (
    SCHEDULERS,
    default_scheduler,
    make_loop,
    set_default_scheduler,
    use_scheduler,
)

__all__ = [
    "Clock",
    "EventLoop",
    "ScheduledEvent",
    "Lane",
    "LaneScheduler",
    "LanedEventLoop",
    "Endpoint",
    "Message",
    "Network",
    "NetworkStats",
    "RngStreams",
    "SCHEDULERS",
    "default_scheduler",
    "make_loop",
    "set_default_scheduler",
    "use_scheduler",
]

"""Service localization — §3.2 issue 4 and Figures 5-6.

Two strategies from the paper:

* **Unique IP per service** (Figure 5) — migrating a service "simply
  requires the node currently holding the service to release the IP
  address, and the new node to bind it":
  :class:`~repro.ipvs.addressing.AddressRegistry` +
  :meth:`~repro.ipvs.addressing.AddressRegistry.move`.
* **Shared IP behind an IP virtual server** (Figure 6) — a fault-tolerant
  director owns the virtual IPs, redirects requests to the node currently
  running the service, doubles as a load balancer over replicas, and is
  itself replicated: :class:`~repro.ipvs.server.VirtualServer`,
  :class:`~repro.ipvs.server.DirectorCluster`, schedulers in
  :mod:`~repro.ipvs.schedulers`.

Requests are simulated on the event loop with per-real-server service
times and queues, so throughput/latency under scale-out (CLAIM-SCALE) and
downtime during takeover (FIG5/FIG6) are measurable quantities.
"""

from repro.ipvs.addressing import AddressRegistry, IpEndpoint
from repro.ipvs.hashring import ConsistentHashRing, stable_hash
from repro.ipvs.schedulers import (
    BucketedLeastConnectionScheduler,
    LeastConnectionScheduler,
    RoundRobinScheduler,
    Scheduler,
    WeightedRoundRobinScheduler,
)
from repro.ipvs.server import (
    DirectorCluster,
    RealServer,
    Request,
    VirtualServer,
)

__all__ = [
    "AddressRegistry",
    # Alias of LeastConnectionScheduler; benchmarks/suite/micro.py imports it.
    "BucketedLeastConnectionScheduler",
    "ConsistentHashRing",
    "DirectorCluster",
    "IpEndpoint",
    "LeastConnectionScheduler",
    "RealServer",
    "Request",
    "RoundRobinScheduler",
    "Scheduler",
    "VirtualServer",
    "WeightedRoundRobinScheduler",
    "stable_hash",
]

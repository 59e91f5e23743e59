"""ipvs scheduling disciplines.

The three classic Linux Virtual Server schedulers the load-balancing
claims rest on: round-robin, weighted round-robin (interleaved, as in
the kernel implementation) and least-connection, the last one as an
exact index over live connection counts so a pick costs the same at 12
servers and at 96.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipvs.server import RealServer


class Scheduler:
    """Picks the next real server for a new connection."""

    name = "base"

    def pick(self, servers: Sequence["RealServer"]) -> Optional["RealServer"]:
        raise NotImplementedError

    def topology_changed(self) -> None:
        """Hint that the server pool membership changed.

        The director calls this on add/remove so stateful schedulers can
        invalidate their indexes; stateless ones ignore it.
        """


class RoundRobinScheduler(Scheduler):
    """Cycle through available servers in order."""

    name = "rr"

    def __init__(self) -> None:
        self._index = 0

    def pick(self, servers: Sequence["RealServer"]) -> Optional["RealServer"]:
        available = [s for s in servers if s.available]
        if not available:
            return None
        choice = available[self._index % len(available)]
        self._index += 1
        return choice


class WeightedRoundRobinScheduler(Scheduler):
    """Interleaved weighted round-robin (the LVS ``wrr`` algorithm).

    Each pass lowers a current-weight threshold by the gcd of weights;
    servers whose weight reaches the threshold are eligible, so a
    weight-3 server gets picked three times as often as a weight-1 one,
    interleaved rather than bursty.
    """

    name = "wrr"

    def __init__(self) -> None:
        self._index = -1
        self._current_weight = 0

    def pick(self, servers: Sequence["RealServer"]) -> Optional["RealServer"]:
        available = [s for s in servers if s.available]
        if not available:
            return None
        max_weight = max(s.weight for s in available)
        if max_weight <= 0:
            return None
        gcd = self._gcd_all([s.weight for s in available if s.weight > 0])
        while True:
            self._index = (self._index + 1) % len(available)
            if self._index == 0:
                self._current_weight -= gcd
                if self._current_weight <= 0:
                    self._current_weight = max_weight
            candidate = available[self._index]
            if candidate.weight >= self._current_weight:
                return candidate

    @staticmethod
    def _gcd_all(weights: List[int]) -> int:
        from math import gcd

        value = weights[0]
        for weight in weights[1:]:
            value = gcd(value, weight)
        return max(1, value)


_NODE_ID = attrgetter("node_id")


class LeastConnectionScheduler(Scheduler):
    """Send new connections to the server with the fewest active ones.

    Ties break on ``node_id`` so the choice is deterministic: the pick is
    the minimum of ``(active_connections, node_id)`` over the available
    servers. It is read off an index instead of a scan of the pool.
    Servers are ranked once by ``node_id``; ``_masks[count]`` is an int
    whose bit ``rank`` is set when that server has ``count`` connections
    in flight. The lowest set bit of the lowest non-empty count is the
    minimum; the walk starts at count 0 and continues past servers that
    fail the availability test, which reads ``alive``, ``weight`` and
    ``queue_limit`` off the server at pick time, so health flips, drains
    and re-weights need no notification. Each indexed server holds a
    slot (``_masks`` and its bit) and moves its bit itself in ``admit``
    and ``_finish``, so counts must move through those once the index is
    built. :meth:`topology_changed` releases this scheduler's slots, and
    a rebuild refuses (``ValueError``) a server whose slot another
    scheduler still holds. Pool membership changes (the director calls
    :meth:`topology_changed`; another list object or length is also
    detected) rebuild the index on the next pick, from the counts the
    servers hold at that moment.
    """

    name = "lc"

    def __init__(self) -> None:
        #: The list the index was built from; None while it is stale.
        self._servers_ref: Optional[Sequence["RealServer"]] = None
        self._count = 0
        self._ranked: List["RealServer"] = []
        self._masks: List[int] = [0]

    def topology_changed(self) -> None:
        # Released servers stop moving their bits; the next pick rebuilds
        # from the counts they hold then.
        self._release()
        self._servers_ref = None

    def pick(self, servers: Sequence["RealServer"]) -> Optional["RealServer"]:
        if servers is not self._servers_ref or len(servers) != self._count:
            self._rebuild(servers)
        masks = self._masks
        ranked = self._ranked
        count = 0
        counts = len(masks)
        while count < counts:
            mask = masks[count]
            while mask:
                low = mask & -mask
                server = ranked[low.bit_length() - 1]
                # Inlined RealServer.available (hot path); the server's
                # active count is ``count``.
                if (
                    server.alive
                    and server.weight > 0
                    and count < server.queue_limit
                ):
                    return server
                mask ^= low
            count += 1
        return None

    # -- index maintenance -------------------------------------------------
    def _release(self) -> None:
        """Drop the slots of the servers this index still holds."""
        masks = self._masks
        for server in self._ranked:
            if server._masks is masks:
                server._masks = None

    def _rebuild(self, servers: Sequence["RealServer"]) -> None:
        own = self._masks
        for server in servers:
            if server._masks is not None and server._masks is not own:
                raise ValueError(
                    "%r is indexed by another least-connection scheduler" % server
                )
        self._release()
        ranked = sorted(servers, key=_NODE_ID)
        highest = max([s.active_connections for s in ranked], default=0)
        masks = [0] * (highest + 1)
        bit = 1
        for server in ranked:
            server._masks = masks
            server._bit = bit
            masks[server.active_connections] |= bit
            bit <<= 1
        self._ranked = ranked
        self._masks = masks
        self._servers_ref = servers
        self._count = len(servers)


#: The former list-bucket variant, now the same class. The name stays
#: because ``benchmarks/suite/micro.py`` imports it.
BucketedLeastConnectionScheduler = LeastConnectionScheduler

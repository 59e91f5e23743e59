"""Message census: what a fault-free fleet puts on the network.

Builds the ``chaos_fleet`` scenario (``_fleet_scenario``: seed 1, six
customers, three warm standbys, a client pump) at each fleet size, lets
it run 30 simulated seconds with no fault, and counts every
message at ``Network.send_all``, one per destination, by frame kind:

* ``heartbeat`` - the GCS failure detector's beats;
* ``INV`` - FIFO multicast frames that carry a Migration Module
  inventory;
* ``ack`` - reliable-channel acknowledgements, of any data frame;
* ``other`` - everything else (other GCS data frames, views, probes).

Only the run after the scenario is built is counted, so admission and
standby preparation do not weigh in. The table gives messages per
simulated second for the whole fleet and per node, and each kind's
share::

    python -m benchmarks.ledger.messages              # 8, 16 and 32 nodes
    python -m benchmarks.ledger.messages --nodes 8

The census informs; it gates nothing.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

KINDS = ("heartbeat", "INV", "ack", "other")


def frame_kind(payload: Any) -> str:
    """The census kind of one network payload."""
    if not isinstance(payload, dict):
        return "other"
    if "hb" in payload:
        return "heartbeat"
    frame = payload.get("rc")
    if frame is None:
        return "other"
    if frame["kind"] == "ack":
        return "ack"
    body = frame["body"]
    inner = body.get("body") if body.get("t") == "FIFO" else None
    if isinstance(inner, dict) and inner.get("mig") == "INV":
        return "INV"
    return "other"


@contextmanager
def counting_sends(counts: Counter) -> Iterator[None]:
    """Count every destination of every ``Network.send_all`` call by kind.

    Patches the class: members and channels bind ``send_all`` when they
    are built, so the patch must be in place before the fleet is."""
    from repro.sim.network import Network

    send_all = Network.send_all

    def counted(self, source, destinations, payload, size_bytes=256):
        destinations = tuple(destinations)
        counts[frame_kind(payload)] += len(destinations)
        send_all(self, source, destinations, payload, size_bytes)

    Network.send_all = counted
    try:
        yield
    finally:
        Network.send_all = send_all


def census(nodes: int, seconds: float = 30.0) -> Dict[str, Any]:
    """Messages by kind over ``seconds`` fault-free simulated seconds."""
    from benchmarks.suite.workloads import FleetScale, _fleet_scenario

    counts: Counter = Counter()
    with counting_sends(counts):
        env = _fleet_scenario(FleetScale(nodes, 6, 3, 1, seconds, 0.0), [])(1)
        counts.clear()
        started = time.perf_counter()
        env.run_for(seconds)
        wall = time.perf_counter() - started
    return {
        "nodes": nodes,
        "seconds": seconds,
        "counts": {kind: counts[kind] for kind in KINDS},
        "wall_s": wall,
    }


def render(rows: List[Dict[str, Any]]) -> str:
    """A markdown table: per-second totals, then each kind's count and share."""
    lines = [
        "| nodes | msgs / sim-s | per node | "
        + " | ".join("%s (share)" % kind for kind in KINDS)
        + " | wall |",
        "|---" * (len(KINDS) + 4) + "|",
    ]
    for row in rows:
        counts = row["counts"]
        total = sum(counts.values())
        rate = total / row["seconds"]
        cells = " | ".join(
            "%d (%.1f %%)" % (counts[kind], 100.0 * counts[kind] / max(total, 1))
            for kind in KINDS
        )
        lines.append(
            "| %d | %.0f | %.1f | %s | %.2f s |"
            % (row["nodes"], rate, rate / row["nodes"], cells, row["wall_s"])
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger.messages")
    parser.add_argument("--nodes", type=int, nargs="+", default=[8, 16, 32])
    args = parser.parse_args()
    if min(args.nodes) < 2:
        parser.error("a fleet needs at least 2 nodes")
    rows = [census(n) for n in args.nodes]
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Group communication system — the substrate of §3.2.

The Migration Module "clearly need[s] a group communication system (GCS)
such as jGCS" for membership without a centralized authority. This package
implements one over the simulated network:

* :class:`~repro.gcs.view.View` — numbered membership views with a
  deterministic coordinator (lowest member id);
* :class:`~repro.gcs.member.GroupMember` — join/leave/crash, heartbeat
  failure detection, view installation, and reliable FIFO or total-order
  (sequencer-based) multicast;
* :class:`~repro.gcs.directory.GroupDirectory` — the discovery analogue of
  IP multicast on a LAN.

A node holds one member per group (:meth:`repro.cluster.node.Node.group_member`);
the Migration Module multicasts, joins, leaves and listens on its member
directly, covering what jGCS splits into data and control sessions.
"""

from repro.gcs.channel import ReliableChannel
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.gcs.view import View, ViewChange

__all__ = [
    "GroupDirectory",
    "GroupMember",
    "ReliableChannel",
    "View",
    "ViewChange",
]

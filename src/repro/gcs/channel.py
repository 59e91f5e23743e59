"""Reliable point-to-point delivery over the lossy simulated network.

:class:`ReliableChannel` implements positive acknowledgement with
retransmission: each outbound message gets a channel-unique id and is
retransmitted every :data:`RTO` seconds until the peer acks it or the sender
cancels (e.g. because a view change removed the peer). Receivers ack every
copy and deduplicate by id, giving at-least-once transport with
exactly-once upcall — what the GCS layers its ordering on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.sim.network import Endpoint, Message

#: Process-wide incarnation source. A node that crashes and reboots gets a
#: *new* channel with a new incarnation, so its message ids can never be
#: mistaken for (and deduplicated against) its previous life's — the same
#: role a random session id plays in real transports.
_INCARNATIONS = itertools.count(1)

#: Retransmission timeout: seconds between sends of an unacked message.
RTO = 0.05


class ReliableChannel:
    """Ack/retransmit layer bound to one network endpoint.

    The owner attaches the channel to its endpoint traffic by calling
    :meth:`handle_raw` for every inbound network message; GCS payloads are
    wrapped in ``{"rc": ...}`` envelopes so the channel can interleave with
    other traffic on the same endpoint.
    """

    MAX_RETRIES = 50

    def __init__(
        self,
        node_id: str,
        endpoint: Endpoint,
        loop: EventLoop,
        on_deliver: Callable[[str, Any], None],
    ) -> None:
        self.node_id = node_id
        #: Frames go straight to the network: one call each, not two.
        self._source = endpoint.name
        self._send_all = endpoint.network.send_all
        self._loop = loop
        self._on_deliver = on_deliver
        self.incarnation = next(_INCARNATIONS)
        self._next_id = 0
        self._pending: Dict[int, Tuple[str, Any, ScheduledEvent, int]] = {}
        self._seen: Set[Tuple[str, int, int]] = set()
        self.sent = 0
        self.retransmits = 0
        self.closed = False

    # ------------------------------------------------------------------
    def send(self, destination: str, payload: Any) -> int:
        """Send reliably; returns the message id (cancellable)."""
        if self.closed:
            return -1
        msg_id = self._next_id
        self._next_id += 1
        self._transmit(destination, msg_id, payload)
        self._arm_retry(destination, msg_id, payload, attempt=1)
        return msg_id

    def cancel(self, msg_id: int) -> None:
        """Stop retransmitting ``msg_id`` (peer gone from the view)."""
        entry = self._pending.pop(msg_id, None)
        if entry is not None:
            entry[2].cancel()

    def cancel_to(self, destination: str) -> None:
        """Cancel every pending send towards ``destination``."""
        for msg_id, entry in list(self._pending.items()):
            if entry[0] == destination:
                self.cancel(msg_id)

    def close(self) -> None:
        self.closed = True
        for msg_id in list(self._pending):
            self.cancel(msg_id)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def handle_raw(self, message: Message) -> bool:
        """Process one network message; True when it was channel traffic."""
        payload = message.payload
        if not isinstance(payload, dict) or "rc" not in payload:
            return False
        frame = payload["rc"]
        kind = frame.get("kind")
        if kind == "data":
            self._on_data(message.source, frame)
            return True
        if kind == "ack":
            self._on_ack(frame)
            return True
        return True

    # ------------------------------------------------------------------
    def _transmit(self, destination: str, msg_id: int, payload: Any) -> None:
        self.sent += 1
        self._send_all(
            self._source,
            (destination,),
            {
                "rc": {
                    "kind": "data",
                    "id": msg_id,
                    "inc": self.incarnation,
                    "from": self.node_id,
                    "body": payload,
                }
            },
        )

    def _arm_retry(
        self, destination: str, msg_id: int, payload: Any, attempt: int
    ) -> None:
        def retry() -> None:
            if self.closed or msg_id not in self._pending:
                return
            del self._pending[msg_id]
            if attempt >= self.MAX_RETRIES:
                return  # peer is gone for good; give up silently
            self.retransmits += 1
            self._transmit(destination, msg_id, payload)
            self._arm_retry(destination, msg_id, payload, attempt + 1)

        loop = self._loop
        event = loop.call_at(loop.clock.now + RTO, retry, "rc-retry")
        self._pending[msg_id] = (destination, payload, event, attempt)

    def _on_data(self, source: str, frame: Dict[str, Any]) -> None:
        msg_id = frame["id"]
        sender = frame["from"]
        incarnation = frame.get("inc", 0)
        # The ack echoes the data frame's incarnation so the (possibly
        # rebooted) sender can tell whether it concerns its current life.
        self._send_all(
            self._source,
            (source,),
            {"rc": {"kind": "ack", "id": msg_id, "inc": incarnation}},
        )
        key = (sender, incarnation, msg_id)
        if key in self._seen:
            return
        self._seen.add(key)
        self._on_deliver(sender, frame["body"])

    def _on_ack(self, frame: Dict[str, Any]) -> None:
        # Ignore acks for a previous life's messages: same ids, different
        # incarnation — cancelling on them would lose current messages.
        if frame.get("inc", self.incarnation) != self.incarnation:
            return
        entry = self._pending.pop(frame["id"], None)
        if entry is not None:
            entry[2].cancel()

    def __repr__(self) -> str:
        return "ReliableChannel(%s, pending=%d, sent=%d, rtx=%d)" % (
            self.node_id,
            len(self._pending),
            self.sent,
            self.retransmits,
        )

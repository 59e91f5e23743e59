"""Group membership, failure detection and ordered multicast.

One :class:`GroupMember` per (node, group). The protocol is coordinator-
driven and fully deterministic on the simulated network:

* **Views** — the coordinator (lowest member id) installs numbered views on
  join, graceful leave and suspicion; members adopt any view with a higher
  id that contains them.
* **Failure detection** — members heartbeat every ``hb_interval``; a peer
  silent for ``fd_timeout`` is suspected. The surviving coordinator (lowest
  *unsuspected* id) installs the shrunk view — decentralized, exactly as
  §3.2 requires for node-failure handling.
* **FIFO multicast** — per-sender sequence numbers over the reliable
  channel, with a SYNC handshake so joiners learn each sender's position.
  A receiver keys its cursor to the sender's channel incarnation, whose
  numbering never restarts, and keeps it across view changes: a member it
  dropped and re-admitted resumes where it left off even when the sender
  never saw it leave (and so sends no SYNC). Frames from a sender outside
  the receiver's view are held, in order, until the view admits it.
* **Total-order multicast** — sender forwards to the coordinator, which
  sequences and reliably disseminates; receivers deliver in sequence. On
  coordinator failover the new coordinator continues from its own delivery
  point: messages sequenced-but-not-fully-disseminated by the dead
  coordinator can be lost, but delivery order is never violated (a
  documented weakening of full view synchrony — see DESIGN.md and the
  ABL-ORDER benchmark, which measures what this buys the Migration Module).
  Every ORDERED frame carries the view it was sequenced in, and a member
  drops frames from a view older than the one it has installed: after a
  failover or a partition merge the old sequencer's late frames would
  otherwise take seq numbers the new sequencer hands out again.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.gcs.channel import ReliableChannel
from repro.gcs.directory import GroupDirectory
from repro.gcs.view import View, ViewChange
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.sim.network import Message, Network

ViewListener = Callable[[ViewChange], None]
MessageListener = Callable[[str, Any], None]

#: Seconds between JOIN resends while a joiner is outside every view.
JOIN_RETRY = 0.5
#: The adaptive detector's multiplier on a peer's EWMA heartbeat gap.
ADAPTIVE_FACTOR = 6.0


class GroupMember:
    """One process's attachment to one group."""

    def __init__(
        self,
        node_id: str,
        group: str,
        loop: EventLoop,
        network: Network,
        directory: GroupDirectory,
        hb_interval: float = 0.1,
        fd_timeout: float = 1.0,
        adaptive_fd: bool = False,
    ) -> None:
        # fd_timeout defaults to 10x the heartbeat interval: losing ten
        # consecutive heartbeats is vanishingly unlikely even on a lossy
        # link, so false suspicions stay rare; latency-sensitive callers
        # (the Migration Module on a quiet LAN) pass a tighter value.
        #
        # adaptive_fd=True switches to an accrual-style detector: the
        # timeout becomes ``ADAPTIVE_FACTOR x EWMA(inter-arrival mean)``
        # (floored at 2 heartbeat intervals, capped at fd_timeout).
        # Multiplicative, not mean+k*deviation: heartbeat gaps under loss
        # are geometric (heavy-tailed), and the mean already stretches by
        # 1/(1-loss), so k consecutive losses stay under the threshold
        # with probability loss^k regardless of the loss rate.
        self.node_id = node_id
        self.group = group
        self._loop = loop
        self._network = network
        self._directory = directory
        self.hb_interval = hb_interval
        self.fd_timeout = fd_timeout
        self.adaptive_fd = adaptive_fd
        # Per-peer EWMA of heartbeat inter-arrival mean and deviation.
        self._arrival_stats: Dict[str, Tuple[float, float]] = {}

        self.endpoint_name = "gcs/%s/%s" % (group, node_id)
        self._endpoint = network.attach(self.endpoint_name, self._on_network)
        self._channel = ReliableChannel(
            self.endpoint_name, self._endpoint, loop, self._on_channel
        )

        self.view: Optional[View] = None
        #: The view's other members, the heartbeat's destinations.
        self._peers: List[str] = []
        self.running = False
        #: True once join() has ever been called; a not-running member
        #: that has joined before is dead for good (see Node.group_member).
        self.ever_joined = False
        self._beat_count = 0
        #: Live timer handles only: the pending heartbeat and join retry.
        self._timers: Dict[str, ScheduledEvent] = {}
        self._last_heard: Dict[str, float] = {}
        self._suspected: Set[str] = set()

        # FIFO state: per sender, the incarnation the cursor belongs to,
        # the next seq to deliver, and frames that arrived early.
        self._fifo_seq = 0
        self._fifo_incarnation: Dict[str, int] = {}
        self._fifo_expected: Dict[str, int] = {}
        self._fifo_buffer: Dict[str, Dict[int, Any]] = {}

        # Total-order state
        self._order_next = 1  # next seq this member would assign as sequencer
        self._order_expected = 1  # next seq to deliver
        #: seq -> (origin, payload, id of the view it was sequenced in)
        self._order_buffer: Dict[int, Tuple[str, Any, int]] = {}

        self.view_listeners: List[ViewListener] = []
        self.message_listeners: List[MessageListener] = []
        #: (virtual time, suspected member) — consumed by the ABL-DETECT bench.
        self.suspicions: List[Tuple[float, str]] = []
        self.delivered_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def is_coordinator(self) -> bool:
        return (
            self.view is not None
            and self.view.size > 0
            and self.view.coordinator == self.endpoint_name
        )

    def stranded_frames(self) -> Dict[str, List[int]]:
        """View member -> sorted seqs of its FIFO frames buffered here.

        Such a frame waits on a gap; once the network is quiet, on one
        nobody will fill. Frames from senders outside the view are held by
        design and not listed.
        """
        members = self.view.members if self.view is not None else ()
        return {
            sender: sorted(buffered)
            for sender, buffered in sorted(self._fifo_buffer.items())
            if buffered and sender in members
        }

    def fifo_cursor(self, sender: str) -> int:
        """The next FIFO seq this member would deliver from ``sender``."""
        return self._fifo_expected.get(sender, 1)

    def join(self) -> None:
        """Enter the group, installing a singleton view if it is empty."""
        if self.running:
            return
        self.running = True
        self.ever_joined = True
        peers = [
            p for p in self._directory.lookup(self.group) if p != self.endpoint_name
        ]
        self._directory.register(self.group, self.endpoint_name)
        if not peers:
            self._install(View(1, (self.endpoint_name,)), order_seq=1)
        else:
            self._send_join(peers)
            self._arm_join_retry()
        self._arm_heartbeats()

    def leave(self) -> None:
        """Graceful departure: hand the view over before going silent."""
        if not self.running:
            return
        view = self.view
        self.running = False
        self._directory.deregister(self.group, self.endpoint_name)
        self._cancel_timers()
        if view is not None and view.contains(self.endpoint_name):
            survivor_view = view.without(self.endpoint_name)
            if self.endpoint_name == view.coordinator:
                # Leaving coordinator installs the successor view itself.
                for member in survivor_view.members:
                    self._channel.send(
                        member,
                        {
                            "t": "VIEW",
                            "view": survivor_view.to_dict(),
                            "order_seq": self._order_next,
                        },
                    )
            else:
                self._channel.send(
                    view.coordinator, {"t": "LEAVE", "member": self.endpoint_name}
                )
        self._loop.call_after(
            max(self.fd_timeout, 1.0), self._final_close, label="gcs-drain"
        )
        self.view = None

    def crash(self) -> None:
        """Fail-stop: no goodbye, timers dead, endpoint detached."""
        self.running = False
        self._cancel_timers()
        self._channel.close()
        self._network.detach(self.endpoint_name)
        self.view = None

    def multicast(self, payload: Any, total_order: bool = False) -> None:
        """Send ``payload`` to the whole group (including self-delivery)."""
        if not self.running or self.view is None:
            raise RuntimeError("%s is not a group member" % self.endpoint_name)
        probe = self._loop.probe
        traced = nullcontext() if probe is None else probe.span(
            "gcs.multicast",
            self.node_id,
            {"group": self.group, "total_order": total_order},
        )
        with traced:
            if total_order:
                if probe is not None:
                    probe.multicast_send(
                        self.endpoint_name,
                        self._channel.incarnation,
                        self.group,
                        "total",
                        None,
                        payload,
                    )
                if self.is_coordinator or (
                    # Mutant: a non-coordinator sequences locally, racing
                    # the real sequencer for the same seq numbers.
                    probe is not None
                    and probe.mutated("self_sequencing", self.endpoint_name)
                ):
                    self._sequence(self.endpoint_name, payload)
                else:
                    self._channel.send(
                        self.view.coordinator,
                        {"t": "TOSEND", "origin": self.endpoint_name, "body": payload},
                    )
            else:
                self._fifo_seq += 1
                frame = {
                    "t": "FIFO",
                    "seq": self._fifo_seq,
                    "inc": self._channel.incarnation,
                    "body": payload,
                }
                if probe is not None:
                    probe.multicast_send(
                        self.endpoint_name,
                        self._channel.incarnation,
                        self.group,
                        "fifo",
                        self._fifo_seq,
                        payload,
                    )
                for member in self.view.members:
                    if member != self.endpoint_name:
                        self._channel.send(member, frame)
                if not (
                    # Mutant: the sender forgets to deliver to itself.
                    probe is not None
                    and probe.mutated("skip_self_delivery", self.endpoint_name)
                ):
                    self._deliver(
                        self.endpoint_name, payload, kind="fifo", seq=self._fifo_seq
                    )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_heartbeats(self) -> None:
        me = self.endpoint_name
        # One payload object for every beat and every peer; receivers
        # only read it.
        heartbeat = {"hb": me}
        # Beats go straight to the network: one call each, not two.
        send_all = self._endpoint.network.send_all

        def beat() -> None:
            if not self.running:
                return
            if self.view is not None:
                send_all(me, self._peers, heartbeat)
            self._check_failures()
            self._beat_count += 1
            if self._beat_count % 10 == 0 and self.is_coordinator:
                self._probe_strangers()
            self._timers["hb"] = self._loop.call_after(
                self.hb_interval, beat, label="gcs-hb"
            )

        self._timers["hb"] = self._loop.call_after(
            self.hb_interval, beat, label="gcs-hb"
        )

    def _probe_strangers(self) -> None:
        """Partition-merge path.

        Concurrent suspicions during churn can split the group into two
        live views that would otherwise never reunite. The coordinator
        periodically sends a best-effort PROBE (no retransmission: dead
        directory entries are common) to every *registered* endpoint
        outside its view; the coordinator with the lexicographically
        smaller id merges the two views (union, higher view id) on probe
        receipt.
        """
        if self.view is None:
            return
        for peer in self._directory.lookup(self.group):
            if peer == self.endpoint_name or self.view.contains(peer):
                continue
            self._endpoint.send(
                peer,
                {
                    "probe": {
                        "view": self.view.to_dict(),
                        "order_seq": max(self._order_next, self._order_expected),
                    }
                },
            )

    def _on_probe(self, probe: Dict[str, Any]) -> None:
        if not self.running or self.view is None or not self.is_coordinator:
            return
        other_view = View.from_dict(probe["view"])
        if other_view.contains(self.endpoint_name):
            return  # they already count me in; let their view settle
        if self.endpoint_name > other_view.coordinator:
            return  # the smaller-id coordinator performs the merge
        merged_members = tuple(set(self.view.members) | set(other_view.members))
        merged = View(
            max(self.view.view_id, other_view.view_id) + 1, merged_members
        )
        self._order_next = max(self._order_next, int(probe["order_seq"]))
        self._broadcast_view(merged)

    def _arm_join_retry(self) -> None:
        def retry() -> None:
            self._timers.pop("join", None)  # fired: no longer a live handle
            if not self.running:
                return
            if self.view is not None and self.view.contains(self.endpoint_name):
                return
            peers = [
                p
                for p in self._directory.lookup(self.group)
                if p != self.endpoint_name
            ]
            if peers:
                self._send_join(peers)
                self._timers["join"] = self._loop.call_after(
                    JOIN_RETRY, retry, label="gcs-join"
                )
            else:
                self._install(View(1, (self.endpoint_name,)), order_seq=1)

        self._timers["join"] = self._loop.call_after(
            JOIN_RETRY, retry, label="gcs-join"
        )

    def _cancel_timers(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def _final_close(self) -> None:
        if not self.running:
            self._channel.close()
            # A rejoin within the drain attached a fresh member under the
            # same name; its endpoint is not this member's to detach.
            if self._network.endpoint(self.endpoint_name) is self._endpoint:
                self._network.detach(self.endpoint_name)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _check_failures(self) -> None:
        if self.view is None:
            return
        now = self._loop.clock.now
        timeout = None if self.adaptive_fd else self.fd_timeout
        newly_suspected = False
        for member in self.view.members:
            if member == self.endpoint_name or member in self._suspected:
                continue
            last = self._last_heard.get(member)
            if last is None:
                self._last_heard[member] = now
                continue
            if now - last > (timeout or self._timeout_for(member)):
                self._suspected.add(member)
                self.suspicions.append((now, member))
                newly_suspected = True
        if newly_suspected:
            self._handle_suspicions()

    def _timeout_for(self, member: str) -> float:
        """Suspicion threshold for ``member`` (fixed or adaptive)."""
        if not self.adaptive_fd:
            return self.fd_timeout
        stats = self._arrival_stats.get(member)
        if stats is None:
            return self.fd_timeout  # no samples yet: be conservative
        mean, _deviation = stats
        adaptive = ADAPTIVE_FACTOR * mean
        return min(self.fd_timeout, max(2 * self.hb_interval, adaptive))

    def _observe_heartbeat(self, member: str, now: float) -> None:
        """Fold the gap since ``member``'s last beat into the EWMA."""
        last = self._last_heard.get(member)
        if last is None:
            return
        interval = now - last
        mean, deviation = self._arrival_stats.get(
            member, (self.hb_interval, self.hb_interval / 2)
        )
        # Jacobson-style EWMA, the classic RTT estimator shape.
        deviation = 0.75 * deviation + 0.25 * abs(interval - mean)
        mean = 0.875 * mean + 0.125 * interval
        self._arrival_stats[member] = (mean, deviation)

    def _handle_suspicions(self) -> None:
        if self.view is None:
            return
        alive = [m for m in self.view.members if m not in self._suspected]
        if not alive or self.endpoint_name not in alive:
            # Everyone (or we ourselves) suspected: fall back to singleton.
            self._suspected.clear()
            self._install(
                View(self.view.view_id + 1, (self.endpoint_name,)),
                order_seq=self._order_expected,
            )
            return
        if alive[0] != self.endpoint_name:
            return  # wait for the surviving coordinator to act
        new_view = View(self.view.view_id + 1, tuple(alive))
        self._broadcast_view(new_view)

    # ------------------------------------------------------------------
    # View installation
    # ------------------------------------------------------------------
    def _broadcast_view(self, new_view: View) -> None:
        order_seq = max(self._order_next, self._order_expected)
        probe = self._loop.probe
        traced = nullcontext() if probe is None else probe.span(
            "gcs.view_broadcast",
            self.node_id,
            {
                "group": self.group,
                "view_id": new_view.view_id,
                "members": new_view.size,
            },
        )
        with traced:
            for member in new_view.members:
                if member == self.endpoint_name:
                    continue
                self._channel.send(
                    member,
                    {"t": "VIEW", "view": new_view.to_dict(), "order_seq": order_seq},
                )
            self._install(new_view, order_seq)

    def _install(self, new_view: View, order_seq: int) -> None:
        probe = self._loop.probe
        old_view = self.view
        if old_view is not None and new_view.view_id <= old_view.view_id:
            # Mutant: re-install stale/duplicate views instead of ignoring.
            if not (
                probe is not None
                and probe.mutated("accept_stale_views", self.endpoint_name)
            ):
                return
        if not new_view.contains(self.endpoint_name):
            return
        self.view = new_view
        self._peers = [m for m in new_view.members if m != self.endpoint_name]
        now = self._loop.clock.now
        change = ViewChange.between(old_view, new_view)
        if probe is not None:
            probe.view_install(
                self.endpoint_name,
                self._channel.incarnation,
                self.group,
                new_view.view_id,
                new_view.members,
                order_seq,
                tuple(change.joined),
                tuple(change.left),
            )
        for member in new_view.members:
            self._last_heard.setdefault(member, now)
            # Grace period after install so slow heartbeats don't re-suspect.
            self._last_heard[member] = max(self._last_heard[member], now)
        self._suspected &= set(new_view.members)
        for gone in sorted(change.left):
            self._channel.cancel_to(gone)
            self._last_heard.pop(gone, None)
        # Frames sequenced under an older view belong to a sequencer the
        # new view no longer follows (its numbers restart at order_seq).
        for seq in [
            s for s, entry in self._order_buffer.items() if entry[2] < new_view.view_id
        ]:
            del self._order_buffer[seq]
        # Sync total-order cursor past anything the new sequencer won't resend.
        if order_seq > self._order_expected:
            self._order_expected = order_seq
            for seq in [s for s in self._order_buffer if s < order_seq]:
                del self._order_buffer[seq]
            self._drain_order_buffer()
        self._order_next = max(self._order_next, order_seq)
        # Joiners learn this sender's FIFO position. A joiner's own cursor
        # stays: a fresh incarnation starts from 1 anyway, and a member
        # re-admitted here may never have seen this node drop it.
        joiners = sorted(change.joined - {self.endpoint_name})
        for joiner in joiners:
            if probe is not None and probe.mutated(
                "fifo_cursor_reset", self.endpoint_name
            ):
                # Mutant: restart the joiner's cursor at 1 whatever its
                # incarnation has already sent.
                self._fifo_expected[joiner] = 1
            self._channel.send(
                joiner,
                {
                    "t": "SYNC",
                    "fifo_seq": self._fifo_seq,
                    "inc": self._channel.incarnation,
                },
            )
        traced = nullcontext() if probe is None else probe.span(
            "gcs.view_change",
            self.node_id,
            {
                "group": self.group,
                "view_id": new_view.view_id,
                "members": new_view.size,
                "joined": len(change.joined),
                "left": len(change.left),
            },
        )
        with traced:
            for listener in list(self.view_listeners):
                listener(change)
        # Frames the joiners sent before this view admitted them.
        for joiner in joiners:
            self._drain_fifo(joiner)

    def _send_join(self, peers: List[str]) -> None:
        for peer in peers:
            self._channel.send(peer, {"t": "JOIN", "member": self.endpoint_name})

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def _on_network(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, dict) and "hb" in payload:
            now = self._loop.clock.now
            if self.adaptive_fd:
                self._observe_heartbeat(payload["hb"], now)
            self._last_heard[payload["hb"]] = now
            return
        if isinstance(payload, dict) and "probe" in payload:
            self._on_probe(payload["probe"])
            return
        self._channel.handle_raw(message)

    def _on_channel(self, sender: str, body: Dict[str, Any]) -> None:
        if not self.running:
            return
        kind = body.get("t")
        if kind == "JOIN":
            self._on_join(body["member"])
        elif kind == "LEAVE":
            self._on_leave(body["member"])
        elif kind == "VIEW":
            probe = self._loop.probe
            if (
                # Mutant: ignore later views, delivering under a stale one.
                probe is not None
                and probe.mutated("skip_view_install", self.endpoint_name)
                and self.view is not None
            ):
                return
            self._install(View.from_dict(body["view"]), body["order_seq"])
        elif kind == "SYNC":
            self._on_sync(sender, body["inc"], body["fifo_seq"])
        elif kind == "FIFO":
            self._on_fifo(sender, body["inc"], body["seq"], body["body"])
        elif kind == "TOSEND":
            if self.is_coordinator:
                self._sequence(body["origin"], body["body"])
        elif kind == "ORDERED":
            self._on_ordered(body["seq"], body["origin"], body["body"], body["view"])

    def _on_join(self, joiner: str) -> None:
        if self.view is None or not self.is_coordinator:
            return
        if self.view.contains(joiner):
            # Re-send the current view: the joiner's earlier VIEW was lost.
            self._channel.send(
                joiner,
                {
                    "t": "VIEW",
                    "view": self.view.to_dict(),
                    "order_seq": self._order_next,
                },
            )
            return
        self._broadcast_view(self.view.with_member(joiner))

    def _on_leave(self, leaver: str) -> None:
        if self.view is None or not self.is_coordinator:
            return
        if not self.view.contains(leaver):
            return
        self._broadcast_view(self.view.without(leaver))

    # ------------------------------------------------------------------
    # FIFO delivery
    # ------------------------------------------------------------------
    def _current_stream(self, sender: str, incarnation: int) -> bool:
        """Is ``incarnation`` the sender's live one? A newer incarnation
        replaces the cursor and everything held from the older one."""
        known = self._fifo_incarnation.get(sender)
        if known is not None and incarnation < known:
            return False  # a previous life's frame, still in flight
        if incarnation != known:
            self._fifo_incarnation[sender] = incarnation
            self._fifo_expected[sender] = 1
            self._fifo_buffer.pop(sender, None)
        return True

    def _on_sync(self, sender: str, incarnation: int, fifo_seq: int) -> None:
        """The sender's frames up to ``fifo_seq`` were not sent to this
        member: move the cursor past them, keeping anything newer."""
        if not self._current_stream(sender, incarnation):
            return
        if fifo_seq < self._fifo_expected[sender]:
            return
        self._fifo_expected[sender] = fifo_seq + 1
        buffered = self._fifo_buffer.get(sender)
        if buffered:
            for seq in [s for s in buffered if s <= fifo_seq]:
                del buffered[seq]
        self._drain_fifo(sender)

    def _on_fifo(self, sender: str, incarnation: int, seq: int, payload: Any) -> None:
        if not self._current_stream(sender, incarnation):
            return
        probe = self._loop.probe
        if probe is not None and probe.mutated(
            "fifo_eager_delivery", self.endpoint_name
        ):
            # Mutant: deliver on arrival, skipping the reorder buffer.
            self._deliver(sender, payload, kind="fifo", seq=seq)
            self._fifo_expected[sender] = max(self._fifo_expected[sender], seq + 1)
            return
        if seq < self._fifo_expected[sender]:
            return  # duplicate
        self._fifo_buffer.setdefault(sender, {})[seq] = payload
        self._drain_fifo(sender)

    def _drain_fifo(self, sender: str) -> None:
        """Deliver ``sender``'s frames in order while it is in the view."""
        buffered = self._fifo_buffer.get(sender)
        view = self.view
        if not buffered or view is None or sender not in view.members:
            return
        seq = self._fifo_expected[sender]
        while seq in buffered:
            # The cursor moves first: a listener that raises must not
            # leave the next frame waiting on this one.
            self._fifo_expected[sender] = seq + 1
            self._deliver(sender, buffered.pop(seq), kind="fifo", seq=seq)
            seq += 1

    # ------------------------------------------------------------------
    # Total-order delivery
    # ------------------------------------------------------------------
    def _sequence(self, origin: str, payload: Any) -> None:
        seq = self._order_next
        self._order_next = seq + 1
        assert self.view is not None
        view_id = self.view.view_id
        frame = {
            "t": "ORDERED",
            "seq": seq,
            "origin": origin,
            "body": payload,
            "view": view_id,
        }
        for member in self.view.members:
            if member != self.endpoint_name:
                self._channel.send(member, frame)
        self._on_ordered(seq, origin, payload, view_id)

    def _on_ordered(self, seq: int, origin: str, payload: Any, view_id: int) -> None:
        if seq < self._order_expected:
            return
        if self.view is not None and view_id < self.view.view_id:
            return  # sequenced before the view this member now follows
        self._order_buffer[seq] = (origin, payload, view_id)
        self._drain_order_buffer()

    def _drain_order_buffer(self) -> None:
        probe = self._loop.probe
        if probe is not None and probe.mutated("drain_with_holes", self.endpoint_name):
            # Mutant: drain everything buffered, skipping over gaps.
            for seq in sorted(self._order_buffer):
                origin, payload, _view_id = self._order_buffer.pop(seq)
                self._order_expected = max(self._order_expected, seq + 1)
                self._order_next = max(self._order_next, self._order_expected)
                self._deliver(origin, payload, kind="total", seq=seq)
            return
        while self._order_expected in self._order_buffer:
            seq = self._order_expected
            origin, payload, _view_id = self._order_buffer.pop(seq)
            self._order_expected += 1
            self._order_next = max(self._order_next, self._order_expected)
            self._deliver(origin, payload, kind="total", seq=seq)

    # ------------------------------------------------------------------
    def _deliver(
        self,
        sender: str,
        payload: Any,
        kind: str = "fifo",
        seq: Optional[int] = None,
    ) -> None:
        probe = self._loop.probe
        if probe is not None:
            view = self.view
            probe.deliver(
                self.endpoint_name,
                self._channel.incarnation,
                self.group,
                kind,
                sender,
                seq,
                payload,
                None if view is None else view.view_id,
                () if view is None else view.members,
            )
        self.delivered_count += 1
        for listener in list(self.message_listeners):
            listener(sender, payload)

    def __repr__(self) -> str:
        return "GroupMember(%s, %s, %s)" % (
            self.endpoint_name,
            self.view,
            "running" if self.running else "stopped",
        )

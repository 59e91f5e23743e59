"""Membership edge cases: join retries across partitions, leave races,
and reliable-channel corner paths (closed sends, stale-incarnation acks,
retry give-up) that the mainline suites don't reach.
"""

import pytest

from repro.gcs.channel import RTO, ReliableChannel
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


@pytest.fixture
def directory():
    return GroupDirectory()


def make_member(name, loop, network, directory, **kwargs):
    return GroupMember(name, "g", loop, network, directory, **kwargs)


def form_group(loop, network, directory, names):
    members = []
    for name in names:
        member = make_member(name, loop, network, directory)
        members.append(member)
        member.join()
        loop.run_for(0.5)
    loop.run_for(1.0)
    return members


class TestJoinRetryDuringPartition:
    def test_joiner_keeps_retrying_and_is_admitted_after_heal(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        network.partition({"gcs/g/n1", "gcs/g/n2"}, {"gcs/g/n3"})
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(5.0)
        # The directory lists peers, so the joiner must NOT give up and
        # install a singleton view — it retries JOIN across the partition.
        assert joiner.view is None or not joiner.is_coordinator
        assert "gcs/g/n3" not in members[0].view.members
        network.heal()
        loop.run_for(5.0)
        assert members[0].view.members == ("gcs/g/n1", "gcs/g/n2", "gcs/g/n3")
        assert joiner.view == members[0].view

    def test_joiner_alone_after_peers_deregister_installs_singleton(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        network.partition({"gcs/g/n1", "gcs/g/n2"}, {"gcs/g/n3"})
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(1.0)
        # Both peers leave (deregistering) while still unreachable: the
        # next retry finds an empty directory and self-installs.
        for member in members:
            member.leave()
        loop.run_for(5.0)
        assert joiner.view is not None
        assert joiner.view.members == ("gcs/g/n3",)
        assert joiner.is_coordinator

    def test_leave_before_admission_stops_retries(
        self, loop, network, directory
    ):
        form_group(loop, network, directory, ["n1"])
        network.partition({"gcs/g/n1"}, {"gcs/g/n2"})
        joiner = make_member("n2", loop, network, directory)
        joiner.join()
        loop.run_for(1.0)
        joiner.leave()
        network.heal()
        loop.run_for(5.0)
        # The aborted join must leave no trace: not registered, no view.
        assert directory.lookup("g") == ["gcs/g/n1"]
        assert joiner.view is None


class TestLeaveDuringViewBroadcast:
    def test_member_leaves_while_join_view_is_in_flight(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        # No run_for: n2's LEAVE races the coordinator's VIEW broadcast
        # for n3's admission.
        members[1].leave()
        loop.run_for(10.0)
        survivors = [members[0], joiner]
        views = {m.view for m in survivors}
        assert len(views) == 1
        assert views.pop().members == ("gcs/g/n1", "gcs/g/n3")

    def test_coordinator_leaves_while_its_own_broadcast_is_in_flight(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2", "n3"])
        joiner = make_member("n4", loop, network, directory)
        joiner.join()
        members[0].leave()  # coordinator departs mid-admission
        loop.run_for(15.0)
        survivors = [members[1], members[2], joiner]
        views = {m.view for m in survivors}
        assert len(views) == 1
        view = views.pop()
        assert "gcs/g/n1" not in view.members
        assert set(view.members) >= {"gcs/g/n2", "gcs/g/n3"}
        coordinators = [m for m in survivors if m.is_coordinator]
        assert len(coordinators) == 1

    def test_stale_directory_entry_is_harmless_to_joiners(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        # A crash leaves the directory entry behind (no deregistration) —
        # the docstring's "stale entry is harmless" claim, tested.
        members[1].crash()
        assert "gcs/g/n2" in directory.lookup("g")
        loop.run_for(10.0)  # failure detection shrinks the view
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(5.0)
        assert members[0].view.members == ("gcs/g/n1", "gcs/g/n3")
        assert joiner.view == members[0].view


class TestChannelEdges:
    def make_channel(self, loop, network, name, inbox):
        endpoint = network.attach(name, lambda m: channel.handle_raw(m))
        channel = ReliableChannel(
            name, endpoint, loop,
            lambda sender, body: inbox.append((sender, body)),
        )
        return channel

    def test_send_on_closed_channel_returns_sentinel(self, loop, network):
        channel = self.make_channel(loop, network, "a", [])
        channel.close()
        assert channel.send("b", "x") == -1
        assert channel.pending_count == 0

    def test_cancel_to_drops_only_that_destination(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.99)
        channel = self.make_channel(loop, network, "a", [])
        network.attach("b", lambda m: None)
        network.attach("c", lambda m: None)
        channel.send("b", "x")
        channel.send("b", "y")
        keep = channel.send("c", "z")
        channel.cancel_to("b")
        assert channel.pending_count == 1
        assert keep in channel._pending

    def test_stale_incarnation_ack_is_ignored(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.99)
        channel = self.make_channel(loop, network, "a", [])
        network.attach("b", lambda m: None)
        msg_id = channel.send("b", "x")
        channel._on_ack({"id": msg_id, "inc": channel.incarnation - 1})
        assert channel.pending_count == 1  # previous life's ack: ignored
        channel._on_ack({"id": msg_id, "inc": channel.incarnation})
        assert channel.pending_count == 0

    def test_retries_give_up_after_max_attempts(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.0)
        channel = self.make_channel(loop, network, "a", [])
        # Destination never attached: every transmit is dropped silently.
        channel.send("ghost", "x")
        loop.run_for(ReliableChannel.MAX_RETRIES * RTO + 1.0)
        assert channel.pending_count == 0
        assert channel.retransmits == ReliableChannel.MAX_RETRIES - 1

    def test_non_channel_traffic_is_not_consumed(self, loop, network):
        inbox = []
        channel = self.make_channel(loop, network, "a", inbox)

        class FakeMessage:
            source = "b"
            payload = {"other": 1}

        assert channel.handle_raw(FakeMessage()) is False
        assert inbox == []


class TestTimerHandles:
    """``_timers`` holds live handles only: it used to gain one dead
    ``ScheduledEvent`` per heartbeat for the life of the member."""

    def test_ten_thousand_beats_keep_at_most_two_handles(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        loop.run_for(1000.0)
        for member in members:
            assert member._beat_count >= 10_000
            assert len(member._timers) <= 2
            assert all(not timer.cancelled for timer in member._timers.values())

    def test_leave_cancels_the_pending_beat(self, loop, network, directory):
        members = form_group(loop, network, directory, ["n1", "n2"])
        leaver = members[1]
        leaver.leave()
        assert leaver._timers == {}
        beats = leaver._beat_count
        loop.run_for(5.0)
        assert leaver._beat_count == beats
        assert members[0].view.members == ("gcs/g/n1",)

    def test_crash_cancels_the_pending_beat_and_join_retry(
        self, loop, network, directory
    ):
        form_group(loop, network, directory, ["n1"])
        network.partition({"gcs/g/n1"}, {"gcs/g/n2"})
        joiner = make_member("n2", loop, network, directory)
        joiner.join()
        loop.run_for(0.75)  # one retry has fired and re-armed
        assert sorted(joiner._timers) == ["hb", "join"]
        pending = loop.pending
        joiner.crash()
        assert joiner._timers == {}
        # Exactly the beat and the retry left the queue (the reliable
        # channel cancels its own retransmissions on top of that).
        assert loop.pending <= pending - 2
        beats = joiner._beat_count
        network.heal()
        loop.run_for(5.0)
        assert joiner._beat_count == beats
        assert joiner.view is None

    def test_admitted_joiner_drops_its_fired_retry_handle(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        loop.run_for(2.0)
        assert [sorted(member._timers) for member in members] == [["hb"], ["hb"]]


class TestHeartbeatPayload:
    def test_one_payload_object_reaches_every_peer_unchanged(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2", "n3"])
        seen = {}
        for member in members:
            endpoint = network.endpoint(member.endpoint_name)
            inner = endpoint._handler

            def tap(message, inner=inner):
                payload = message.payload
                if isinstance(payload, dict) and "hb" in payload:
                    assert payload == {"hb": message.source}
                    seen.setdefault(message.source, set()).add(id(payload))
                inner(message)
                if isinstance(payload, dict) and "hb" in payload:
                    assert payload == {"hb": message.source}

            endpoint._handler = tap
        loop.run_for(20.0)
        # ~200 beats x 2 peers per sender, all carrying the same dict.
        assert {source: len(ids) for source, ids in seen.items()} == {
            member.endpoint_name: 1 for member in members
        }
        assert all(member.view.size == 3 for member in members)


class TestListenerErrors:
    """A raising listener is counted, not silently swallowed, and does
    not keep the other listeners from running."""

    def test_message_listeners_after_a_raising_one_still_run_in_order(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        receiver = members[1]
        calls = []

        def bad(sender, payload):
            calls.append(("bad", payload))
            raise RuntimeError("listener bug")

        receiver.message_listeners.append(lambda s, p: calls.append(("first", p)))
        receiver.message_listeners.append(bad)
        receiver.message_listeners.append(lambda s, p: calls.append(("last", p)))
        for index in range(3):
            members[0].multicast(index, total_order=(index == 1))
        loop.run_for(1.0)
        assert calls == [
            (who, index) for index in range(3) for who in ("first", "bad", "last")
        ]
        assert loop.errors == {"gcs.listener/n2": 3}
        assert receiver.delivered_count == 3

    def test_view_listeners_after_a_raising_one_still_run(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        seen = []

        def bad(change):
            raise RuntimeError("listener bug")

        members[0].view_listeners.append(bad)
        members[0].view_listeners.append(lambda change: seen.append(change.view))
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(2.0)
        assert [view.size for view in seen] == [3]
        assert loop.errors == {"gcs.listener/n1": 1}
        assert members[0].view == joiner.view

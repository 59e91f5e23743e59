"""Membership: joins, graceful leaves, crashes, coordinator succession."""

import pytest

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


def converge(loop, duration=2.0):
    loop.run_for(duration)


def test_first_member_installs_singleton_view(loop, network, directory):
    m = make_member("n1", loop, network, directory)
    m.join()
    assert m.view is not None
    assert m.view.members == ("gcs/g/n1",)
    assert m.is_coordinator


def test_three_members_converge_to_same_view(loop, network, directory):
    members = [make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3)]
    for m in members:
        m.join()
        converge(loop, 0.5)
    views = {m.view for m in members}
    assert len(views) == 1
    assert members[0].view.size == 3


def test_coordinator_is_lowest_endpoint(loop, network, directory):
    members = [make_member("n%d" % i, loop, network, directory) for i in (2, 1, 3)]
    for m in members:
        m.join()
        converge(loop, 0.5)
    coordinators = [m.is_coordinator for m in sorted(members, key=lambda x: x.node_id)]
    assert coordinators == [True, False, False]


def test_graceful_leave_shrinks_view(loop, network, directory):
    m1 = make_member("n1", loop, network, directory)
    m2 = make_member("n2", loop, network, directory)
    m1.join()
    converge(loop, 0.5)
    m2.join()
    converge(loop, 0.5)
    m2.leave()
    converge(loop, 2.0)
    assert m1.view.members == ("gcs/g/n1",)
    # graceful departure: no suspicion recorded at the survivor
    assert m1.suspicions == []


def test_leaving_coordinator_hands_over(loop, network, directory):
    m1 = make_member("n1", loop, network, directory)
    m2 = make_member("n2", loop, network, directory)
    m1.join()
    converge(loop, 0.5)
    m2.join()
    converge(loop, 0.5)
    m1.leave()  # n1 is the coordinator
    converge(loop, 2.0)
    assert m2.view.members == ("gcs/g/n2",)
    assert m2.is_coordinator


def test_crash_detected_and_view_shrinks(loop, network, directory):
    members = [make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3)]
    for m in members:
        m.join()
        converge(loop, 0.5)
    members[2].crash()
    converge(loop, 3.0)
    assert members[0].view.members == ("gcs/g/n1", "gcs/g/n2")
    assert members[1].view.members == ("gcs/g/n1", "gcs/g/n2")
    assert any(s[1] == "gcs/g/n3" for s in members[0].suspicions)


def test_coordinator_crash_successor_takes_over(loop, network, directory):
    members = [make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3)]
    for m in members:
        m.join()
        converge(loop, 0.5)
    members[0].crash()
    converge(loop, 3.0)
    assert members[1].is_coordinator
    assert members[1].view.size == 2


def test_simultaneous_crashes_handled(loop, network, directory):
    members = [
        make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3, 4, 5)
    ]
    for m in members:
        m.join()
        converge(loop, 0.5)
    members[0].crash()
    members[2].crash()
    converge(loop, 4.0)
    survivors = [members[1], members[3], members[4]]
    for m in survivors:
        assert m.view.members == ("gcs/g/n2", "gcs/g/n4", "gcs/g/n5")


def test_join_delivers_view_change_with_joined_set(loop, network, directory):
    m1 = make_member("n1", loop, network, directory)
    changes = []
    m1.view_listeners.append(changes.append)
    m1.join()
    converge(loop, 0.5)
    m2 = make_member("n2", loop, network, directory)
    m2.join()
    converge(loop, 1.0)
    assert changes[-1].joined == {"gcs/g/n2"}


def test_rejoin_after_leave(loop, network, directory):
    m1 = make_member("n1", loop, network, directory)
    m2 = make_member("n2", loop, network, directory)
    m1.join()
    converge(loop, 0.5)
    m2.join()
    converge(loop, 0.5)
    m2.leave()
    converge(loop, 2.0)
    m2b = make_member("n2b", loop, network, directory)
    m2b.join()
    converge(loop, 1.0)
    assert m1.view.size == 2
    assert m2b.view.size == 2


def test_convergence_under_loss(directory):
    loop = EventLoop()
    network = Network(loop, RngStreams(17), loss_rate=0.15)
    members = [make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3)]
    for m in members:
        m.join()
        loop.run_for(1.0)
    loop.run_for(3.0)
    views = {m.view for m in members}
    assert len(views) == 1


def test_multicast_before_join_raises(loop, network, directory):
    m = make_member("n1", loop, network, directory)
    with pytest.raises(RuntimeError):
        m.multicast("too-early")


def test_partition_shrinks_both_sides(loop, network, directory):
    members = [make_member("n%d" % i, loop, network, directory) for i in (1, 2, 3)]
    for m in members:
        m.join()
        converge(loop, 0.5)
    network.partition_nodes({"n1", "n2"}, {"n3"})
    converge(loop, 3.0)
    assert members[0].view.members == ("gcs/g/n1", "gcs/g/n2")
    assert members[2].view.members == ("gcs/g/n3",)

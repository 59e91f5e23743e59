"""jGCS-style facade: Protocol → Data/Control sessions.

The paper cites jGCS [3] as the GCS interface. jGCS splits group
communication into a *data session* (send/receive) and a *control session*
(join/leave/membership), both obtained from a *protocol* configured with a
*group configuration*. This module mirrors that shape over
:class:`~repro.gcs.member.GroupMember` so higher layers (the Migration
Module) are written against the published API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.gcs.view import View, ViewChange
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network


@dataclass(frozen=True)
class GroupConfiguration:
    """Names the group and tunes the protocol timers."""

    group: str
    hb_interval: float = 0.1
    fd_timeout: float = 1.0
    adaptive_fd: bool = False


class Protocol:
    """Factory of sessions for one node; the jGCS entry point."""

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: Network,
        directory: GroupDirectory,
    ) -> None:
        self.node_id = node_id
        self._loop = loop
        self._network = network
        self._directory = directory
        self._members: Dict[str, GroupMember] = {}

    def _member(self, config: GroupConfiguration) -> GroupMember:
        member = self._members.get(config.group)
        if member is not None and member.ever_joined and not member.running:
            # A left/crashed member cannot be revived (its channel and
            # endpoint are gone); release its endpoint name and build a
            # fresh member — a rejoin is a new incarnation. (A member that
            # merely hasn't joined *yet* is kept: paired data/control
            # sessions must share it.)
            member.crash()
            self._members.pop(config.group, None)
            member = None
        if member is None:
            member = GroupMember(
                self.node_id,
                config.group,
                self._loop,
                self._network,
                self._directory,
                hb_interval=config.hb_interval,
                fd_timeout=config.fd_timeout,
                adaptive_fd=config.adaptive_fd,
            )
            self._members[config.group] = member
        return member

    def create_data_session(self, config: GroupConfiguration) -> "DataSession":
        return DataSession(self._member(config))

    def create_control_session(self, config: GroupConfiguration) -> "ControlSession":
        return ControlSession(self._member(config))

    def crash(self) -> None:
        """Fail-stop every session of this node (used by fault injection)."""
        for member in self._members.values():
            member.crash()

    def members(self) -> List[GroupMember]:
        """Snapshot of this node's group members, sorted by group name.

        Read-only introspection surface for invariant checkers and the
        fault injector (clock-skew perturbs member timers through it).
        """
        return [self._members[g] for g in sorted(self._members)]

    def __repr__(self) -> str:
        return "Protocol(%s, groups=%s)" % (self.node_id, sorted(self._members))


class DataSession:
    """Message sending and reception for one group."""

    def __init__(self, member: GroupMember) -> None:
        self._member = member

    def multicast(self, payload: Any, total_order: bool = False) -> None:
        self._member.multicast(payload, total_order=total_order)

    def set_message_listener(self, listener: Callable[[str, Any], None]) -> None:
        if listener not in self._member.message_listeners:
            self._member.message_listeners.append(listener)

    def remove_message_listener(self, listener: Callable[[str, Any], None]) -> None:
        if listener in self._member.message_listeners:
            self._member.message_listeners.remove(listener)

    @property
    def delivered_count(self) -> int:
        return self._member.delivered_count


class ControlSession:
    """Membership control for one group."""

    def __init__(self, member: GroupMember) -> None:
        self._member = member

    def join(self) -> None:
        self._member.join()

    def leave(self) -> None:
        self._member.leave()

    @property
    def joined(self) -> bool:
        return self._member.running

    @property
    def current_view(self) -> Optional[View]:
        return self._member.view

    @property
    def local_id(self) -> str:
        return self._member.endpoint_name

    @property
    def is_coordinator(self) -> bool:
        return self._member.is_coordinator

    def set_membership_listener(
        self, listener: Callable[[ViewChange], None]
    ) -> None:
        if listener not in self._member.view_listeners:
            self._member.view_listeners.append(listener)

    def remove_membership_listener(
        self, listener: Callable[[ViewChange], None]
    ) -> None:
        if listener in self._member.view_listeners:
            self._member.view_listeners.remove(listener)

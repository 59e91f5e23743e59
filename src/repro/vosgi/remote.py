"""Figure 1 made real: per-process instances managed over the network.

The paper's first architecture runs "multiple OSGi instances, each one on
its own JVM", with an external Instance Manager that "must rely on
communication methods like RMI, JMX, or TCP/IP connections".

:class:`RemoteInstanceHost` is one such JVM: a framework attached to the
simulated network that executes management commands it receives.
:class:`RemoteInstanceManager` is the external manager: every operation is
a request/reply over the network and completes after the round trip —
so the management indirection the paper complains about is *measured* (by
the FIG1 benchmark) rather than assumed.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.future import Completion
from repro.osgi.bundle import BundleState
from repro.osgi.definition import BundleDefinition
from repro.osgi.errors import OSGiError
from repro.osgi.framework import Framework
from repro.sim.eventloop import EventLoop
from repro.sim.network import Message, Network
from repro.telemetry.tracer import Span


class RemoteInstanceHost:
    """One customer's dedicated process ("JVM"), remotely managed."""

    def __init__(self, name: str, loop: EventLoop, network: Network) -> None:
        self.name = name
        self.loop = loop
        self.endpoint_name = "jvm/%s" % name
        self._endpoint = network.attach(self.endpoint_name, self._on_message)
        self.framework = Framework("jvm:%s" % name)
        #: Definitions installable by location, the host's local "disk".
        self.repository: Dict[str, BundleDefinition] = {}
        self.commands_served = 0

    def provision(self, location: str, definition: BundleDefinition) -> None:
        """Ship a bundle archive to the host (out-of-band, e.g. scp)."""
        self.repository[location] = definition

    def crash(self) -> None:
        self._endpoint.alive = False

    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, dict) or "cmd" not in payload:
            return
        self.commands_served += 1
        probe = self.loop.probe
        traced = nullcontext() if probe is None else probe.span(
            "rim.execute", self.name, {"command": payload["cmd"]}
        )
        with traced:
            reply: Dict[str, Any] = {"reply_to": payload["token"]}
            # The failures _execute raises by design (no archive, no
            # bundle, unknown command) and the documented errors of the
            # framework it drives (an inactive framework, a failing
            # activator, an unresolved import) become error replies;
            # anything else is a defect in the host and propagates.
            try:
                reply["result"] = self._execute(payload["cmd"], payload.get("args", {}))
                reply["ok"] = True
            except (KeyError, ValueError, OSGiError) as exc:
                reply["ok"] = False
                reply["error"] = str(exc)
            self._endpoint.send(message.source, reply)

    def _execute(self, command: str, args: Dict[str, Any]) -> Any:
        if command == "start-framework":
            self.framework.start()
            return True
        if command == "stop-framework":
            self.framework.stop()
            return True
        if command == "install":
            definition = self.repository.get(args["location"])
            if definition is None:
                raise KeyError("no archive at %s" % args["location"])
            bundle = self.framework.install(definition, args["location"])
            return bundle.bundle_id
        if command == "start-bundle":
            self._bundle(args["symbolic_name"]).start()
            return True
        if command == "stop-bundle":
            self._bundle(args["symbolic_name"]).stop()
            return True
        if command == "status":
            return {
                "active": self.framework.active,
                "bundles": {
                    b.symbolic_name: b.state.value for b in self.framework.bundles()
                },
            }
        raise ValueError("unknown command %r" % command)

    def _bundle(self, symbolic_name: str):
        bundle = self.framework.get_bundle_by_name(symbolic_name)
        if bundle is None:
            raise KeyError("no bundle %s" % symbolic_name)
        return bundle


class RemoteInstanceManager:
    """The external Instance Manager of Figure 1.

    Each call is a network round trip; the returned
    :class:`~repro.cluster.future.Completion` settles when the reply
    arrives (or fails on ``timeout``). Round-trip times are recorded in
    :attr:`round_trip_times` for the FIG1 benchmark.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        timeout: float = 5.0,
    ) -> None:
        self.loop = loop
        self.timeout = timeout
        self.endpoint_name = "instance-manager"
        self._endpoint = network.attach(self.endpoint_name, self._on_message)
        self._hosts: Dict[str, str] = {}  # instance name -> endpoint
        self._pending: Dict[int, "tuple[Completion, float]"] = {}
        self._spans: Dict[int, Span] = {}
        self._next_token = 1
        self.round_trip_times: List[float] = []

    # ------------------------------------------------------------------
    def register_host(self, host: RemoteInstanceHost) -> None:
        self._hosts[host.name] = host.endpoint_name

    def names(self) -> List[str]:
        return sorted(self._hosts)

    # ------------------------------------------------------------------
    def call(self, instance: str, command: str, **args: Any) -> Completion:
        """Issue one management command to ``instance``'s process."""
        endpoint = self._hosts.get(instance)
        if endpoint is None:
            raise KeyError("unknown instance %r" % instance)
        token = self._next_token
        self._next_token += 1
        completion: Completion = Completion("%s@%s" % (command, instance))
        sent_at = self.loop.clock.now
        self._pending[token] = (completion, sent_at)
        probe = self.loop.probe
        span = None
        if probe is not None:
            span = probe.start_span(
                "rim.call", attributes={"command": command, "instance": instance}
            )
        if span is not None:
            self._spans[token] = span
        with nullcontext() if probe is None else probe.activate(span):
            self._endpoint.send(
                endpoint, {"cmd": command, "args": args, "token": token}
            )

        def expire() -> None:
            if completion.done:
                return
            self._pending.pop(token, None)
            self._finish_span(token, ok=False)
            completion.fail(
                TimeoutError("%s to %s timed out" % (command, instance)),
                at=self.loop.clock.now,
            )

        self.loop.call_after(self.timeout, expire, label="rim-timeout")
        return completion

    # Convenience wrappers mirroring the embedded InstanceManager API.
    def start_framework(self, instance: str) -> Completion:
        return self.call(instance, "start-framework")

    def stop_framework(self, instance: str) -> Completion:
        return self.call(instance, "stop-framework")

    def install(self, instance: str, location: str) -> Completion:
        return self.call(instance, "install", location=location)

    def start_bundle(self, instance: str, symbolic_name: str) -> Completion:
        return self.call(instance, "start-bundle", symbolic_name=symbolic_name)

    def stop_bundle(self, instance: str, symbolic_name: str) -> Completion:
        return self.call(instance, "stop-bundle", symbolic_name=symbolic_name)

    def status(self, instance: str) -> Completion:
        return self.call(instance, "status")

    @property
    def mean_rtt(self) -> float:
        if not self.round_trip_times:
            return 0.0
        return sum(self.round_trip_times) / len(self.round_trip_times)

    def _finish_span(self, token: int, ok: bool) -> None:
        span = self._spans.pop(token, None)
        if span is not None:
            span.attributes["ok"] = ok
            span.finish(self.loop.clock.now)

    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, dict) or "reply_to" not in payload:
            return
        entry = self._pending.pop(payload["reply_to"], None)
        if entry is None:
            return  # late reply after timeout
        completion, sent_at = entry
        self._finish_span(payload["reply_to"], ok=bool(payload.get("ok")))
        self.round_trip_times.append(self.loop.clock.now - sent_at)
        if payload.get("ok"):
            completion.complete(payload.get("result"), at=self.loop.clock.now)
        else:
            completion.fail(
                RuntimeError(payload.get("error", "remote error")),
                at=self.loop.clock.now,
            )

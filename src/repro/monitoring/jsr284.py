"""The JSR-284 Resource Consumption Management model.

JSR-284 structures resource accounting around *resource attributes*
(what is being consumed: disposable or revocable, bounded or not),
*resource domains* (an accounting context a set of computations is bound
to) and *constraints* (callbacks consulted before consumption that may
deny or merely observe). This module implements that model; the platform
binds one domain per virtual instance and wires bundle ``account()`` calls
into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class ResourceAttributes:
    """Static description of a resource type.

    ``disposable`` resources are used up by consumption (CPU time);
    non-disposable ones are held and can be released (memory, disk).
    """

    name: str
    unit: str
    disposable: bool


#: CPU time consumed, in seconds. Disposable: once spent, never returned.
CPU_TIME = ResourceAttributes("cpu.time", "seconds", disposable=True)
#: Heap bytes currently held. Releasable by freeing.
HEAP_MEMORY = ResourceAttributes("heap.memory", "bytes", disposable=False)
#: Disk bytes currently held.
DISK_SPACE = ResourceAttributes("disk.space", "bytes", disposable=False)


class ConstraintViolation(Exception):
    """Raised when a denying constraint blocks a consumption request."""

    def __init__(self, domain: "ResourceDomain", requested: float) -> None:
        super().__init__(
            "domain %r denied %s of %s"
            % (domain.name, requested, domain.attributes.name)
        )
        self.domain = domain
        self.requested = requested


class Constraint:
    """A consumption gate on a domain.

    ``limit`` bounds total usage. ``hard=True`` constraints deny requests
    that would cross the limit (raising :class:`ConstraintViolation`);
    soft constraints allow them but invoke ``on_exceeded`` — the hook the
    Autonomic Module uses to learn about SLA overshoot without breaking the
    customer mid-operation. A hook that raises is counted in
    ``callback_errors``.
    """

    def __init__(
        self,
        limit: float,
        hard: bool = False,
        on_exceeded: Optional[Callable[["ResourceDomain", float], None]] = None,
    ) -> None:
        if limit < 0:
            raise ValueError("constraint limit must be >= 0")
        self.limit = limit
        self.hard = hard
        self.on_exceeded = on_exceeded
        self.violations = 0
        self.callback_errors = 0

    def admit(self, domain: "ResourceDomain", proposed_total: float) -> bool:
        """Return False (hard) or fire the callback (soft) on overshoot."""
        if proposed_total <= self.limit:
            return True
        self.violations += 1
        if self.on_exceeded is not None:
            try:
                self.on_exceeded(domain, proposed_total)
            except Exception:
                # A soft constraint never fails the consumption it admits.
                self.callback_errors += 1
        return not self.hard

    def __repr__(self) -> str:
        return "Constraint(limit=%s, %s, violations=%d)" % (
            self.limit,
            "hard" if self.hard else "soft",
            self.violations,
        )


class ResourceDomain:
    """An accounting context for one resource attribute.

    The platform creates one domain per (virtual instance, resource). All
    consumption flows through :meth:`consume` / :meth:`release`, where
    constraints are consulted in registration order.
    """

    def __init__(self, name: str, attributes: ResourceAttributes) -> None:
        self.name = name
        self.attributes = attributes
        self._usage = 0.0
        self._constraints: List[Constraint] = []
        self._usage_listeners: List[Callable[["ResourceDomain", float], None]] = []

    @property
    def usage(self) -> float:
        """Current usage: cumulative for disposable, level for releasable."""
        return self._usage

    def add_constraint(self, constraint: Constraint) -> None:
        self._constraints.append(constraint)

    def remove_constraint(self, constraint: Constraint) -> None:
        if constraint in self._constraints:
            self._constraints.remove(constraint)

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def add_usage_listener(
        self, listener: Callable[["ResourceDomain", float], None]
    ) -> None:
        self._usage_listeners.append(listener)

    def consume(self, quantity: float) -> None:
        """Account ``quantity`` more usage, subject to constraints."""
        if quantity < 0:
            raise ValueError("consume() takes a non-negative quantity")
        proposed = self._usage + quantity
        for constraint in self._constraints:
            if not constraint.admit(self, proposed):
                raise ConstraintViolation(self, quantity)
        self._usage = proposed
        self._notify()

    def release(self, quantity: float) -> None:
        """Give back ``quantity`` of a non-disposable resource."""
        if self.attributes.disposable:
            raise ValueError(
                "%s is disposable and cannot be released" % self.attributes.name
            )
        if quantity < 0:
            raise ValueError("release() takes a non-negative quantity")
        self._usage = max(0.0, self._usage - quantity)
        self._notify()

    def _notify(self) -> None:
        for listener in list(self._usage_listeners):
            listener(self, self._usage)

    def __repr__(self) -> str:
        return "ResourceDomain(%s, %s=%.3f%s)" % (
            self.name,
            self.attributes.name,
            self._usage,
            self.attributes.unit,
        )


class DomainRegistry:
    """All domains of one node, keyed by (owner, resource name)."""

    def __init__(self) -> None:
        self._domains: Dict[str, ResourceDomain] = {}

    def domain(self, owner: str, attributes: ResourceAttributes) -> ResourceDomain:
        key = "%s/%s" % (owner, attributes.name)
        existing = self._domains.get(key)
        if existing is None:
            existing = ResourceDomain(key, attributes)
            self._domains[key] = existing
        return existing

    def domains_of(self, owner: str) -> List[ResourceDomain]:
        prefix = owner + "/"
        return [d for k, d in sorted(self._domains.items()) if k.startswith(prefix)]

    def drop_owner(self, owner: str) -> None:
        prefix = owner + "/"
        for key in [k for k in self._domains if k.startswith(prefix)]:
            del self._domains[key]

    def __repr__(self) -> str:
        return "DomainRegistry(%d domains)" % len(self._domains)

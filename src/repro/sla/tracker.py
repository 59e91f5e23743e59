"""SLA compliance tracking.

The tracker consumes two streams:

* usage reports (resource-cap compliance) from Monitoring Modules, and
* up/down transitions (availability) — fed by the environment from
  deployment and migration records.

and answers, per customer: resource violation counts, accumulated
downtime, measured availability, and whether the availability target was
met over the observed window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.monitoring.monitor import UsageReport
from repro.sla.agreement import ServiceLevelAgreement


@dataclass(frozen=True)
class SlaViolation:
    """One detected violation of a customer's SLA."""

    customer: str
    at: float
    kind: str  # "cpu" | "memory" | "disk" | "availability"
    observed: float
    limit: float

    def __str__(self) -> str:
        return "SlaViolation(%s %s: %.4f > %.4f @%.2f)" % (
            self.customer,
            self.kind,
            self.observed,
            self.limit,
            self.at,
        )


@dataclass
class _CustomerTimeline:
    sla: ServiceLevelAgreement
    observed_from: float
    up: bool = False
    last_transition: float = 0.0
    downtime: float = 0.0
    violations: List[SlaViolation] = field(default_factory=list)


@dataclass(frozen=True)
class ComplianceReport:
    """Per-customer SLA verdict over the observed window."""

    customer: str
    window: float
    downtime: float
    availability: float
    availability_target: float
    cpu_violations: int
    memory_violations: int
    disk_violations: int

    @property
    def availability_met(self) -> bool:
        return self.availability >= self.availability_target

    def __str__(self) -> str:
        return (
            "ComplianceReport(%s: avail=%.4f target=%.4f %s, "
            "cpu=%d mem=%d disk=%d violations)"
            % (
                self.customer,
                self.availability,
                self.availability_target,
                "MET" if self.availability_met else "MISSED",
                self.cpu_violations,
                self.memory_violations,
                self.disk_violations,
            )
        )


class SlaTracker:
    """Tracks every registered SLA against observed behaviour."""

    def __init__(self) -> None:
        self._customers: Dict[str, _CustomerTimeline] = {}

    # ------------------------------------------------------------------
    def register(self, sla: ServiceLevelAgreement, at: float, up: bool = False) -> None:
        self._customers[sla.customer] = _CustomerTimeline(
            sla=sla, observed_from=at, up=up, last_transition=at
        )

    def known(self, customer: str) -> bool:
        return customer in self._customers

    def customer_names(self) -> List[str]:
        return sorted(self._customers)

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def observe_report(self, report: UsageReport) -> List[SlaViolation]:
        """Check one usage report; returns the violations it triggered."""
        timeline = self._customers.get(report.instance)
        if timeline is None:
            return []
        found: List[SlaViolation] = []
        if report.cpu_violation:
            found.append(
                SlaViolation(
                    report.instance,
                    report.at,
                    "cpu",
                    report.cpu_share,
                    timeline.sla.cpu_share,
                )
            )
        if report.memory_violation:
            found.append(
                SlaViolation(
                    report.instance,
                    report.at,
                    "memory",
                    float(report.memory_bytes or 0),
                    float(timeline.sla.memory_bytes),
                )
            )
        if report.disk_violation:
            found.append(
                SlaViolation(
                    report.instance,
                    report.at,
                    "disk",
                    float(report.disk_bytes or 0),
                    float(timeline.sla.disk_bytes),
                )
            )
        timeline.violations.extend(found)
        return found

    def mark_up(self, customer: str, at: float) -> None:
        timeline = self._customers.get(customer)
        if timeline is None or timeline.up:
            return
        timeline.downtime += at - timeline.last_transition
        timeline.up = True
        timeline.last_transition = at

    def mark_down(self, customer: str, at: float) -> None:
        timeline = self._customers.get(customer)
        if timeline is None or not timeline.up:
            return
        timeline.up = False
        timeline.last_transition = at

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def report(self, customer: str, now: float) -> ComplianceReport:
        timeline = self._customers.get(customer)
        if timeline is None:
            raise KeyError("no SLA registered for %r" % customer)
        downtime = timeline.downtime
        if not timeline.up:
            downtime += now - timeline.last_transition
        window = max(now - timeline.observed_from, 1e-9)
        availability = max(0.0, 1.0 - downtime / window)
        kinds = [v.kind for v in timeline.violations]
        return ComplianceReport(
            customer=customer,
            window=window,
            downtime=downtime,
            availability=availability,
            availability_target=timeline.sla.availability_target,
            cpu_violations=kinds.count("cpu"),
            memory_violations=kinds.count("memory"),
            disk_violations=kinds.count("disk"),
        )

    def reports(self, now: float) -> List[ComplianceReport]:
        return [self.report(c, now) for c in sorted(self._customers)]

    def violations(self, customer: Optional[str] = None) -> List[SlaViolation]:
        if customer is not None:
            timeline = self._customers.get(customer)
            return list(timeline.violations) if timeline else []
        out: List[SlaViolation] = []
        for name in sorted(self._customers):
            out.extend(self._customers[name].violations)
        return out

    def __repr__(self) -> str:
        return "SlaTracker(%d customers)" % len(self._customers)

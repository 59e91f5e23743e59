"""Deployment cost models for the Figure 1/2/3 comparison.

The paper motivates stacking virtual instances inside one host OSGi
framework by contrasting three layouts:

* **Figure 1** — one JVM per customer, managed by an external Instance
  Manager over RMI/JMX/TCP: per-JVM baseline memory and startup, plus
  management operations that pay a network round trip;
* **Figure 2** — all instances embedded in one JVM, managed through a Map:
  one JVM baseline, in-process management calls;
* **Figure 3/4** — instances stacked inside a host OSGi framework: same
  single-JVM costs plus the ability to *share* base bundles, subtracting
  duplicated bundle footprints.

The constants are calibrated to 2008-era HotSpot numbers (they only need
to preserve the comparison's *shape*, per DESIGN.md): ~40 MiB baseline
heap+metaspace per JVM, ~1.5 s JVM boot + ~0.8 s framework boot, ~1.5 ms
per RMI/JMX management round trip vs ~2 µs for an in-JVM virtual call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Baseline resident bytes for one JVM process (heap + permgen + mapped).
JVM_BASELINE_BYTES = 40 * 1024 * 1024
#: Resident bytes of an empty OSGi framework inside a JVM.
FRAMEWORK_BASELINE_BYTES = 6 * 1024 * 1024
#: Extra bookkeeping per virtual instance stacked on a host framework.
VOSGI_INSTANCE_OVERHEAD_BYTES = 512 * 1024
#: Seconds to boot a JVM process (2008-era HotSpot, client VM).
JVM_STARTUP_SECONDS = 1.5
#: Seconds to boot an OSGi framework (Felix-class) once the JVM is up.
FRAMEWORK_STARTUP_SECONDS = 0.8
#: Seconds for one remote management operation (RMI/JMX round trip, LAN).
REMOTE_MANAGEMENT_OP_SECONDS = 1.5e-3
#: Seconds for one in-process management call.
LOCAL_MANAGEMENT_OP_SECONDS = 2e-6


class DeploymentModel(enum.Enum):
    """The three layouts of Figures 1-3."""

    SEPARATE_JVMS = "separate-jvms"  # Figure 1
    SHARED_JVM = "shared-jvm"  # Figure 2
    STACKED_VOSGI = "stacked-vosgi"  # Figures 3-4


@dataclass(frozen=True)
class DeploymentCosts:
    """Modelled costs of hosting ``instances`` customers in one layout."""

    model: DeploymentModel
    instances: int
    memory_bytes: int
    startup_seconds: float
    management_op_seconds: float


def estimate_costs(
    model: DeploymentModel,
    instances: int,
    bundles_per_instance: int = 5,
    bundle_bytes: int = 64 * 1024,
    shared_bundles: int = 0,
) -> DeploymentCosts:
    """Estimate layout costs for ``instances`` customers.

    ``shared_bundles`` counts base bundles that, in the STACKED_VOSGI
    layout, are pulled down into the host and shared by every instance
    (Figure 4); the other layouts must duplicate them per customer.
    """
    if instances < 0:
        raise ValueError("instances must be >= 0")
    if shared_bundles > bundles_per_instance:
        raise ValueError("cannot share more bundles than each instance has")
    per_instance_payload = bundles_per_instance * bundle_bytes

    if model == DeploymentModel.SEPARATE_JVMS:
        memory = instances * (
            JVM_BASELINE_BYTES + FRAMEWORK_BASELINE_BYTES + per_instance_payload
        )
        startup = instances * (JVM_STARTUP_SECONDS + FRAMEWORK_STARTUP_SECONDS)
        op = REMOTE_MANAGEMENT_OP_SECONDS
    elif model == DeploymentModel.SHARED_JVM:
        memory = (
            JVM_BASELINE_BYTES
            + instances * (FRAMEWORK_BASELINE_BYTES + per_instance_payload)
        )
        startup = JVM_STARTUP_SECONDS + instances * FRAMEWORK_STARTUP_SECONDS
        op = LOCAL_MANAGEMENT_OP_SECONDS
    elif model == DeploymentModel.STACKED_VOSGI:
        duplicated = (bundles_per_instance - shared_bundles) * bundle_bytes
        memory = (
            JVM_BASELINE_BYTES
            + FRAMEWORK_BASELINE_BYTES  # the host framework
            + shared_bundles * bundle_bytes  # one shared copy
            + instances * (VOSGI_INSTANCE_OVERHEAD_BYTES + duplicated)
        )
        startup = (
            JVM_STARTUP_SECONDS
            + FRAMEWORK_STARTUP_SECONDS
            + instances * (FRAMEWORK_STARTUP_SECONDS * 0.25)
        )
        op = LOCAL_MANAGEMENT_OP_SECONDS
    else:  # pragma: no cover - enum is closed
        raise ValueError("unknown deployment model: %r" % model)

    return DeploymentCosts(
        model=model,
        instances=instances,
        memory_bytes=int(memory),
        startup_seconds=startup,
        management_op_seconds=op,
    )

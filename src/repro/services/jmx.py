"""A JMX-server analogue: read-only platform MBeans.

The paper's prototype exported "the JMX server service" to its virtual
instances. :class:`PlatformMBeanServer` plays that role: named *MBeans*
expose read-only views of the platform — bundle states, per-instance
resource usage, node capacity — through attribute queries, so tenant
tooling can introspect its environment without mutating it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.osgi.bundle import BundleContext, BundleState
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS

#: The service-interface package the JMX bundle exports (one symbol,
#: ``MBeanServer``) and the object class the server registers under.
JMX_PACKAGE = "javax.management"
JMX_SERVICE_CLASS = JMX_PACKAGE + ".MBeanServer"


class MBeanNotFound(KeyError):
    """No MBean registered under that object name."""


class PlatformMBeanServer:
    """Object name -> attribute suppliers; queries are always fresh."""

    def __init__(self) -> None:
        self._beans: Dict[str, Dict[str, Callable[[], Any]]] = {}

    # -- registration (platform side) -------------------------------------
    def register_mbean(
        self, object_name: str, attributes: Dict[str, Callable[[], Any]]
    ) -> None:
        if object_name in self._beans:
            raise ValueError("MBean %r already registered" % object_name)
        self._beans[object_name] = dict(attributes)

    def unregister_mbean(self, object_name: str) -> None:
        self._beans.pop(object_name, None)

    # -- queries (tenant side) -----------------------------------------------
    def query_names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._beans if n.startswith(prefix))

    def get_attribute(self, object_name: str, attribute: str) -> Any:
        bean = self._beans.get(object_name)
        if bean is None:
            raise MBeanNotFound(object_name)
        supplier = bean.get(attribute)
        if supplier is None:
            raise MBeanNotFound("%s.%s" % (object_name, attribute))
        return supplier()

    def attributes_of(self, object_name: str) -> List[str]:
        bean = self._beans.get(object_name)
        if bean is None:
            raise MBeanNotFound(object_name)
        return sorted(bean)


class JmxActivator(BundleActivator):
    """Registers the MBean server and populates the platform MBeans."""

    def start(self, context: BundleContext) -> None:
        self.server = PlatformMBeanServer()
        framework = context.framework
        self.server.register_mbean(
            "platform:type=Framework",
            {
                "InstanceId": lambda: framework.instance_id,
                "BundleCount": lambda: len(framework.bundles()),
                "ServiceCount": lambda: framework.registry.size,
                "StartLevel": lambda: framework.start_level,
                "Bundles": lambda: {
                    b.symbolic_name: b.state.value for b in framework.bundles()
                },
            },
        )
        self.server.register_mbean(
            "platform:type=Memory",
            {"FootprintBytes": lambda: framework.memory_footprint()},
        )
        self._context = context
        self._maybe_register_instances(context)
        context.register_service(JMX_SERVICE_CLASS, self.server)

    def _maybe_register_instances(self, context: BundleContext) -> None:
        reference = context.get_service_reference(INSTANCE_MANAGER_CLASS)
        if reference is None:
            return
        manager = context.get_service(reference)
        self.server.register_mbean(
            "platform:type=Instances",
            {
                "Names": lambda: manager.names(),
                "Count": lambda: manager.count,
                "Usage": lambda: {
                    i.name: i.usage() for i in manager.instances()
                },
            },
        )

    def stop(self, context: BundleContext) -> None:
        self.server = None


def jmx_bundle(name: str = "service.jmx") -> BundleDefinition:
    return simple_bundle(
        name,
        exports=(JMX_PACKAGE,),
        packages={JMX_PACKAGE: {"MBeanServer": PlatformMBeanServer}},
        activator_factory=JmxActivator,
    )

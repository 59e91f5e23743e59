"""The HttpService base bundle (implementation lives with the workloads).

:class:`~repro.workloads.webservice.HostHttpService` is re-exported here
so the three base services of §4 share one import site.
"""

from repro.osgi.definition import BundleDefinition
from repro.workloads.webservice import (
    HTTP_PACKAGE,
    HTTP_SERVICE_CLASS,
    HostHttpActivator,
    HostHttpService,
    host_http_bundle,
)

__all__ = [
    "HTTP_PACKAGE",
    "HTTP_SERVICE_CLASS",
    "HostHttpActivator",
    "HostHttpService",
    "http_service_bundle",
]


def http_service_bundle(name: str = "service.http") -> BundleDefinition:
    return host_http_bundle(name)

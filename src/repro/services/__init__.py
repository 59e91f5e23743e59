"""Base services the host platform exports to virtual instances.

§4: *"we already tested it by running multiple virtual instances that use
services from the underlying environment namely the log service, the HTTP
service and the JMX server service."* This package provides those three as
installable host bundles, each exporting its service-interface package
(one package, one symbol) beside the service it registers:

* :mod:`~repro.services.log` — the OSGi LogService;
* :mod:`~repro.services.http` — the HttpService (shared servlet registry);
* :mod:`~repro.services.jmx` — a JMX-server analogue exposing platform
  MBeans (bundle states, instance usage, node summary) read-only.

FIG4 (``benchmarks/test_fig4_shared_services.py``) runs all three, once
per instance and once on a shared host.
"""

from repro.services.http import HTTP_PACKAGE, HTTP_SERVICE_CLASS, http_service_bundle
from repro.services.jmx import (
    JMX_PACKAGE,
    JMX_SERVICE_CLASS,
    PlatformMBeanServer,
    jmx_bundle,
)
from repro.services.log import (
    LOG_PACKAGE,
    LOG_SERVICE_CLASS,
    LogEntry,
    LogService,
    log_bundle,
)

__all__ = [
    "HTTP_PACKAGE",
    "HTTP_SERVICE_CLASS",
    "JMX_PACKAGE",
    "JMX_SERVICE_CLASS",
    "LOG_PACKAGE",
    "LOG_SERVICE_CLASS",
    "LogEntry",
    "LogService",
    "PlatformMBeanServer",
    "http_service_bundle",
    "jmx_bundle",
    "log_bundle",
]

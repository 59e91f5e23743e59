"""An HTTP-style service composed with the host's HttpService.

The paper's prototype exported "the log service, the HTTP service and the
JMX server service" from the host to its virtual instances.
:class:`EchoWebService` is the customer side of that composition: it looks
up the (host-mirrored) ``http.HttpService``, registers a servlet under the
customer's path prefix, and accounts the CPU of every request it serves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.osgi.bundle import BundleContext
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.errors import BundleException

#: The service-interface package the HTTP bundle exports (one symbol,
#: ``HttpService``) and the object class the service registers under.
HTTP_PACKAGE = "http"
HTTP_SERVICE_CLASS = HTTP_PACKAGE + ".HttpService"

_REQUEST_CPU = 0.001


class HostHttpService:
    """A minimal host-side HttpService: path -> handler dispatch.

    Installed once on the host framework and exported to instances —
    exactly the "Bundle II pulled down" of Figure 4.
    """

    def __init__(self) -> None:
        self._routes: Dict[str, Any] = {}
        self.dispatched = 0

    def register_servlet(self, path: str, handler) -> None:
        if path in self._routes:
            raise ValueError("path %r already registered" % path)
        self._routes[path] = handler

    def unregister_servlet(self, path: str) -> None:
        self._routes.pop(path, None)

    def dispatch(self, path: str, request: Any) -> Tuple[int, Any]:
        self.dispatched += 1
        handler = self._routes.get(path)
        if handler is None:
            return 404, "no servlet at %r" % path
        try:
            return 200, handler(request)
        except Exception as exc:
            return 500, str(exc)

    def paths(self) -> List[str]:
        return sorted(self._routes)


class HostHttpActivator(BundleActivator):
    """Bundle hosting the shared :class:`HostHttpService`."""

    def start(self, context: BundleContext) -> None:
        self.service = HostHttpService()
        context.register_service(HTTP_SERVICE_CLASS, self.service)

    def stop(self, context: BundleContext) -> None:
        self.service = None


def host_http_bundle(name: str = "host.http") -> BundleDefinition:
    return simple_bundle(
        name,
        exports=(HTTP_PACKAGE,),
        packages={HTTP_PACKAGE: {"HttpService": HostHttpService}},
        activator_factory=HostHttpActivator,
    )


class EchoWebService(BundleActivator):
    """Customer servlet: echoes requests under ``/<prefix>/echo``."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.context: Optional[BundleContext] = None
        self.served = 0
        self._http: Optional[HostHttpService] = None

    @property
    def path(self) -> str:
        return "/%s/echo" % self.prefix

    def start(self, context: BundleContext) -> None:
        self.context = context
        reference = context.get_service_reference(HTTP_SERVICE_CLASS)
        if reference is None:
            raise RuntimeError(
                "no %s visible — did the administrator export it?"
                % HTTP_SERVICE_CLASS
            )
        self._http = context.get_service(reference)
        self._http.register_servlet(self.path, self._handle)

    def stop(self, context: BundleContext) -> None:
        if self._http is not None:
            self._http.unregister_servlet(self.path)
        self._http = None
        self.context = None

    def _handle(self, request: Any) -> Any:
        self.served += 1
        if self.context is not None:
            try:
                self.context.account(cpu=_REQUEST_CPU)
            except BundleException:
                # Context invalidated mid-migration: the ledger went with
                # the bundle, the request is still answered.
                pass
        return {"echo": request, "by": self.prefix}


def webservice_bundle(
    prefix: str, name: Optional[str] = None
) -> BundleDefinition:
    return simple_bundle(
        name or "workload.web.%s" % prefix,
        activator_factory=lambda: EchoWebService(prefix),
    )

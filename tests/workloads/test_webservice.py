"""Host-HTTP composition workload (Figure 4 archetype)."""

import pytest

from repro.osgi.framework import Framework
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.instance import VirtualInstance
from repro.workloads.webservice import (
    HTTP_SERVICE_CLASS,
    host_http_bundle,
    webservice_bundle,
)


@pytest.fixture
def host():
    fw = Framework("host")
    fw.start()
    fw.install(host_http_bundle()).start()
    yield fw
    if fw.active:
        fw.stop()


def http_of(host):
    ref = host.system_context.get_service_reference(HTTP_SERVICE_CLASS)
    return host.system_context.get_service(ref)


def make_tenant(host, name):
    instance = VirtualInstance(
        name, host, policy=ExportPolicy(service_classes={HTTP_SERVICE_CLASS})
    )
    instance.start()
    bundle = instance.install(webservice_bundle(name))
    bundle.start()
    return instance, bundle._activator


def test_servlet_registered_on_shared_host_service(host):
    make_tenant(host, "acme")
    http = http_of(host)
    status, body = http.dispatch("/acme/echo", {"q": 1})
    assert status == 200
    assert body == {"echo": {"q": 1}, "by": "acme"}


def test_multiple_tenants_share_one_http_service(host):
    make_tenant(host, "acme")
    make_tenant(host, "globex")
    http = http_of(host)
    assert http.paths() == ["/acme/echo", "/globex/echo"]
    assert http.dispatch("/globex/echo", "hi")[1]["by"] == "globex"


def test_unknown_path_404(host):
    http = http_of(host)
    status, _ = http.dispatch("/nobody/echo", "x")
    assert status == 404


def test_handler_exception_becomes_500(host):
    http = http_of(host)
    http.register_servlet("/broken", lambda request: 1 / 0)
    status, body = http.dispatch("/broken", "x")
    assert status == 500


def test_duplicate_path_rejected(host):
    make_tenant(host, "acme")
    http = http_of(host)
    with pytest.raises(ValueError):
        http.register_servlet("/acme/echo", lambda r: r)


def test_stop_unregisters_servlet(host):
    instance, service = make_tenant(host, "acme")
    instance.get_bundle_by_name("workload.web.acme").stop()
    http = http_of(host)
    assert http.dispatch("/acme/echo", "x")[0] == 404


def test_requests_metered_per_tenant(host):
    instance, service = make_tenant(host, "acme")
    http = http_of(host)
    for i in range(5):
        http.dispatch("/acme/echo", i)
    assert service.served == 5
    assert instance.usage()["cpu_seconds"] == pytest.approx(0.005)


def test_request_is_answered_on_an_invalidated_context(host):
    """Mid-migration the bundle's context can go invalid under a servlet
    still registered; metering is skipped, the answer is not."""
    instance, service = make_tenant(host, "acme")
    service.context._invalidate()
    status, body = http_of(host).dispatch("/acme/echo", "x")
    assert (status, body["echo"]) == (200, "x")
    assert service.served == 1
    assert instance.usage()["cpu_seconds"] == 0.0


def test_unexpected_accounting_errors_propagate(host):
    class BrokenContext:
        def account(self, cpu=0.0, memory_delta=0, disk_delta=0):
            raise KeyError("ledger")

    instance, service = make_tenant(host, "acme")
    service.context = BrokenContext()
    with pytest.raises(KeyError):
        service._handle("x")
    # Through the host service it is the servlet boundary's 500.
    assert http_of(host).dispatch("/acme/echo", "x") == (500, "'ledger'")


def test_tenant_without_export_cannot_start(host):
    instance = VirtualInstance("sneaky", host, policy=ExportPolicy())
    instance.start()
    bundle = instance.install(webservice_bundle("sneaky"))
    from repro.osgi.errors import BundleException

    with pytest.raises(BundleException):
        bundle.start()

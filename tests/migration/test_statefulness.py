"""Stateless / stateful / transactional migration semantics."""

import pytest

from repro.migration.statefulness import (
    PlainStatefulService,
    Request,
    RetryingClient,
    TransactionalStore,
)
from repro.storage.san import SharedStore


@pytest.fixture
def area():
    return SharedStore().data_area("vosgi:acme", "svc")


class TestRetryingClient:
    def test_successful_request_completes_first_try(self):
        client = RetryingClient(lambda request: True)
        request = client.issue("payload")
        assert request.completed
        assert request.attempts == 1

    def test_failed_request_stays_pending(self):
        client = RetryingClient(lambda request: False)
        request = client.issue("payload")
        assert not request.completed
        assert client.pending == [request]

    def test_retry_pending_completes_after_service_returns(self):
        available = {"up": False}
        client = RetryingClient(lambda request: available["up"])
        client.issue(1)
        client.issue(2)
        assert client.retry_pending() == 0
        available["up"] = True  # migration finished
        assert client.retry_pending() == 2
        assert client.pending == []

    def test_exceptions_treated_as_failure(self):
        def flaky(request):
            raise ConnectionError("mid-migration")

        client = RetryingClient(flaky)
        request = client.issue("x")
        assert not request.completed

    def test_other_exceptions_propagate(self):
        def broken(request):
            raise KeyError("bug in the send callable")

        client = RetryingClient(broken)
        with pytest.raises(KeyError):
            client.issue("x")
        request = client.requests[0]
        assert request.attempts == 1
        assert client.pending == [request]

    def test_attempts_counted_across_retries(self):
        client = RetryingClient(lambda request: False)
        request = client.issue("x")
        client.retry_pending()
        client.retry_pending()
        assert request.attempts == 3

    def test_request_ids_unique_and_increasing(self):
        client = RetryingClient(lambda request: True)
        ids = [client.issue(i).request_id for i in range(5)]
        assert ids == sorted(set(ids))


class TestTransactionalStore:
    def test_commit_persists_staged_writes(self, area):
        store = TransactionalStore(area)
        store.stage("k", 1)
        store.commit()
        assert area["k"] == 1
        assert store.commits == 1

    def test_uncommitted_writes_invisible(self, area):
        store = TransactionalStore(area)
        store.stage("k", 1)
        assert "k" not in area
        assert store.in_flight == 1

    def test_abort_discards(self, area):
        store = TransactionalStore(area)
        store.stage("k", 1)
        store.abort()
        assert "k" not in area
        assert store.aborts == 1

    def test_interrupted_request_leaves_no_trace(self, area):
        """The reduction-to-stateless argument: a crash between stage and
        commit leaves the persistent area untouched, so resending the
        request is safe."""
        store = TransactionalStore(area)
        store.stage("k", "half-done")
        # crash: store object abandoned
        fresh = TransactionalStore(area)
        assert fresh.get("k") is None
        fresh.stage("k", "retried")
        fresh.commit()
        assert area["k"] == "retried"


class TestPlainStateful:
    def test_unflushed_context_lost_on_migration(self, area):
        service = PlainStatefulService(area)
        service.handle("persisted", 1)
        service.flush()
        service.handle("in-flight", 2)
        # Migration: new service object, same (SAN) data area.
        migrated = PlainStatefulService(area)
        assert migrated.persisted("persisted") == 1
        assert migrated.persisted("in-flight") is None
        assert migrated.context == {}

    def test_flush_reports_count(self, area):
        service = PlainStatefulService(area)
        service.handle("a", 1)
        service.handle("b", 2)
        assert service.flush() == 2
        assert service.flush() == 0

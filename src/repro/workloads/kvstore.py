"""A transactional key-value service — the migratable-state archetype.

§3.2 reduces the stateful case to the stateless one when "the application
provides transactional mechanisms": a failed request leaves no partial
state, so the client can safely resend. :class:`KeyValueStore` embodies
that: writes stage in memory and reach the SAN-backed data area only on
commit; reads see committed state. Migrate or crash the hosting node and
the committed map is exactly what the redeployed service serves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.migration.statefulness import TransactionalStore
from repro.osgi.bundle import BundleContext
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.errors import BundleException

#: Object class the store registers under, inside its virtual instance.
KV_SERVICE_CLASS = "kv.KeyValueStore"

#: CPU seconds charged per operation (drives the monitoring pipeline).
_OP_CPU = 0.0005
#: Memory bytes charged per staged entry.
_ENTRY_BYTES = 128


class KeyValueStore(BundleActivator):
    """Transactional KV service registered in the instance's registry."""

    def __init__(self) -> None:
        self.context: Optional[BundleContext] = None
        self._store: Optional[TransactionalStore] = None
        self.operations = 0

    # -- lifecycle -------------------------------------------------------
    def start(self, context: BundleContext) -> None:
        self.context = context
        self._store = TransactionalStore(context.get_data_store())
        context.register_service(KV_SERVICE_CLASS, self)

    def stop(self, context: BundleContext) -> None:
        if self._store is not None and self._store.in_flight:
            self._store.abort()  # never persist half a transaction
        self.context = None
        self._store = None

    # -- transactional API -------------------------------------------------
    def begin(self) -> "Transaction":
        self._ensure_running()
        return Transaction(self)

    def get(self, key: str, default: Any = None) -> Any:
        self._ensure_running()
        self._operation()
        return self._store.get(key, default)

    def keys(self) -> List[str]:
        self._ensure_running()
        self._operation()
        return sorted(self._store._area)

    # -- plumbing -----------------------------------------------------------
    def _ensure_running(self) -> None:
        if self.context is None or self._store is None:
            raise RuntimeError("KeyValueStore is not active (mid-migration?)")

    def _operation(self) -> None:
        self.operations += 1
        self._account(cpu=_OP_CPU)

    def _account(self, cpu: float = 0.0, memory_delta: int = 0) -> None:
        try:
            self.context.account(cpu=cpu, memory_delta=memory_delta)
        except BundleException:
            # Context invalidated mid-migration: the ledger went with the
            # bundle, the operation itself still completes.
            pass

    @property
    def commits(self) -> int:
        self._ensure_running()
        return self._store.commits


class Transaction:
    """Stage writes; all-or-nothing on commit."""

    def __init__(self, service: KeyValueStore) -> None:
        self._service = service
        self._open = True

    def put(self, key: str, value: Any) -> "Transaction":
        self._check()
        self._service._store.stage(key, value)
        self._service._operation()
        self._service._account(memory_delta=_ENTRY_BYTES)
        return self

    def commit(self) -> None:
        self._check()
        staged = self._service._store.in_flight
        self._service._store.commit()
        self._service._operation()
        self._service._account(memory_delta=-_ENTRY_BYTES * staged)
        self._open = False

    def abort(self) -> None:
        self._check()
        staged = self._service._store.in_flight
        self._service._store.abort()
        self._service._account(memory_delta=-_ENTRY_BYTES * staged)
        self._open = False

    def _check(self) -> None:
        if not self._open:
            raise RuntimeError("transaction already finished")
        self._service._ensure_running()


def kvstore_bundle(name: str = "workload.kvstore") -> BundleDefinition:
    return simple_bundle(name, activator_factory=KeyValueStore)

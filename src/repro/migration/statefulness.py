"""Bundle statefulness taxonomy — §3.2's state-transfer discussion.

The paper classifies migrated services:

* **stateless** — "(re)starting it on the target instance is enough";
  clients "resend the request until it is addressed";
* **stateful** — persistent state is on the SAN; the *running context*
  (in-flight requests) is lost unless live migration (future work) is on;
* **transactional** — "the client could be informed about the outcome of
  the request … this case could be reduced to the stateless example".

This module provides executable embodiments of all three, used by the
examples and the CLAIM-MIG/CLAIM-FAIL benchmarks to count which requests
survive a migration under each semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class BundleStateKind(enum.Enum):
    STATELESS = "stateless"
    STATEFUL = "stateful"
    TRANSACTIONAL = "transactional"


@dataclass
class Request:
    """One client request with retry bookkeeping."""

    request_id: int
    payload: Any
    attempts: int = 0
    completed: bool = False
    outcome: Optional[Any] = None


class RetryingClient:
    """The stateless-service client pattern: resend until acknowledged.

    ``issue`` hands a request to a send callable that may fail (service
    mid-migration); :meth:`retry_pending` re-drives incomplete requests —
    "it is common practice to resend the request until it is addressed".
    A send reports "not addressed" by returning ``False`` or raising
    :class:`ConnectionError`; any other exception is a fault in the send
    itself and propagates.
    """

    def __init__(self, send: Callable[[Request], bool]) -> None:
        self._send = send
        self._next_id = 1
        self.requests: List[Request] = []

    def issue(self, payload: Any) -> Request:
        request = Request(self._next_id, payload)
        self._next_id += 1
        self.requests.append(request)
        self._attempt(request)
        return request

    def retry_pending(self) -> int:
        """Retry every incomplete request; returns how many completed."""
        completed = 0
        for request in self.requests:
            if not request.completed:
                if self._attempt(request):
                    completed += 1
        return completed

    def _attempt(self, request: Request) -> bool:
        request.attempts += 1
        try:
            ok = self._send(request)
        except ConnectionError:
            ok = False
        if ok:
            request.completed = True
        return ok

    @property
    def pending(self) -> List[Request]:
        return [r for r in self.requests if not r.completed]


class TransactionalStore:
    """A data-area-backed store with all-or-nothing request handling.

    Writes go to a staging buffer and only reach the persistent area on
    :meth:`commit`; an interrupted request leaves nothing behind, so the
    client can safely resend — the reduction-to-stateless argument.
    """

    def __init__(self, data_area) -> None:
        self._area = data_area
        self._staged: Dict[str, Any] = {}
        self.commits = 0
        self.aborts = 0

    def stage(self, key: str, value: Any) -> None:
        self._staged[key] = value

    def commit(self) -> None:
        for key, value in self._staged.items():
            self._area[key] = value
        self._staged.clear()
        self.commits += 1

    def abort(self) -> None:
        self._staged.clear()
        self.aborts += 1

    def get(self, key: str, default: Any = None) -> Any:
        return self._area.get(key, default)

    @property
    def in_flight(self) -> int:
        return len(self._staged)


class PlainStatefulService:
    """A service with in-memory running context *not* on the SAN.

    Mirrors the problematic case: persistent state survives migration via
    the data area, the in-memory ``context`` does not (unless the live-
    migration extension checkpoints it).
    """

    def __init__(self, data_area) -> None:
        self._area = data_area
        self.context: Dict[str, Any] = {}

    def handle(self, key: str, value: Any) -> None:
        # Two-step handling: context first, persistence later — the window
        # where migration loses the in-flight part.
        self.context[key] = value

    def flush(self) -> int:
        """Persist the running context; returns entries flushed."""
        flushed = 0
        for key, value in self.context.items():
            self._area[key] = value
            flushed += 1
        self.context.clear()
        return flushed

    def persisted(self, key: str, default: Any = None) -> Any:
        return self._area.get(key, default)

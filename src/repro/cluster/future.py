"""A minimal completion handle for virtual-time asynchronous operations.

Cluster operations (boot a node, deploy an instance, migrate) finish after
a modelled delay on the event loop. A :class:`Completion` lets callers
chain work without callbacks-in-signatures everywhere.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, List, Optional, TypeVar

T = TypeVar("T")


class Completion(Generic[T]):
    """Settles exactly once with a value or an error."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.done = False
        self.value: Optional[T] = None
        self.error: Optional[BaseException] = None
        self.completed_at: Optional[float] = None
        self._callbacks: List[Callable[["Completion[T]"], None]] = []

    def on_done(self, callback: Callable[["Completion[T]"], None]) -> "Completion[T]":
        """Run ``callback(self)`` at settlement (immediately if settled)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)
        return self

    def complete(self, value: T, at: Optional[float] = None) -> None:
        if self.done:
            raise RuntimeError("completion %r already settled" % self.label)
        self.done = True
        self.value = value
        self.completed_at = at
        self._fire()

    def fail(self, error: BaseException, at: Optional[float] = None) -> None:
        if self.done:
            raise RuntimeError("completion %r already settled" % self.label)
        self.done = True
        self.error = error
        self.completed_at = at
        self._fire()

    @property
    def ok(self) -> bool:
        return self.done and self.error is None

    def result(self) -> T:
        """The value; raises the stored error or if still pending."""
        if not self.done:
            raise RuntimeError("completion %r still pending" % self.label)
        if self.error is not None:
            raise self.error
        return self.value  # type: ignore[return-value]

    def _fire(self) -> None:
        # A raising callback propagates to whoever settled the completion
        # (the event loop, for scheduled work); later callbacks do not run.
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.done:
            state = "ok" if self.error is None else "error:%r" % self.error
        return "Completion(%s, %s)" % (self.label or "anonymous", state)

"""The OSGi LogService, shared across all tenants (Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.osgi.bundle import BundleContext
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle

#: The service-interface package the log bundle exports (one symbol,
#: ``LogService``) and the object class the service registers under.
LOG_PACKAGE = "org.osgi.service.log"
LOG_SERVICE_CLASS = LOG_PACKAGE + ".LogService"

#: Severity levels, as in the OSGi Log Service specification.
LOG_ERROR = 1
LOG_WARNING = 2
LOG_INFO = 3
LOG_DEBUG = 4

_LEVEL_NAMES = {1: "ERROR", 2: "WARNING", 3: "INFO", 4: "DEBUG"}


@dataclass(frozen=True)
class LogEntry:
    level: int
    message: str
    source: str

    def __str__(self) -> str:
        return "[%s] %s: %s" % (
            _LEVEL_NAMES.get(self.level, self.level),
            self.source,
            self.message,
        )


class LogService:
    """One log, many tenants: entries carry the caller-supplied source."""

    def __init__(self, capacity: int = 10_000) -> None:
        self.capacity = capacity
        self._entries: List[LogEntry] = []

    def log(self, level: int, message: str, source: str = "?") -> None:
        if level not in _LEVEL_NAMES:
            raise ValueError("invalid log level: %r" % level)
        self._entries.append(LogEntry(level, str(message), source))
        if len(self._entries) > self.capacity:
            del self._entries[: len(self._entries) - self.capacity]

    def error(self, message: str, source: str = "?") -> None:
        self.log(LOG_ERROR, message, source)

    def warning(self, message: str, source: str = "?") -> None:
        self.log(LOG_WARNING, message, source)

    def info(self, message: str, source: str = "?") -> None:
        self.log(LOG_INFO, message, source)

    def entries(
        self, max_level: Optional[int] = None, source: Optional[str] = None
    ) -> List[LogEntry]:
        """Entries, optionally filtered by severity ceiling and source."""
        out = self._entries
        if max_level is not None:
            out = [e for e in out if e.level <= max_level]
        if source is not None:
            out = [e for e in out if e.source == source]
        return list(out)

    def __len__(self) -> int:
        return len(self._entries)


class LogServiceActivator(BundleActivator):
    def start(self, context: BundleContext) -> None:
        self.service = LogService()
        context.register_service(LOG_SERVICE_CLASS, self.service)

    def stop(self, context: BundleContext) -> None:
        self.service = None


def log_bundle(name: str = "service.log") -> BundleDefinition:
    return simple_bundle(
        name,
        exports=(LOG_PACKAGE,),
        packages={LOG_PACKAGE: {"LogService": LogService}},
        activator_factory=LogServiceActivator,
    )

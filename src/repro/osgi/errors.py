"""Exception hierarchy for the OSGi framework.

Mirrors the exception types of the OSGi R4 core specification so that code
ported from the Java API reads naturally.
"""

from __future__ import annotations


class OSGiError(Exception):
    """Base class for every error raised by :mod:`repro.osgi`."""


class BundleException(OSGiError):
    """A bundle lifecycle operation failed.

    ``type`` loosely follows the Java ``BundleException`` type codes; only
    the ones this framework can actually produce are defined.
    """

    UNSPECIFIED = 0
    ACTIVATOR_ERROR = 5
    INVALID_OPERATION = 2
    RESOLVE_ERROR = 4
    DUPLICATE_BUNDLE_ERROR = 9
    STATECHANGE_ERROR = 6

    def __init__(self, message: str, type: int = UNSPECIFIED) -> None:
        super().__init__(message)
        self.type = type


class ResolutionError(BundleException):
    """The resolver could not satisfy a bundle's imports."""

    def __init__(self, message: str) -> None:
        super().__init__(message, BundleException.RESOLVE_ERROR)


class InvalidSyntaxError(OSGiError):
    """An LDAP filter string could not be parsed."""

    def __init__(self, message: str, filter_string: str) -> None:
        super().__init__("%s in filter %r" % (message, filter_string))
        self.filter_string = filter_string


class ServiceException(OSGiError):
    """A service registry operation failed."""

    UNSPECIFIED = 0
    UNREGISTERED = 1
    FACTORY_ERROR = 2

    def __init__(self, message: str, type: int = UNSPECIFIED) -> None:
        super().__init__(message)
        self.type = type


class FrameworkError(OSGiError):
    """The framework itself is in an unusable state for the operation."""


class SecurityViolation(OSGiError):
    """A permission check by the isolation layer denied the operation.

    Defined here (rather than in :mod:`repro.isolation`) because framework
    internals must be able to raise it without importing upward.
    """

    def __init__(self, message: str, permission: str = "") -> None:
        super().__init__(message)
        self.permission = permission

"""Assertions: protocol checkers and system-property checkers."""

from repro.assertions.base import Checker, PropertyChecker, Violation
from repro.assertions.properties import (
    OrderingChecker,
    QosPropertyChecker,
)
from repro.assertions.protocol import RtlProtocolChecker, TransactionChecker

__all__ = [
    "Checker",
    "OrderingChecker",
    "PropertyChecker",
    "QosPropertyChecker",
    "RtlProtocolChecker",
    "TransactionChecker",
    "Violation",
]

"""Client substrate: transaction runtimes (read-only and update) and the
quasi-cache for weak currency requirements."""

from .cache import CacheEntry, QuasiCache
from .runtime import (
    ClientUpdateTransactionRuntime,
    ReadOnlyTransactionRuntime,
    ReadOutcome,
    TransactionAborted,
)

__all__ = [
    "ReadOnlyTransactionRuntime",
    "ClientUpdateTransactionRuntime",
    "ReadOutcome",
    "TransactionAborted",
    "QuasiCache",
    "CacheEntry",
]

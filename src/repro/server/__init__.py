"""Server substrate: versioned store, client-update validation, recovery,
workload generators, and the broadcast server."""

from .database import CommitRecord, Database
from .recovery import recover_server
from .server import BroadcastServer
from .validation import BackwardValidator, UpdateSubmission, ValidationOutcome
from .workload import ClientWorkload, ServerTransactionSpec, ServerWorkload

__all__ = [
    "Database",
    "CommitRecord",
    "BackwardValidator",
    "UpdateSubmission",
    "ValidationOutcome",
    "BroadcastServer",
    "ServerWorkload",
    "ServerTransactionSpec",
    "ClientWorkload",
    "recover_server",
]

"""Server substrate: versioned store, lock manager, strict-2PL executor,
client-update validation, workload generators, and the broadcast server."""

from .database import CommitRecord, Database
from .occ import OCCExecutor
from .recovery import recover_server
from .traces import TraceWorkload, WorkloadTrace, record_trace
from .locks import DeadlockError, LockManager, LockMode
from .server import BroadcastServer
from .twopl import ExecutionResult, TransactionProgram, TwoPLExecutor
from .validation import BackwardValidator, UpdateSubmission, ValidationOutcome
from .workload import ClientWorkload, ServerTransactionSpec, ServerWorkload

__all__ = [
    "Database",
    "CommitRecord",
    "LockManager",
    "LockMode",
    "DeadlockError",
    "TwoPLExecutor",
    "TransactionProgram",
    "ExecutionResult",
    "BackwardValidator",
    "UpdateSubmission",
    "ValidationOutcome",
    "BroadcastServer",
    "ServerWorkload",
    "ServerTransactionSpec",
    "ClientWorkload",
    "OCCExecutor",
    "recover_server",
    "WorkloadTrace",
    "TraceWorkload",
    "record_trace",
]

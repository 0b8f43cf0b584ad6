"""Discrete-event simulation of the broadcast-disk system (Sec. 4 setup)."""

from .arena import (
    TIMELINE_CACHE,
    TimelineArena,
    TimelineCache,
    TimelineExhausted,
    TimelineHandle,
    TimelineView,
    timeline_cacheable,
    timeline_fingerprint,
)
from .batch import ReplicatedResult, replicate, replication_seeds
from .cohort import CohortExecutor
from .config import KILOBYTE_BITS, SimulationConfig
from .engine import Process, Simulator, Timeout, WaitUntil
from .faults import DozeInterval, FaultPlan, FaultRuntime, ServerCrash
from .kernel import ClientEnv, ClientKernel
from .metrics import MetricsCollector, SummaryStat, TransactionSample, summarize
from .shard import ShardExecutionError, reader_slices, run_sharded
from .simulation import (
    BroadcastSimulation,
    ShardSlice,
    SimulationResult,
    run_simulation,
)
from .trace import ClientCommitRecord, TraceRecorder

__all__ = [
    "SimulationConfig",
    "KILOBYTE_BITS",
    "Simulator",
    "Process",
    "Timeout",
    "WaitUntil",
    "MetricsCollector",
    "SummaryStat",
    "TransactionSample",
    "summarize",
    "replicate",
    "ReplicatedResult",
    "replication_seeds",
    "BroadcastSimulation",
    "SimulationResult",
    "run_simulation",
    "ShardSlice",
    "run_sharded",
    "reader_slices",
    "ShardExecutionError",
    "TimelineArena",
    "TimelineHandle",
    "TimelineView",
    "TimelineExhausted",
    "TimelineCache",
    "TIMELINE_CACHE",
    "timeline_cacheable",
    "timeline_fingerprint",
    "ClientEnv",
    "ClientKernel",
    "CohortExecutor",
    "TraceRecorder",
    "ClientCommitRecord",
    "FaultPlan",
    "FaultRuntime",
    "DozeInterval",
    "ServerCrash",
]

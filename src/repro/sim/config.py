"""Simulation parameters (Table 1 of the paper).

:class:`SimulationConfig` defaults to the paper's Table 1 values; every
experiment varies one field and keeps the rest.  Times are in *bit-units*
(time to broadcast one bit).  For the paper's 64 Kbit/s medium, the
inter-operation delay of 65536 bit-units is 1 second and the
inter-transaction delay of 131072 bit-units is 2 seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
import typing
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..broadcast.control_info import ControlInfoScheme, scheme_for_protocol
from ..broadcast.layout import FlatLayout, MultiDiskLayout
from ..core.group_matrix import Partition, uniform_partition
from ..core.validators import PROTOCOL_NAMES
from .faults import FaultPlan

__all__ = [
    "SimulationConfig",
    "EXECUTORS",
    "KILOBYTE_BITS",
    "UPLINK_ROUND_TRIP",
    "CLIENT_UPDATE_WRITE_FRACTION",
]

#: bits in the paper's 1 KB object
KILOBYTE_BITS = 8 * 1024

#: round-trip bit-time for submit + verdict on the scarce uplink
#: (Sec. 3.2.1 gives it no value; a submission reaches the server half of
#: it after the read phase ends, the verdict is back the other half later)
UPLINK_ROUND_TRIP = 8_192.0

#: fraction of a client update transaction's read set it rewrites (at
#: least one object)
CLIENT_UPDATE_WRITE_FRACTION = 0.5

#: the ``client_executor`` values (the field's comment says what each does)
EXECUTORS = ("process", "cohort", "analytic")


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of the broadcast-disk simulation (Table 1 defaults)."""

    protocol: str = "f-matrix"

    # -- Table 1 ---------------------------------------------------------
    #: number of read operations per client transaction
    client_txn_length: int = 4
    #: number of read/write operations per server transaction
    server_txn_length: int = 8
    #: mean bit-units between server transaction completions (rate 1/x)
    server_txn_interval: float = 250_000.0
    num_objects: int = 300
    #: object size in bits (1 KB in the paper)
    object_size_bits: int = KILOBYTE_BITS
    server_read_probability: float = 0.5
    #: mean of the exponential inter-operation delay at the client
    mean_inter_operation_delay: float = 65_536.0
    #: mean of the exponential inter-transaction delay at the client
    mean_inter_transaction_delay: float = 131_072.0
    #: fixed delay before a restarted attempt begins
    restart_delay: float = 0.0
    timestamp_bits: int = 8

    # -- run shape --------------------------------------------------------
    #: client transactions to commit before the run ends
    num_client_transactions: int = 1000
    num_clients: int = 1
    seed: int = 42
    #: who schedules the clients, never what a run may do.  What a client
    #: does is the same code under "cohort" and "analytic"
    #: (repro.sim.kernel); the value picks when it runs, and every value
    #: gives bit-identical results:
    #: "cohort" (the default) — the kernel under a slot-coalesced
    #: calendar, one simulator event and one batched validation per
    #: occupied slot; the run picks its own schedule from the config
    #: (repro.sim.schedule): the read-only clients interleaved, or after
    #: the updaters in waves sized by a bucket-occupancy model;
    #: "process" — one simulator process per client, an independent
    #: implementation kept as the reference the others are tested
    #: against: name it to ask for the reference, it is single-shard;
    #: "analytic" — cohort with waves forced at repro.sim.analytic.WAVE
    #: readers; kept only while the benchmark harness names it
    client_executor: str = "cohort"
    #: partition the read-only population over N sharded simulations
    #: (docs/PERFORMANCE.md §5); 1 = single in-process run
    shards: int = 1
    #: "recompute" — every shard derives the authoritative timeline from
    #: the shared seeds (docs/PERFORMANCE.md §5); "replay" — one recording
    #: pass seals the timeline into a shared-memory arena and the other
    #: shards replay it zero-copy (§6); bit-identical either way
    timeline_mode: str = "recompute"
    #: only clients with id < N ever draw update transactions; None means
    #: every client may (the pre-existing behaviour).  A run with updates
    #: whose ``readers_apart`` is set requires an explicit bound so the
    #: read-only population is well defined.
    num_update_clients: Optional[int] = None

    # -- modelling choices (documented in DESIGN.md) ----------------------
    #: "exponential" (default) or "deterministic" server completion gaps
    server_interval_distribution: str = "exponential"
    #: apply an inter-operation delay before the first read too?
    delay_before_first_operation: bool = False
    #: the paper's wire format: timestamps modulo 2**timestamp_bits, so
    #: no attempt may span ``max_cycles`` cycles (the client guard aborts it)
    modulo_timestamps: bool = False

    # -- group-matrix protocol --------------------------------------------
    num_groups: int = 1

    # -- quasi-caching extension (Sec. 3.3) --------------------------------
    #: currency bound T in bit-units; None disables the client cache
    cache_currency_bound: Optional[float] = None
    cache_capacity: Optional[int] = None

    # -- multi-speed broadcast disks (extension; Acharya et al.) -----------
    #: "flat" (paper: single-speed) or "multi-disk" (hot/cold two-speed)
    layout_kind: str = "flat"
    #: fraction of objects on the hot disk
    hot_fraction: float = 0.2
    #: relative broadcast frequency of the hot disk (cold disk = 1)
    hot_frequency: int = 3
    #: probability a client read targets the hot set (0 = uniform, paper)
    client_access_skew: float = 0.0

    # -- failure injection --------------------------------------------------
    #: probability a client misses an awaited broadcast slot (radio loss);
    #: the read retries at the object's next appearance
    broadcast_loss_probability: float = 0.0
    #: deterministic fault schedule: client doze intervals, uplink
    #: submission loss, mid-run server crash + recovery (docs/FAULTS.md);
    #: None (or a no-op plan) leaves the run bit-identical to fault-free
    faults: Optional[FaultPlan] = None

    # -- client update transactions over the uplink (Sec. 3.2.1) -----------
    #: fraction of client transactions that also write (0 = paper's Sec. 4
    #: setting: read-only clients)
    client_update_fraction: float = 0.0

    # -- analysis hooks -----------------------------------------------------
    #: keep every broadcast image the timeline installs, record the
    #: induced history and run the invariant auditor (:mod:`repro.analysis`)
    #: after the run; refused where ``readers_apart`` is set
    audit: bool = False

    # -- observability (docs/OBSERVABILITY.md) ------------------------------
    #: emit sim-time lifecycle spans (attempts, uplink round-trips,
    #: cycles, crashes) into a bounded ring buffer (oldest spans
    #: overwritten beyond ``repro.obs.tracer.DEFAULT_CAPACITY``, counted in
    #: ``SimulationResult.spans_dropped``); off by default so untraced
    #: runs stay bit-identical and allocation-free
    tracing: bool = False

    # ----------------------------------------------------------------
    def __post_init__(self) -> None:
        # documents reach this constructor (scenario files, recorded
        # traces): an ill-typed field is a ValueError that names it, not a
        # TypeError from whichever comparison below meets it first — and
        # not a silently accepted ``seed: null``
        for name, kinds in _FIELD_KINDS.items():
            value = getattr(self, name)
            if not isinstance(value, kinds) or (
                isinstance(value, bool) and bool not in kinds
            ):
                raise ValueError(
                    f"{name} must be {type(self).__annotations__[name]}, "
                    f"got {value!r}"
                )
        if self.seed < 0:
            # the uplink-loss streams read the seed as SeedSequence entropy,
            # which has no sign
            raise ValueError("seed must be >= 0")
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOL_NAMES}"
            )
        if self.client_txn_length < 1:
            raise ValueError("client_txn_length must be >= 1")
        if self.server_txn_length < 1:
            raise ValueError("server_txn_length must be >= 1")
        if self.num_objects < self.client_txn_length:
            raise ValueError("client transactions read distinct objects")
        if self.num_objects < self.server_txn_length:
            raise ValueError("server transactions access distinct objects")
        if self.server_interval_distribution not in ("exponential", "deterministic"):
            raise ValueError("unknown server_interval_distribution")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.client_executor not in EXECUTORS:
            raise ValueError(f"client_executor must be one of {EXECUTORS}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.num_update_clients is not None and not (
            0 <= self.num_update_clients <= self.num_clients
        ):
            raise ValueError("num_update_clients must be in [0, num_clients]")
        if not 0.0 <= self.client_update_fraction <= 1.0:
            raise ValueError("client_update_fraction must be in [0, 1]")
        if not 0.0 <= self.broadcast_loss_probability < 1.0:
            raise ValueError("broadcast_loss_probability must be in [0, 1)")
        if self.layout_kind not in ("flat", "multi-disk"):
            raise ValueError("layout_kind must be 'flat' or 'multi-disk'")
        if self.hot_frequency < 1:
            raise ValueError("hot_frequency must be >= 1")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.client_access_skew <= 1.0:
            raise ValueError("client_access_skew must be in [0, 1]")
        if not 0.0 <= self.server_read_probability <= 1.0:
            raise ValueError("server_read_probability must be in [0, 1]")
        if self.server_txn_interval <= 0:
            raise ValueError("server_txn_interval must be > 0")
        if self.mean_inter_operation_delay <= 0:
            raise ValueError("mean_inter_operation_delay must be > 0")
        if self.mean_inter_transaction_delay <= 0:
            raise ValueError("mean_inter_transaction_delay must be > 0")
        if self.restart_delay < 0:
            raise ValueError("restart_delay must be >= 0")
        if self.object_size_bits < 1:
            raise ValueError("object_size_bits must be >= 1")
        if self.timestamp_bits < 1:
            raise ValueError("timestamp_bits must be >= 1")
        if self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if self.num_client_transactions < 1:
            raise ValueError("num_client_transactions must be >= 1")
        if self.cache_currency_bound is not None and self.cache_currency_bound < 0:
            raise ValueError("cache_currency_bound must be >= 0")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.faults is not None:
            if self.faults.max_doze_client >= self.num_clients:
                raise ValueError(
                    f"doze interval names client "
                    f"{self.faults.max_doze_client} but the run has only "
                    f"{self.num_clients} client(s)"
                )
        if self.timeline_mode not in ("recompute", "replay"):
            raise ValueError("timeline_mode must be 'recompute' or 'replay'")
        if self.shards > 1 and self.client_executor == "process":
            raise ValueError(
                "the per-process reference executor is single-shard; "
                "to shard a run leave client_executor at its default"
            )
        apart = self.readers_apart
        if apart is not None:
            if self.audit:
                raise ValueError(
                    f"audit runs read one global trace, and this run keeps "
                    f"none: {apart}"
                )
            if self.client_update_fraction > 0.0 and self.num_update_clients is None:
                raise ValueError(
                    f"{apart}; with client_update_fraction > 0 set "
                    "num_update_clients so the update population is bounded"
                )

    # ----------------------------------------------------------------
    def replace(self, **changes: object) -> "SimulationConfig":
        """A modified copy (sweeps use this)."""
        return dataclasses.replace(self, **changes)

    # -- serialisation (scenario files, recorded traces) ---------------
    def to_dict(self) -> "dict[str, object]":
        """Every field as a JSON-ready dict.

        The inverse of :meth:`from_dict`: the pair round-trips losslessly
        (``from_dict(cfg.to_dict()) == cfg``), including the fault plan,
        so recorded traces and scenario runs can persist the *exact*
        parameterisation they executed under.
        """
        payload: "dict[str, object]" = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "faults":
                value = value.to_dict() if value is not None else None
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a typoed field silently falling back
        to a default would un-pin the run the caller thinks it replays).
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(
                f"unknown SimulationConfig field(s) {unknown}; "
                f"known fields: {sorted(field_names)}"
            )
        kwargs: "dict[str, object]" = dict(payload)
        faults = kwargs.get("faults")
        if faults is not None and not isinstance(faults, FaultPlan):
            kwargs["faults"] = FaultPlan.from_dict(faults)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """A short stable hash over every field (audit/provenance tag).

        Two configs share a fingerprint iff every field compares equal, so
        reports stamped with it are traceable to the exact parameterisation.
        """
        digest = hashlib.sha256()
        for f in dataclasses.fields(self):
            digest.update(f.name.encode())
            digest.update(b"=")
            digest.update(repr(getattr(self, f.name)).encode())
            digest.update(b";")
        return digest.hexdigest()[:12]

    # -- derived quantities -------------------------------------------
    @property
    def readers_apart(self) -> Optional[str]:
        """What splits the read-only clients off from the rest, if anything.

        ``None`` when every client runs in one simulation against one live
        timeline, under any executor: the run then has one global history,
        which is what an audit, a certification and a recorded trace read.
        Otherwise one sentence naming the cause (and the setting that
        removes it).  Every rule about who keeps a global trace reads this.
        """
        if self.timeline_mode == "replay":
            return (
                "timeline replay runs the read-only clients against a "
                "recorded timeline (use timeline_mode='recompute')"
            )
        if self.shards > 1:
            return (
                f"shards={self.shards} splits the read-only clients over "
                "separate simulations (use shards=1)"
            )
        return None

    def update_capable_clients(self) -> int:
        """Clients ``[0, n)`` that may draw update transactions.

        Clients at or beyond this index never consult the update-fraction
        gate (no RNG draw), which is what makes the read-only population
        partitionable across shards and replayable by the analytical
        tier without perturbing anyone's random stream.
        """
        if self.client_update_fraction <= 0.0:
            return 0
        if self.num_update_clients is None:
            return self.num_clients
        return self.num_update_clients

    def update_capable(self, client_id: int) -> bool:
        """May this client draw update transactions?"""
        return client_id < self.update_capable_clients()

    @property
    def max_cycles(self) -> Optional[int]:
        """The paper's bound on the cycles one attempt may span (Sec. 3.2.1):
        ``2**timestamp_bits - 1`` under modulo timestamps, None (unbounded)
        otherwise.  Each client's staleness guard enforces it; within it the
        modulo wire is exact, so the simulation carries absolute cycles."""
        if self.modulo_timestamps:
            return (1 << self.timestamp_bits) - 1
        return None

    def partition(self) -> Optional[Partition]:
        if self.protocol != "group-matrix":
            return None
        return uniform_partition(self.num_objects, self.num_groups)

    def control_scheme(self) -> ControlInfoScheme:
        return scheme_for_protocol(
            self.protocol,
            num_objects=self.num_objects,
            timestamp_bits=self.timestamp_bits,
            num_groups=self.num_groups,
        )

    def layout(self) -> "FlatLayout | MultiDiskLayout":
        """The broadcast layout: flat (paper) or hot/cold multi-disk."""
        scheme = self.control_scheme()
        if self.layout_kind == "multi-disk":
            hot_size = max(1, int(self.num_objects * self.hot_fraction))
            hot = list(range(hot_size))
            cold = list(range(hot_size, self.num_objects))
            disks = [(self.hot_frequency, hot)]
            if cold:
                disks.append((1, cold))
            return MultiDiskLayout(
                disks,
                self.object_size_bits,
                control_bits_per_slot=scheme.bits_per_slot,
            )
        return FlatLayout(
            self.num_objects,
            self.object_size_bits,
            control_bits_per_slot=scheme.bits_per_slot,
            preamble_bits=scheme.bits_per_cycle_extra,
        )

    @property
    def cycle_bits(self) -> int:
        return self.layout().cycle_bits

    @property
    def control_overhead_fraction(self) -> float:
        """Fraction of cycle time spent on control info (Sec. 4.1)."""
        return self.control_scheme().overhead_fraction(
            self.num_objects, self.object_size_bits
        )


def _field_kinds() -> Dict[str, Tuple[type, ...]]:
    """What ``isinstance`` accepts per field, from the class's annotations."""
    abstract = {int: numbers.Integral, float: numbers.Real}
    kinds = {}
    for name, hint in typing.get_type_hints(SimulationConfig).items():
        concrete = typing.get_args(hint) or (hint,)  # Optional[X] -> (X, NoneType)
        kinds[name] = tuple(abstract.get(kind, kind) for kind in concrete)
    return kinds


_FIELD_KINDS = _field_kinds()

"""Timeline arena: record the authoritative broadcast once, replay it anywhere.

Sharded recompute has every shard derive the authoritative timeline —
cycle process, server process, crash schedule, update clients — from the
config's seeds: correct, but k shards pay k× the timeline cost.  This
module materialises the paper's own asymmetry instead: *one* broadcast,
many observers.

The **recording pass** (the primary shard, run live) retains every
installed broadcast image; :meth:`TimelineArena.from_images` then
serialises that history into flat append-only buffers:

* a **snapshot pool** — the distinct frozen control arrays, deduplicated
  by identity (the server's freeze reuses the previous image across
  quiescent cycles, and a shared-column image memoises the dense array
  it stacks, so identical images *are* the same array object), stacked
  into one dense block;
* a per-cycle **snapshot index** and **version-epoch index** (``-1`` =
  dead air during a crash outage: no image went out at that boundary);
* a **version-epoch table** — per-object indices into an interned
  version-entry store (value, writer, commit cycle), one epoch per
  maximal run of cycles whose committed state is unchanged;
* the **timeline journal** — every timeline-side counter increment as a
  ``(time, field, delta)`` triple.  Under replay this is the *only* form
  the timeline's counters take: the recording pass journals them from
  t = 0 (:class:`RecordingTimelineMetrics`) and
  :meth:`TimelineArena.apply_journal` folds them into the merged
  collector at the run's stop time — the same way whether the arena was
  recorded by this run or reused from the cache.

:meth:`TimelineArena.share` copies the numpy blocks into one
``multiprocessing.shared_memory`` segment and returns a small picklable
:class:`TimelineHandle`; pool workers :meth:`~TimelineArena.attach` and
get zero-copy read-only views.  :class:`TimelineView` turns an arena
back into ``broadcast(cycle)`` — the exact interface
``SharedState.broadcast_for`` and the analytic tier's replay loop
consume — rebuilding each :class:`~repro.broadcast.program.BroadcastCycle`
lazily from the flat buffers (snapshots via
:func:`repro.broadcast.control_info.rebuild_snapshot`).  Reading past
the recorded horizon raises :class:`TimelineExhausted`; the shard layer
falls back to recomputation for that shard, so replay is an
optimisation, never a correctness risk.

On top sits the **cross-run cache** (:data:`TIMELINE_CACHE`): for
update-free, fault-free configs the timeline is a pure function of the
server-side fields + seed (:func:`timeline_fingerprint`), so sweep and
benchmark points that vary only client-side parameters — population
size, delays, cache tiers, executor — reuse the identical arena with
zero recomputation.  Hit/miss counts are surfaced for the benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.control_info import rebuild_snapshot, snapshot_payload
from ..broadcast.program import BroadcastCycle, ObjectVersion
from ..core.group_matrix import Partition
from .engine import Simulator
from .metrics import MetricsCollector

if TYPE_CHECKING:  # type-only: config imports faults, never arena
    from .config import SimulationConfig

__all__ = [
    "TimelineExhausted",
    "TimelineArena",
    "TimelineHandle",
    "TimelineView",
    "TimelineCache",
    "TIMELINE_CACHE",
    "RecordingTimelineMetrics",
    "timeline_fingerprint",
    "timeline_cacheable",
]

#: one recorded timeline-counter increment: (sim time, field name, delta)
JournalEntry = Tuple[float, str, int]


class TimelineExhausted(RuntimeError):
    """A replay needed a cycle beyond the arena's recorded horizon.

    The shard layer catches this and recomputes the affected shard's
    timeline live — bit-identical by construction, just slower.
    """

    def __init__(self, cycle: int, horizon_cycle: int) -> None:
        super().__init__(
            f"replay needs cycle {cycle} but the timeline arena ends at "
            f"cycle {horizon_cycle}; falling back to recomputation"
        )
        self.cycle = cycle
        self.horizon_cycle = horizon_cycle


@dataclass(frozen=True)
class TimelineHandle:
    """A picklable reference to a shared-memory arena.

    The only thing (besides a :class:`~repro.sim.metrics.MetricsCollector`)
    allowed to cross a process boundary in a sharded run: the segment
    name plus the shapes/dtypes/offsets needed to rebuild zero-copy
    views, and the small interned version tables.  No simulator state,
    no server, no numpy payload travels in the pickle.
    """

    shm_name: str
    kind: str
    num_objects: int
    cycle_bits: float
    horizon_time: float
    partition: Optional[Partition]
    #: (shape, dtype string, byte offset) per block, in block order
    blocks: Tuple[Tuple[Tuple[int, ...], str, int], ...]
    values: Tuple[object, ...]
    writers: Tuple[str, ...]


#: the arena's numpy blocks, in the order they are packed into a segment
_BLOCK_NAMES = (
    "snap_pool",
    "snap_index",
    "epoch_index",
    "epoch_table",
    "entry_commit_cycles",
)


class TimelineArena:
    """A sealed broadcast timeline in flat, append-only buffers."""

    def __init__(
        self,
        *,
        kind: str,
        num_objects: int,
        cycle_bits: float,
        horizon_time: float,
        partition: Optional[Partition],
        snap_pool: np.ndarray,
        snap_index: np.ndarray,
        epoch_index: np.ndarray,
        epoch_table: np.ndarray,
        entry_commit_cycles: np.ndarray,
        values: Tuple[object, ...],
        writers: Tuple[str, ...],
        journal: Sequence[JournalEntry] = (),
    ) -> None:
        self.kind = kind
        self.num_objects = num_objects
        self.cycle_bits = cycle_bits
        self.horizon_time = horizon_time
        self.partition = partition
        snap_pool.flags.writeable = False
        self.snap_pool = snap_pool
        self.snap_index = snap_index
        self.epoch_index = epoch_index
        self.epoch_table = epoch_table
        self.entry_commit_cycles = entry_commit_cycles
        self.values = values
        self.writers = writers
        #: timeline-counter increments in time order — the recording
        #: pass's own list, so it keeps growing if that pass is driven
        #: past the horizon; stays parent-side (never shipped to workers)
        self.journal = journal
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._owns_shm = False
        self._offsets: List[int] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def from_images(
        cls,
        images: Dict[int, BroadcastCycle],
        *,
        cycle_bits: float,
        horizon_time: float,
        partition: Optional[Partition],
        journal: Sequence[JournalEntry] = (),
    ) -> "TimelineArena":
        """Serialise a recorded image history into flat buffers.

        Deduplication leans on the server's freeze: the control array
        of a quiescent cycle *is* the previous cycle's array (same
        object — for a matrix, the dense array memoised on the image the
        two cycles share), and the committed-version tuples of
        commit-free stretches share every element — so the pool holds
        one row per distinct image and the epoch table one row per
        commit-separated stretch.
        """
        if not images:
            raise ValueError("cannot seal an empty timeline")
        num_cycles = max(images)
        first = next(iter(images.values()))
        kind, _ = snapshot_payload(first.snapshot)
        num_objects = first.num_objects

        snap_index = np.full(num_cycles, -1, dtype=np.int32)
        epoch_index = np.full(num_cycles, -1, dtype=np.int32)
        pool: List[np.ndarray] = []
        pool_ids: Dict[int, int] = {}
        epochs: List[np.ndarray] = []
        entry_ids: Dict[int, int] = {}
        values: List[object] = []
        writers: List[str] = []
        commit_cycles: List[int] = []
        prev_versions: Optional[Tuple[ObjectVersion, ...]] = None
        prev_epoch = -1

        for cycle in sorted(images):
            image = images[cycle]
            _, array = snapshot_payload(image.snapshot)
            pool_row = pool_ids.get(id(array))
            if pool_row is None:
                pool_row = len(pool)
                pool.append(array)
                pool_ids[id(array)] = pool_row
            snap_index[cycle - 1] = pool_row

            versions = image.versions
            if prev_versions is not None and all(
                a is b for a, b in zip(versions, prev_versions)
            ):
                epoch = prev_epoch
            else:
                row = np.empty(num_objects, dtype=np.int32)
                for obj, version in enumerate(versions):
                    entry = entry_ids.get(id(version))
                    if entry is None:
                        entry = len(values)
                        entry_ids[id(version)] = entry
                        values.append(version.value)
                        writers.append(version.writer)
                        commit_cycles.append(version.commit_cycle)
                    row[obj] = entry
                epoch = len(epochs)
                epochs.append(row)
            epoch_index[cycle - 1] = epoch
            prev_versions = versions
            prev_epoch = epoch

        return cls(
            kind=kind,
            num_objects=num_objects,
            cycle_bits=float(cycle_bits),
            horizon_time=horizon_time,
            partition=partition,
            snap_pool=np.stack(pool),
            snap_index=snap_index,
            epoch_index=epoch_index,
            epoch_table=np.stack(epochs),
            entry_commit_cycles=np.asarray(commit_cycles, dtype=np.int64),
            values=tuple(values),
            writers=tuple(writers),
            journal=journal,
        )

    # -- replay ---------------------------------------------------------
    @property
    def num_cycles(self) -> int:
        return len(self.snap_index)

    def view(self) -> "TimelineView":
        return TimelineView(self)

    def apply_journal(
        self, metrics: "MetricsCollector", *, upto: float
    ) -> None:
        """Fold the recorded timeline counters at stop time ``upto``.

        Equivalent to driving the live timeline to ``upto`` (inclusive,
        matching ``Simulator.run(until=...)``) with ``metrics`` as its
        collector.
        """
        for time, name, delta in self.journal:
            if time <= upto:
                setattr(metrics, name, getattr(metrics, name) + delta)

    # -- shared memory --------------------------------------------------
    def share(self) -> TimelineHandle:
        """Copy the blocks into shared memory; return the picklable handle.

        Idempotent per arena: the segment is created once and reused by
        subsequent calls until :meth:`close_shared`.  The arena itself
        keeps using its local arrays — the segment exists purely for
        workers to attach to, so closing it never invalidates the
        parent's views.
        """
        blocks = [getattr(self, name) for name in _BLOCK_NAMES]
        if self._shm is None:
            offsets: List[int] = []
            size = 0
            for block in blocks:
                size = -(-size // 8) * 8  # 8-byte align each block
                offsets.append(size)
                size += block.nbytes
            shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
            for block, offset in zip(blocks, offsets):
                dest: np.ndarray = np.ndarray(
                    block.shape, dtype=block.dtype, buffer=shm.buf, offset=offset
                )
                dest[...] = block
            self._shm = shm
            self._owns_shm = True
            self._offsets = offsets
        return TimelineHandle(
            shm_name=self._shm.name,
            kind=self.kind,
            num_objects=self.num_objects,
            cycle_bits=self.cycle_bits,
            horizon_time=self.horizon_time,
            partition=self.partition,
            blocks=tuple(
                (block.shape, block.dtype.str, offset)
                for block, offset in zip(blocks, self._offsets)
            ),
            values=self.values,
            writers=self.writers,
        )

    def close_shared(self) -> None:
        """Release the shared segment (the local arrays live on)."""
        if self._shm is not None:
            self._shm.close()
            if self._owns_shm:
                self._shm.unlink()
            self._shm = None
            self._owns_shm = False

    @classmethod
    def attach(cls, handle: TimelineHandle) -> "TimelineArena":
        """Zero-copy attach to a shared arena (worker side).

        The returned arena's arrays are read-only views straight into
        the shared segment; nothing is copied.  The segment stays mapped
        for the worker process's lifetime (the parent owns unlinking).
        """
        # Attach-only segments get (re-)registered with the resource
        # tracker (bpo-39959).  Pool workers are forked, so they share
        # the parent's tracker, whose name cache is a set: the worker's
        # registration is a no-op and the parent's unlink balances the
        # books — no per-worker unregister needed (one would double-
        # remove and crash the tracker).
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        arrays = []
        for (shape, dtype, offset), name in zip(handle.blocks, _BLOCK_NAMES):
            array: np.ndarray = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            array.flags.writeable = False
            arrays.append(array)
        arena = cls(
            kind=handle.kind,
            num_objects=handle.num_objects,
            cycle_bits=handle.cycle_bits,
            horizon_time=handle.horizon_time,
            partition=handle.partition,
            snap_pool=arrays[0],
            snap_index=arrays[1],
            epoch_index=arrays[2],
            epoch_table=arrays[3],
            entry_commit_cycles=arrays[4],
            values=handle.values,
            writers=handle.writers,
        )
        arena._shm = shm  # keep the mapping alive as long as the arena
        arena._owns_shm = False
        return arena


class TimelineView:
    """``broadcast(cycle)`` over an arena — the replay-side drop-in for
    the live ``SharedState.broadcast_for`` / analytic ``_Timeline``.

    Rebuilt cycles are memoised: snapshots wrap zero-copy views of the
    pooled control arrays (one fresh :class:`ControlSnapshot` per cycle,
    since the cycle anchor differs even when the array is shared), and
    each version epoch's :class:`ObjectVersion` tuple is interned once
    and shared by every cycle in the epoch — mirroring the identity
    structure the live server produces.
    """

    __slots__ = ("_arena", "_cycles", "_epochs")

    def __init__(self, arena: TimelineArena) -> None:
        self._arena = arena
        self._cycles: Dict[int, BroadcastCycle] = {}
        self._epochs: Dict[int, Tuple[ObjectVersion, ...]] = {}

    def broadcast(self, cycle: int) -> BroadcastCycle:
        image = self._cycles.get(cycle)
        if image is not None:
            return image
        arena = self._arena
        if cycle > arena.num_cycles:
            raise TimelineExhausted(cycle, arena.num_cycles)
        pool_row = int(arena.snap_index[cycle - 1]) if cycle >= 1 else -1
        if pool_row < 0:
            # dead air (crash outage): mirrors the live broadcast_for
            raise RuntimeError(f"no broadcast image for cycle {cycle}")
        snapshot = rebuild_snapshot(
            arena.kind, cycle, arena.snap_pool[pool_row], arena.partition
        )
        epoch = int(arena.epoch_index[cycle - 1])
        versions = self._epochs.get(epoch)
        if versions is None:
            row = arena.epoch_table[epoch]
            values = arena.values
            writers = arena.writers
            cycles = arena.entry_commit_cycles
            versions = tuple(
                ObjectVersion(obj, values[entry], writers[entry], int(cycles[entry]))
                for obj, entry in enumerate(row)
            )
            self._epochs[epoch] = versions
        image = BroadcastCycle(cycle=cycle, versions=versions, snapshot=snapshot)
        self._cycles[cycle] = image
        return image


class RecordingTimelineMetrics(MetricsCollector):
    """The timeline's collector on a recording pass: a journal.

    The cycle, server and crash processes and the fault runtime get this
    in place of the run's measured collector.  A counter write keeps the
    running total here (``+=`` reads back what it wrote) and is appended
    to :attr:`journal` as ``(now, field, delta)``; nothing reaches the
    measured collector until :meth:`TimelineArena.apply_journal` folds
    the journal at the merged stop time.  The pass therefore needs no
    shielding while it records past its own clients' stop, and a run
    that recorded its arena and a run that found it cached count the
    timeline by the same rule.
    """

    _JOURNALLED = frozenset(MetricsCollector._COUNTER_FIELDS)
    _sim: Simulator
    journal: List[JournalEntry]

    def __init__(self, sim: Simulator) -> None:
        self.__dict__["_sim"] = sim
        self.__dict__["journal"] = []
        super().__init__()

    def __setattr__(self, name: str, value: object) -> None:
        # the zeroing in MetricsCollector.__init__ is not an increment
        old = self.__dict__.get(name)
        if old is not None and name in self._JOURNALLED:
            self.journal.append((self._sim.now, name, value - old))  # type: ignore[operator]
        self.__dict__[name] = value


# -- cross-run cache ----------------------------------------------------

#: config fields the authoritative timeline is a function of when no
#: client ever writes: the broadcast program, the server's workload and
#: clock, and the seed.  Client-side fields (population size, delays,
#: cache tiers, loss, executor, shard count) steer only the observers.
_TIMELINE_FIELDS = (
    "protocol",
    "num_objects",
    "object_size_bits",
    "timestamp_bits",
    "modulo_timestamps",
    "num_groups",
    "layout_kind",
    "hot_fraction",
    "hot_frequency",
    "server_txn_length",
    "server_txn_interval",
    "server_read_probability",
    "server_interval_distribution",
    "seed",
)


def timeline_cacheable(config: "SimulationConfig") -> bool:
    """May this config's timeline be reused across runs?

    Only when the timeline is a pure function of the server side: no
    update-capable clients (their uplink submissions mutate the server,
    entangling the timeline with client-side parameters) and no fault
    plan (doze/uplink schedules are client-shaped, and crash bookkeeping
    is interwoven with client metrics).  Traced runs are excluded too:
    a cached arena carries no span stream, so an untraced run's entry
    would hand a traced run a timeline with its cycle/server spans
    silently missing.
    """
    return (
        config.update_capable_clients() == 0
        and (config.faults is None or config.faults.is_noop)
        and not config.tracing
    )


def timeline_fingerprint(config: "SimulationConfig") -> str:
    """Hash of the server-side fields the timeline depends on."""
    digest = sha256()
    for name in _TIMELINE_FIELDS:
        digest.update(name.encode())
        digest.update(b"=")
        digest.update(repr(getattr(config, name)).encode())
        digest.update(b";")
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Cross-run cache telemetry (surfaced by the benchmarks)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: cached timelines discarded because a run outlived their horizon
    horizon_discards: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "horizon_discards": self.horizon_discards,
        }


class TimelineCache:
    """A small LRU of sealed arenas keyed by timeline fingerprint.

    Entries hold local (non-shared-memory) arrays only; each run that
    reuses one shares it into its own segment and releases it when done,
    so the cache never pins OS-level resources.
    """

    def __init__(self, capacity: int = 4) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[str, TimelineArena]" = OrderedDict()
        self.stats = CacheStats()

    def lookup(self, config: "SimulationConfig") -> Optional[TimelineArena]:
        key = timeline_fingerprint(config)
        arena = self._entries.get(key)
        if arena is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return arena

    def store(self, config: "SimulationConfig", arena: TimelineArena) -> None:
        key = timeline_fingerprint(config)
        self._entries[key] = arena
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def discard(self, config: "SimulationConfig") -> None:
        """Drop a cached timeline a run outgrew (horizon too short)."""
        if self._entries.pop(timeline_fingerprint(config), None) is not None:
            self.stats.horizon_discards += 1

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide cross-run cache (each sweep pool worker has its own)
TIMELINE_CACHE = TimelineCache()

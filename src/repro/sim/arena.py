"""Timeline arena: record the authoritative broadcast once, replay it anywhere.

Sharded recompute has every shard derive the authoritative timeline —
the live broadcast timeline (:mod:`repro.sim.timeline`: cycles, server
completions, crashes) and the update clients — from the config's seeds:
correct, but k shards pay k× the timeline cost.  This
module materialises the paper's own asymmetry instead: *one* broadcast,
many observers.

The **recording pass** (the primary shard, run live) has its timeline
retain every installed broadcast image; :meth:`TimelineArena.from_images` then
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
* the **timeline journal** — the recording timeline's own
  (:attr:`~repro.sim.timeline.LiveTimeline.journal`), shared, not
  copied: per timeline counter, the instant of every increment.  A run
  folds it at its stop time (:func:`~repro.sim.timeline.fold_journal`)
  — the same way whether the arena was recorded by this run or reused
  from the cache.

:meth:`TimelineArena.share` copies the numpy blocks into one
``multiprocessing.shared_memory`` segment and returns a small picklable
:class:`TimelineHandle`; pool workers :meth:`~TimelineArena.attach` and
get zero-copy read-only views.  A run does not wait for the whole
history: the recording pass publishes **chunks** of it (arenas with a
``first_cycle``) on a :class:`TimelineFeed` as it records, and the
replay shards, started before it, read them as they appear.
:class:`TimelineView` turns the chunks back into ``broadcast(cycle)`` —
the interface of the live :class:`~repro.sim.timeline.LiveTimeline`,
which the clients consume, under any executor —
rebuilding each cycle lazily from the flat buffers.  A cycle not published yet blocks the reader; one past the
horizon the feed was closed at raises :class:`TimelineExhausted`, and
the shard layer recomputes that shard, so replay is an optimisation,
never a correctness risk.

On top sits the **cross-run cache** (:data:`TIMELINE_CACHE`): for
update-free, fault-free configs the timeline is a pure function of the
server-side fields + seed (:func:`timeline_fingerprint`), so sweep and
benchmark points that vary only client-side parameters — population
size, delays, cache tiers, executor — reuse the identical arena with
zero recomputation.  Hit/miss counts are surfaced for the benchmarks.
"""

from __future__ import annotations

import mmap
import multiprocessing
import pickle
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from hashlib import sha256
from multiprocessing import resource_tracker, shared_memory
from secrets import token_hex
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.control_info import rebuild_snapshot, snapshot_payload
from ..broadcast.program import BroadcastCycle, ObjectVersion
from ..core.group_matrix import Partition
from ..obs.profiler import PhaseProfiler

if TYPE_CHECKING:  # type-only: config imports faults, never arena
    from .config import SimulationConfig
    from .timeline import Journal

__all__ = [
    "TimelineExhausted",
    "TimelineArena",
    "TimelineHandle",
    "TimelineFeed",
    "TimelineView",
    "TimelineCache",
    "TIMELINE_CACHE",
    "timeline_fingerprint",
    "timeline_cacheable",
]


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
    #: the cycle the index blocks start at (> 1: a chunk of a feed)
    first_cycle: int = 1



#: what a handle carries of an arena besides the blocks' whereabouts
_HANDLE_FIELDS = tuple(
    f.name for f in fields(TimelineHandle) if f.name not in ("shm_name", "blocks")
)

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
        journal: Optional["Journal"] = None,
        first_cycle: int = 1,
    ) -> None:
        self.kind = kind
        self.num_objects = num_objects
        self.cycle_bits = cycle_bits
        self.horizon_time = horizon_time
        #: the cycle ``snap_index[0]`` / ``epoch_index[0]`` describe
        self.first_cycle = first_cycle
        self.partition = partition
        snap_pool.flags.writeable = False
        self.snap_pool = snap_pool
        self.snap_index = snap_index
        self.epoch_index = epoch_index
        self.epoch_table = epoch_table
        self.entry_commit_cycles = entry_commit_cycles
        self.values = values
        self.writers = writers
        #: the recording timeline's own journal, so it keeps growing if
        #: that timeline is driven past the horizon; stays parent-side
        #: (never shipped)
        self.journal: "Journal" = {} if journal is None else journal
        self._shm: Optional[shared_memory.SharedMemory] = None
        #: set while this arena owns (created, will unlink) the segment
        self._handle: Optional[TimelineHandle] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_images(
        cls,
        images: Dict[int, BroadcastCycle],
        *,
        cycle_bits: float,
        horizon_time: float,
        partition: Optional[Partition],
        journal: Optional["Journal"] = None,
        first_cycle: int = 1,
    ) -> "TimelineArena":
        """Serialise a recorded image history — from ``first_cycle`` on:
        past 1, a self-contained **chunk** — into flat buffers.

        Deduplication leans on the server's freeze: the control array
        of a quiescent cycle *is* the previous cycle's array (same
        object — for a matrix, the dense array memoised on the image the
        two cycles share), and the committed-version tuples of
        commit-free stretches share every element — so the pool holds
        one row per distinct image and the epoch table one row per
        commit-separated stretch.
        """
        cycles = sorted(cycle for cycle in images if cycle >= first_cycle)
        if not cycles:
            raise ValueError("cannot seal an empty timeline")
        num_cycles = cycles[-1] - first_cycle + 1
        first = images[cycles[0]]
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

        for cycle in cycles:
            image = images[cycle]
            _, array = snapshot_payload(image.snapshot)
            pool_row = pool_ids.get(id(array))
            if pool_row is None:
                pool_row = len(pool)
                pool.append(array)
                pool_ids[id(array)] = pool_row
            snap_index[cycle - first_cycle] = pool_row

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
            epoch_index[cycle - first_cycle] = epoch
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
            first_cycle=first_cycle,
        )

    # -- replay ---------------------------------------------------------
    @property
    def num_cycles(self) -> int:
        return len(self.snap_index)

    @property
    def last_cycle(self) -> int:
        return self.first_cycle + len(self.snap_index) - 1

    def view(self) -> "TimelineView":
        """This arena as a whole timeline: one chunk, nothing to follow."""
        return TimelineView(lambda index: self if index == 0 else None)

    # -- shared memory --------------------------------------------------
    def share(self, name: Optional[str] = None) -> TimelineHandle:
        """Copy the blocks into shared memory; return the picklable handle.

        Idempotent per arena: the segment is created once (called
        ``name``, if given) and reused by subsequent calls until
        :meth:`close_shared`.  The arena itself keeps using its local
        arrays — the segment exists purely for workers to attach to, so
        closing it never invalidates the parent's views.
        """
        if self._handle is None:
            blocks = [getattr(self, block) for block in _BLOCK_NAMES]
            offsets: List[int] = []
            size = 0
            for block in blocks:
                size = -(-size // 8) * 8  # 8-byte align each block
                offsets.append(size)
                size += block.nbytes
            handle = TimelineHandle(
                shm_name=name or "",
                blocks=tuple(
                    (block.shape, block.dtype.str, offset)
                    for block, offset in zip(blocks, offsets)
                ),
                **{field: getattr(self, field) for field in _HANDLE_FIELDS},
            )
            trailer = pickle.dumps(handle)  # for attach(name=)
            # whole pages: the size read back on attach is then the size
            # asked for on every platform, and the trailer where it ends
            size += len(trailer) + 8
            size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            for block, offset in zip(blocks, offsets):
                dest: np.ndarray = np.ndarray(
                    block.shape, dtype=block.dtype, buffer=shm.buf, offset=offset
                )
                dest[...] = block
            end = size - 8
            shm.buf[end - len(trailer) : end] = trailer
            shm.buf[end:size] = len(trailer).to_bytes(8, "little")
            self._shm = shm
            self._handle = replace(handle, shm_name=shm.name)
        return self._handle

    def close_shared(self) -> None:
        """Release the shared segment (the local arrays live on)."""
        if self._shm is not None:
            self._shm.close()
            if self._handle is not None:
                self._shm.unlink()
            self._shm = self._handle = None

    @classmethod
    def attach(
        cls, handle: Optional[TimelineHandle] = None, *, name: str = ""
    ) -> "TimelineArena":
        """Zero-copy attach to a shared arena (worker side), by its
        handle or — read from the segment's end — by ``name`` alone.

        The returned arena's arrays are read-only views straight into
        the shared segment; nothing is copied.  The segment stays mapped
        for the worker process's lifetime (the parent owns unlinking).
        """
        # Attach-only segments get (re-)registered with the resource
        # tracker (bpo-39959).  Pool workers are forked with the tracker
        # already running (TimelineFeed starts it), so they share the
        # parent's, whose name cache is a set: the worker's registration
        # is a no-op and the parent's unlink balances the books — no
        # per-worker unregister needed (one would double-remove and
        # crash the tracker).
        shm = shared_memory.SharedMemory(name=handle.shm_name if handle else name)
        if handle is None:
            end = shm.size - 8
            length = int.from_bytes(shm.buf[end:], "little")
            handle = pickle.loads(shm.buf[end - length : end])
        arrays = {}
        for (shape, dtype, offset), block in zip(handle.blocks, _BLOCK_NAMES):
            array: np.ndarray = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            array.flags.writeable = False
            arrays[block] = array
        meta = {field: getattr(handle, field) for field in _HANDLE_FIELDS}
        arena = cls(**meta, **arrays)
        arena._shm = shm  # keep the mapping alive as long as the arena
        return arena


class TimelineFeed:
    """A timeline published in chunks while it is being recorded.

    The recording pass :meth:`publish` es sealed chunks, each starting
    where the last ended, and :meth:`close` s the feed at its horizon.  A
    reader's :meth:`chunk` **blocks** until that chunk is published or
    the feed closed (woken by either, never polling).

    A ``shared`` feed serves a pool: each chunk goes into a segment named
    after the feed and the chunk's index, where the workers — forked
    before it existed, handed the feed by the pool's initializer — find
    it.  An unshared feed creates no segment: its readers are in this
    process.  :meth:`release` unlinks the segments.
    """

    def __init__(self, shared: bool) -> None:
        #: the chunks this process has: published here, or attached
        self.chunks: List[TimelineArena] = []
        #: what the segments are called, as SharedMemory names its own
        self._name = f"psm_{token_hex(4)}" if shared else None
        if shared:
            # before the pool forks, so that its workers share this
            # tracker: one a worker started with its first attach would
            # "clean up" the parent's segments when the worker exits
            resource_tracker.ensure_running()
        self._wake = multiprocessing.Condition()
        #: [chunks published, feed closed], guarded by ``_wake``'s lock
        self._state = multiprocessing.RawArray("q", 2)

    def publish(self, chunk: TimelineArena) -> None:
        if self._name is not None:
            chunk.share(f"{self._name}_{len(self.chunks)}")
        self.chunks.append(chunk)
        with self._wake:
            self._state[0] += 1
            self._wake.notify_all()

    def close(self) -> None:
        """Nothing more will be published; every blocked reader wakes."""
        with self._wake:
            self._state[1] = 1
            self._wake.notify_all()

    def release(self) -> None:
        """Unlink every chunk's segment (attached mappings live on)."""
        for chunk in self.chunks:
            chunk.close_shared()

    def chunk(self, index: int) -> Optional[TimelineArena]:
        """Chunk ``index`` (at most one past those read so far), waiting
        for its publication; ``None`` once the feed is closed without it."""
        chunks = self.chunks
        if index == len(chunks):
            state = self._state
            with self._wake:
                self._wake.wait_for(lambda: state[0] > index or state[1])
                if state[0] <= index:
                    return None
            chunks.append(TimelineArena.attach(name=f"{self._name}_{index}"))
        return chunks[index]


class TimelineView:
    """``broadcast(cycle)`` over a timeline's chunks — the replay-side
    drop-in for :class:`~repro.sim.timeline.LiveTimeline`.

    ``source(index)`` yields the chunks (:meth:`TimelineFeed.chunk`; a
    sealed arena is its own one chunk).  A cycle beyond those published
    waits for its chunk — the ``stall`` phase of :attr:`profiler` — and
    raises :class:`TimelineExhausted` once there will be none.

    Rebuilt cycles are memoised: snapshots wrap zero-copy views of the
    pooled control arrays (one fresh :class:`ControlSnapshot` per cycle,
    since the cycle anchor differs even when the array is shared), and
    each version epoch's :class:`ObjectVersion` tuple is interned once
    and shared by every cycle of the epoch in its chunk — mirroring the
    identity structure the live server produces.
    """

    __slots__ = ("_source", "_cycles", "_epochs", "profiler")

    def __init__(self, source: Callable[[int], Optional[TimelineArena]]) -> None:
        self._source = source
        self._cycles: Dict[int, BroadcastCycle] = {}
        self._epochs: Dict[Tuple[int, int], Tuple[ObjectVersion, ...]] = {}
        self.profiler = PhaseProfiler()

    def advance_to(self, time: float) -> None:
        """Nothing to run: a sealed timeline has already happened."""

    def broadcast(self, cycle: int) -> BroadcastCycle:
        image = self._cycles.get(cycle)
        if image is not None:
            return image
        index = horizon = 0
        while True:
            with self.profiler.phase("stall"):
                arena = self._source(index)
            if arena is None:
                raise TimelineExhausted(cycle, horizon)
            if cycle <= arena.last_cycle:
                break
            index, horizon = index + 1, arena.last_cycle
        slot = cycle - arena.first_cycle
        pool_row = int(arena.snap_index[slot]) if slot >= 0 else -1
        if pool_row < 0:
            # dead air (crash outage): mirrors the live timeline
            raise RuntimeError(f"no broadcast image for cycle {cycle}")
        snapshot = rebuild_snapshot(
            arena.kind, cycle, arena.snap_pool[pool_row], arena.partition
        )
        epoch = int(arena.epoch_index[slot])
        versions = self._epochs.get((index, epoch))
        if versions is None:
            row = arena.epoch_table[epoch]
            values = arena.values
            writers = arena.writers
            cycles = arena.entry_commit_cycles
            versions = tuple(
                ObjectVersion(obj, values[entry], writers[entry], int(cycles[entry]))
                for obj, entry in enumerate(row)
            )
            self._epochs[index, epoch] = versions
        image = BroadcastCycle(cycle=cycle, versions=versions, snapshot=snapshot)
        self._cycles[cycle] = image
        return image


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
    """A small LRU of sealed timelines — each the chunks a recording
    pass published it in — keyed by timeline fingerprint.

    Entries hold local (non-shared-memory) arrays only; each run that
    reuses one shares it into its own segments and releases them when
    done, so the cache never pins OS-level resources.
    """

    def __init__(self, capacity: int = 4) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[str, Sequence[TimelineArena]]" = OrderedDict()
        self.stats = CacheStats()

    def lookup(self, config: "SimulationConfig") -> Optional[Sequence[TimelineArena]]:
        key = timeline_fingerprint(config)
        chunks = self._entries.get(key)
        if chunks is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return chunks

    def store(self, config: "SimulationConfig", chunks: Sequence[TimelineArena]) -> None:
        key = timeline_fingerprint(config)
        self._entries[key] = chunks
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

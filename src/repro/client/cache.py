"""Quasi-caching for weak currency requirements (Sec. 3.3).

If a client only needs data current to within ``T`` time units, objects
read off the broadcast may be cached and served locally until their
currency expires — *without any communication*: invalidation is purely
local.  To keep transactions mutually consistent when they mix cached and
fresh reads, each cache entry stores the control information that
accompanied the object when it was cached (for F-Matrix, the object's
matrix column; we retain the whole immutable per-cycle snapshot — for a
server-made image ``n`` references to columns it shares with its
neighbours, not an ``n × n`` copy — of which a real client would keep
just the relevant column/vector).  A cached read
is then validated through the *same* read-condition code path as an
off-air read, anchored at the cached cycle.

A cache has one currency bound ``T``, the paper's per-client bound; the
paper allows tailoring it per object too, which no configuration here
does.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..broadcast.program import BroadcastCycle, ObjectVersion
from ..core.validators import ControlSnapshot

__all__ = ["CacheEntry", "QuasiCache"]


class CacheEntry(NamedTuple):
    """One cached object version plus its validation context.

    A named tuple: immutable, and built without the per-field
    ``object.__setattr__`` a frozen dataclass pays on every insert.
    """

    version: ObjectVersion
    snapshot: ControlSnapshot
    #: bit-time at which the entry was cached (start of staleness clock)
    cached_at: float

    @property
    def obj(self) -> int:
        return self.version.obj

    def as_broadcast(self) -> BroadcastCycle:
        """Present the entry as a one-object broadcast for the runtime.

        The runtime reads through :meth:`BroadcastCycle.version`, so the
        view holds the one cached version and nothing else — accessing any
        *other* object through a cache-entry broadcast is a bug and raises
        ``IndexError`` with the offending ids.
        """
        return _CacheEntryCycle(self.snapshot.cycle, (self.version,), self.snapshot)


class _CacheEntryCycle(BroadcastCycle):
    """A one-object broadcast view over a cache entry.

    Only the cached object is present; :meth:`version` rejects every
    other id eagerly so a mis-indexed access fails at the read site with
    a clear message instead of handing a ``None`` downstream.

    One is built per cache hit, so it stores its (frozen) fields straight
    into its ``__dict__`` instead of paying a frozen dataclass's per-field
    ``object.__setattr__``.
    """

    def __init__(
        self,
        cycle: int,
        versions: Tuple[ObjectVersion, ...],
        snapshot: ControlSnapshot,
    ) -> None:
        fields = self.__dict__
        fields["cycle"] = cycle
        fields["versions"] = versions
        fields["snapshot"] = snapshot

    def version(self, obj: int) -> ObjectVersion:
        (cached,) = self.versions
        if obj != cached.obj:
            raise IndexError(
                f"cache-entry broadcast holds only object {cached.obj}; "
                f"object {obj} must be read off the air"
            )
        return cached


class QuasiCache:
    """Per-client object cache with local, currency-based invalidation."""

    def __init__(
        self,
        currency_bound: float,
        *,
        capacity: Optional[int] = None,
    ):
        if currency_bound < 0:
            raise ValueError("currency bound must be non-negative")
        #: T: an entry serves hits until it is this many bit-units old
        self.currency_bound = currency_bound
        self.capacity = capacity
        self._entries: Dict[int, CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: int) -> bool:
        return obj in self._entries

    # ------------------------------------------------------------------
    def insert(self, broadcast: BroadcastCycle, obj: int, now: float) -> CacheEntry:
        """Cache an object just read from a broadcast cycle.

        At capacity, entries past their currency bound are dropped first
        — an expired entry can never serve another hit, so evicting a
        still-fresh one while a dead one survives (until a later lookup
        happens to touch it) wastes cache space.  Only if every resident
        entry is still fresh does the capacity policy fall back to
        evicting the stalest (oldest ``cached_at``).
        """
        entry = CacheEntry(broadcast.version(obj), broadcast.snapshot, now)
        if (
            self.capacity is not None
            and obj not in self._entries
            and len(self._entries) >= self.capacity
        ):
            self.expire(now)
            if len(self._entries) >= self.capacity:
                # evict the stalest entry (oldest cached_at) — [2]-style policy
                evict = min(self._entries.values(), key=lambda e: e.cached_at)
                del self._entries[evict.obj]
        self._entries[obj] = entry
        return entry

    def lookup(self, obj: int, now: float) -> Optional[CacheEntry]:
        """A fresh-enough entry, or None.  Expired entries are dropped."""
        entry = self._entries.get(obj)
        if entry is None:
            self.misses += 1
            return None
        if now - entry.cached_at > self.currency_bound:
            del self._entries[obj]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def evict(self, obj: int) -> bool:
        """Drop one entry (e.g. after it was implicated in a failed
        validation — keeping it would just re-abort the retry)."""
        return self._entries.pop(obj, None) is not None

    def expire(self, now: float) -> int:
        """Drop every entry past its currency bound; returns count dropped."""
        stale = [
            obj
            for obj, entry in self._entries.items()
            if now - entry.cached_at > self.currency_bound
        ]
        for obj in stale:
            del self._entries[obj]
        return len(stale)

"""Workload generators (Table 1 of the paper).

* :class:`ServerWorkload` — update transactions completing at the server:
  each has ``length`` operations, each operation is a read with
  probability ``read_probability`` (else a write), objects drawn uniformly
  without replacement (the formal model reads/writes an object at most
  once per transaction).
* :class:`ClientWorkload` — read-only client transactions: ``length``
  distinct objects drawn uniformly.

All generators draw from a private :class:`random.Random` stream so runs
are reproducible and independent of each other.  The uniform draw is
:func:`sample_ids`: the stdlib's ``Random.sample`` over ``range(n)``,
written out on ``getrandbits``.  A Table-1 run makes one per server
transaction, the generic method's preamble (population and counts
handling, a method call per draw) cost more than the draws themselves,
and every pinned digest rests on the draw *order* — so the helper
replays the stdlib's algorithm call for call rather than drawing some
other, faster way.  Its one copy is :func:`id_sampler`, which does the
per-call setup once for a fixed ``(n, k)``; :class:`ServerWorkload`
holds one.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Tuple

__all__ = [
    "ServerTransactionSpec",
    "ServerWorkload",
    "ClientWorkload",
    "id_sampler",
    "sample_ids",
]


@lru_cache(maxsize=64)
def id_sampler(n: int, k: int) -> Callable[[random.Random], List[int]]:
    """:func:`sample_ids` for one ``(n, k)``, as a function of the stream
    alone: the checks and the per-call setup (the stdlib's set size, the
    bit lengths) are done here, once per ``(n, k)`` — cached, so the
    thousands of clients of one run share one sampler.

    CPython's ``Random.sample`` swaps out of a pool when ``n`` is no larger
    than a ``k``-element set would be, and otherwise rejects repeats; both
    draw ``getrandbits(m.bit_length())`` until the result is below ``m``.
    A repeat is found by scanning the ids drawn so far: ``k`` is one
    transaction's length.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    # the stdlib's 21 + 4 ** ceil(log(3k, 4)) for k > 5, in integers: the
    # smallest power of four not below 3k (3k is never one, so the float
    # logarithm lands on the same exponent)
    setsize = 21 if k <= 5 else 21 + 4 ** (((3 * k - 1).bit_length() + 1) // 2)
    if n <= setsize:
        widths = [(m, m.bit_length()) for m in range(n, n - k, -1)]

        def from_pool(rng: random.Random) -> List[int]:
            getrandbits = rng.getrandbits
            pool = list(range(n))
            result: List[int] = []
            for m, bits in widths:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result.append(pool[j])
                pool[j] = pool[m - 1]
            return result

        return from_pool
    bits = n.bit_length()
    draws = range(k)

    def by_rejection(rng: random.Random) -> List[int]:
        getrandbits = rng.getrandbits
        result: List[int] = []
        append = result.append
        for _ in draws:
            j = getrandbits(bits)
            while j >= n or j in result:
                j = getrandbits(bits)
            append(j)
        return result

    return by_rejection


def sample_ids(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``, draw for draw, leaving ``rng`` in the same state."""
    return id_sampler(n, k)(rng)


class ServerTransactionSpec(NamedTuple):
    """One generated server update transaction."""

    tid: str
    read_set: Tuple[int, ...]
    write_set: Tuple[int, ...]

    @property
    def is_update(self) -> bool:
        return bool(self.write_set)


class ServerWorkload:
    """Uniform-access server update transactions (Table 1 defaults)."""

    def __init__(
        self,
        num_objects: int,
        *,
        length: int = 8,
        read_probability: float = 0.5,
        seed: int = 0,
        tid_prefix: str = "s",
    ):
        if length < 1:
            raise ValueError("length must be >= 1")
        if not 0.0 <= read_probability <= 1.0:
            raise ValueError("read_probability must be in [0, 1]")
        if length > num_objects:
            raise ValueError("length cannot exceed num_objects (no repeats)")
        self.num_objects = num_objects
        self.length = length
        self.read_probability = read_probability
        self._rng = random.Random(seed)
        self._sample = id_sampler(num_objects, length)
        self._counter = itertools.count(1)
        self._tid_prefix = tid_prefix

    def next_transaction(self) -> ServerTransactionSpec:
        rng, p = self._rng, self.read_probability
        draw = rng.random
        reads: List[int] = []
        writes: List[int] = []
        for obj in self._sample(rng):
            (reads if draw() < p else writes).append(obj)
        tid = f"{self._tid_prefix}{next(self._counter)}"
        # what ``_make`` does, without the generated ``__new__``'s call
        return tuple.__new__(ServerTransactionSpec, (tid, tuple(reads), tuple(writes)))

    def __iter__(self) -> Iterator[ServerTransactionSpec]:
        while True:
            yield self.next_transaction()


class ClientWorkload:
    """Read-only client transactions: uniform or hot/cold-skewed access.

    With ``access_skew > 0``, each read targets the *hot set* (the first
    ``ceil(hot_fraction · n)`` objects) with that probability and the cold
    remainder otherwise — the classic broadcast-disk access pattern that
    multi-speed layouts exploit.  ``access_skew = 0`` (the paper's
    setting) is plain uniform sampling.
    """

    def __init__(
        self,
        num_objects: int,
        *,
        length: int = 4,
        seed: int = 0,
        tid_prefix: str = "c",
        access_skew: float = 0.0,
        hot_fraction: float = 0.2,
    ):
        if length < 1:
            raise ValueError("length must be >= 1")
        if length > num_objects:
            raise ValueError("length cannot exceed num_objects (no repeats)")
        if not 0.0 <= access_skew <= 1.0:
            raise ValueError("access_skew must be in [0, 1]")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        self.num_objects = num_objects
        self.length = length
        self.access_skew = access_skew
        self.hot_set_size = max(1, int(num_objects * hot_fraction))
        self._rng = random.Random(seed)
        self._counter = itertools.count(1)
        self._tid_prefix = tid_prefix

    def next_read_set(self) -> Tuple[int, ...]:
        if self.access_skew <= 0.0:
            return tuple(sample_ids(self._rng, self.num_objects, self.length))
        hot = list(range(self.hot_set_size))
        cold = list(range(self.hot_set_size, self.num_objects))
        chosen: List[int] = []
        for _ in range(self.length):
            pool = hot if (cold == [] or (hot and self._rng.random() < self.access_skew)) else cold
            obj = self._rng.choice(pool)
            pool.remove(obj)
            chosen.append(obj)
        return tuple(chosen)

    def next_transaction(self) -> Tuple[str, Tuple[int, ...]]:
        return f"{self._tid_prefix}{next(self._counter)}", self.next_read_set()

    def __iter__(self) -> Iterator[Tuple[str, Tuple[int, ...]]]:
        while True:
            yield self.next_transaction()

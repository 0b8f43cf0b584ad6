"""Workload generators (Table 1 of the paper) and the clients' random tapes.

* :class:`ServerWorkload` — update transactions completing at the server:
  each has ``length`` operations, each operation is a read with
  probability ``read_probability`` (else a write), objects drawn uniformly
  without replacement (the formal model reads/writes an object at most
  once per transaction).
* :class:`ClientWorkload` — read-only client transactions: ``length``
  distinct objects drawn uniformly.
* :class:`UniformTape` — a client's other stream: the update gate, radio
  loss and think times, all ``random()`` draws.

Every stream is the sequence of a seeded :class:`random.Random`, so runs
are reproducible; the caller picks each stream's seed.  The server's
workload, one per run, holds its generator.  A client's two streams do
not: a Mersenne-Twister state is 2.5 KiB, and a run may have 65,536
clients, each of which is otherwise a read set and a cursor (Secs.
3.2.1, 3.3).  A client stream is a *tape* instead — its seed, a cursor
and a few pre-drawn values.  When a tape runs out, the one module-level
generator :data:`TAPE_RNG` is reseeded with the stream's seed, skips
what the tape already handed out, and draws the next chunk at C speed.
Chunks double, so a tape reseeds a logarithmic number of times — until
a uniform tape's chunks reach :data:`TAPE_MAX_UNIFORMS`, the size of
MT's state; from there it reseeds once per chunk.  Every value is the
one ``random.Random(seed)`` would have returned, draw for draw.  A
refill runs start to end without yielding, so tapes may interleave
freely within one thread.

The uniform id draw is :func:`sample_ids`: the stdlib's ``Random.sample``
over ``range(n)``, written out on ``getrandbits``.  A Table-1 run makes
one per server transaction, the generic method's preamble (population
and counts handling, a method call per draw) cost more than the draws
themselves, and every pinned digest rests on the draw *order* — so the
helper replays the stdlib's algorithm call for call rather than drawing
some other, faster way.  Its one copy is :func:`id_sampler`, which does
the per-call setup once for a fixed ``(n, k)``; :class:`ServerWorkload`
holds one, and a :class:`ClientWorkload` block draw runs one.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import deque
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple

__all__ = [
    "ServerTransactionSpec",
    "ServerWorkload",
    "ClientWorkload",
    "TAPE_MAX_UNIFORMS",
    "TAPE_RNG",
    "UniformTape",
    "id_sampler",
    "sample_ids",
]

#: the one generator behind every client tape: reseeded with a stream's
#: seed at each refill, so it carries nothing from one refill to the next
TAPE_RNG = random.Random(0)

#: a uniform tape's largest chunk: 312 doubles, the 624 32-bit words of
#: the Mersenne-Twister state it stands in for
TAPE_MAX_UNIFORMS = 312

#: a uniform tape's first chunk, and a read-set tape's first block
_FIRST_UNIFORMS = 64
_FIRST_READ_SETS = 4


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

    def next_transaction(self) -> ServerTransactionSpec:
        rng, p = self._rng, self.read_probability
        draw = rng.random
        reads: List[int] = []
        writes: List[int] = []
        for obj in self._sample(rng):
            (reads if draw() < p else writes).append(obj)
        tid = f"s{next(self._counter)}"
        # what ``_make`` does, without the generated ``__new__``'s call
        return tuple.__new__(ServerTransactionSpec, (tid, tuple(reads), tuple(writes)))

    def __iter__(self) -> Iterator[ServerTransactionSpec]:
        while True:
            yield self.next_transaction()


class UniformTape:
    """``random.Random(seed).random()``, draw for draw, without its state.

    Read a draw as ``uniforms[cursor]`` and advance ``cursor``; when the
    cursor reaches the end, :meth:`refill` first.  The client kernel's
    think draw does exactly that, inline: a method call per draw costs
    more than the draw.  :meth:`random` is the same read behind a call,
    for the rarer draws.
    """

    __slots__ = ("seed", "uniforms", "cursor", "spent")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the current chunk, read from ``cursor`` on
        self.uniforms: Sequence[float] = ()
        self.cursor = 0
        #: uniforms handed out before the current chunk
        self.spent = 0

    def refill(self) -> Sequence[float]:
        """Replace the spent chunk with the stream's next one, and rewind.

        Each ``random()`` consumes two 32-bit words, so one
        ``getrandbits(64 * spent)`` steps a freshly seeded generator past
        everything handed out so far.
        """
        spent = self.spent = self.spent + len(self.uniforms)
        size = min(max(2 * len(self.uniforms), _FIRST_UNIFORMS), TAPE_MAX_UNIFORMS)
        rng = TAPE_RNG
        rng.seed(self.seed)
        if spent:
            rng.getrandbits(64 * spent)
        self.uniforms = array(
            "d", list(itertools.starmap(rng.random, itertools.repeat((), size)))
        )
        self.cursor = 0
        return self.uniforms

    def random(self) -> float:
        uniforms, i = self.uniforms, self.cursor
        if i == len(uniforms):
            uniforms, i = self.refill(), 0
        self.cursor = i + 1
        return uniforms[i]


class ClientWorkload:
    """Read-only client transactions: uniform or hot/cold-skewed access.

    With ``access_skew > 0``, each read targets the *hot set* (the first
    ``ceil(hot_fraction · n)`` objects) with that probability and the cold
    remainder otherwise — the classic broadcast-disk access pattern that
    multi-speed layouts exploit.  ``access_skew = 0`` (the paper's
    setting) is plain uniform sampling.
    """

    __slots__ = (
        "num_objects",
        "length",
        "access_skew",
        "hot_set_size",
        "_seed",
        "_block",
        "_drawn",
        "_serial",
    )

    def __init__(
        self,
        num_objects: int,
        *,
        length: int = 4,
        seed: int = 0,
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
        # the stream as a tape: the read sets drawn and not yet handed
        # out, last first, and how many sets were drawn in all
        self._seed = seed
        self._block: List[Tuple[int, ...]] = []
        self._drawn = 0
        self._serial = 0

    def _skewed(self, rng: random.Random) -> List[int]:
        """One skewed read set off ``rng``: each read picks the hot set
        with probability ``access_skew`` (no draw once either side is
        empty), then an object of it uniformly."""
        hot = list(range(self.hot_set_size))
        cold = list(range(self.hot_set_size, self.num_objects))
        chosen: List[int] = []
        for _ in range(self.length):
            pool = hot if (cold == [] or (hot and rng.random() < self.access_skew)) else cold
            obj = rng.choice(pool)
            pool.remove(obj)
            chosen.append(obj)
        return chosen

    def _refill(self) -> List[Tuple[int, ...]]:
        """Draw the stream's next block of read sets.

        A read set consumes a data-dependent number of words, so a freshly
        seeded generator is stepped past the sets already drawn by drawing
        them again; each block is as large as everything drawn before it,
        so that replay costs no more than the draws it repeats.
        """
        drawn = self._drawn
        draw = (
            id_sampler(self.num_objects, self.length)
            if self.access_skew <= 0.0
            else self._skewed
        )
        rng = TAPE_RNG
        rng.seed(self._seed)
        deque(map(draw, itertools.repeat(rng, drawn)), maxlen=0)
        size = max(drawn, _FIRST_READ_SETS)
        block = self._block = list(map(tuple, map(draw, itertools.repeat(rng, size))))
        block.reverse()
        self._drawn = drawn + size
        return block

    def next_read_set(self) -> Tuple[int, ...]:
        block = self._block
        if not block:
            block = self._refill()
        return block.pop()

    def next_transaction(self) -> Tuple[str, Tuple[int, ...]]:
        self._serial += 1
        return f"c{self._serial}", self.next_read_set()

    def __iter__(self) -> Iterator[Tuple[str, Tuple[int, ...]]]:
        while True:
            yield self.next_transaction()

"""Fault injection: client doze intervals, uplink loss, server crashes.

The paper's protocols assume clients hear every cycle's control
information and that no transaction spans more than ``max_cycles``
cycles (Sec. 3.2.1) — but broadcast environments exist precisely for
huge, flaky, battery-constrained client populations that doze, lose
slots and rejoin.  This module makes those failure modes first-class,
deterministic simulation inputs:

* :class:`FaultPlan` — a frozen, seedable schedule attached to
  :class:`repro.sim.config.SimulationConfig`: per-client
  :class:`DozeInterval` radio-off windows, :class:`ServerCrash`
  crash+recovery events, and uplink submission loss for client update
  transactions (retried under the module's fixed timeout and backoff);
* :class:`FaultRuntime` — what a run asks of the plan (is this client
  dozing? was this slot heard? was this submission lost?), charging
  every missed slot to a cause-attributed metric.

The crashes themselves — the server killed, rebuilt from its durable
state by :func:`repro.server.recovery.recover_server`, the downtime
replayed as quiescent cycles — are events of the broadcast timeline
(:mod:`repro.sim.timeline`), which alone says whether the server is up.

Everything is derived from the plan and the config seed: two runs with
the same config (including its plan) are bit-identical.  A ``None`` (or
no-op) plan builds no runtime at all, so zero-fault runs are
bit-identical to runs of a build without this module.
"""

from __future__ import annotations

import dataclasses
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

if TYPE_CHECKING:  # type-only: metrics is not needed to build a plan
    from .metrics import MetricsCollector

__all__ = [
    "DozeInterval",
    "ServerCrash",
    "FaultPlan",
    "FaultRuntime",
    "UPLINK_MAX_RETRIES",
    "UPLINK_TIMEOUT",
    "UPLINK_BACKOFF",
]

#: resubmissions before a lost update transaction gives up and aborts
UPLINK_MAX_RETRIES = 3
#: bit-units a client waits for a verdict before declaring loss
UPLINK_TIMEOUT = 16_384.0
#: verdict-timeout multiplier per successive retry
UPLINK_BACKOFF = 2.0

_T = TypeVar("_T")

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: numpy's ``SeedSequence`` hash constants (``numpy/random/bit_generator.pyx``)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(n: int) -> List[int]:
    """``n`` as little-endian 32-bit words, as ``SeedSequence`` reads it."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: Sequence[int]) -> List[int]:
    """``SeedSequence(entropy).generate_state(4, numpy.uint64)`` in Python.

    The pool of four 32-bit words is filled by ``hashmix`` and then
    cross-mixed, each word into every other, as numpy does; entropy past
    the fourth word is mixed into every pool word afterwards.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _UplinkStream:
    """numpy's ``default_rng(SeedSequence((seed, client)))``, draw for draw.

    A PCG64 generator (128-bit LCG, XSL-RR output) seeded as numpy seeds
    it, whose :meth:`random` returns the very doubles
    ``Generator.random()`` does — computed in Python, so a faulted run
    never loads numpy's random package (about 2 MiB resident).
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, client: int) -> None:
        s0, s1, s2, s3 = _seed_sequence_state(
            _entropy_words(seed) + _entropy_words(client)
        )
        # pcg64_set_seed: inc = 2 * initseq + 1; from state 0 one step
        # (which gives inc), add initstate, step again
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128

    def random(self) -> float:
        """The next double in ``[0, 1)``: the top 53 bits of a 64-bit draw."""
        state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        return (word >> 11) * (1.0 / 9007199254740992.0)


def _build(
    cls: Type[_T],
    owner: str,
    payload: object,
    fields: Mapping[str, Callable[[Any], object]],
) -> _T:
    """``cls(**entries)`` from a decoded JSON/YAML mapping.

    The one decoder of every fault document: unknown keys are rejected
    (a typo silently falling back to a default would un-pin the run), a
    missing or ill-typed entry is a ``ValueError`` that names it, and
    absent optional keys are left to the dataclass defaults, which are
    therefore written down once.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{owner} must be a mapping, got {payload!r}")
    unknown = sorted(set(payload) - set(fields), key=str)
    if unknown:
        raise ValueError(
            f"unknown {owner} key(s) {unknown}; known keys: {sorted(fields)}"
        )
    decoded: Dict[str, object] = {}
    for key, value in payload.items():
        try:
            if isinstance(value, bool):
                raise TypeError("a bool is not a number")
            decoded[key] = fields[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{owner} {key!r}: {exc}") from None
    missing = [
        f.name
        for f in dataclasses.fields(cls)  # type: ignore[arg-type]
        if f.default is dataclasses.MISSING and f.name not in decoded
    ]
    if missing:
        raise ValueError(f"{owner} requires {missing}")
    return cls(**decoded)


def _list_of(kind: Any) -> Callable[[Any], object]:
    """Converter for a list of ``kind.from_dict`` documents (null = none)."""

    def convert(value: Any) -> object:
        if value is None:
            return ()
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {value!r}")
        return tuple(kind.from_dict(entry) for entry in value)

    return convert


@dataclass(frozen=True)
class DozeInterval:
    """One client's radio is off during ``[start, start + duration)``.

    Times are bit-units.  Only the *radio* sleeps: local think time and
    cache reads proceed, but every broadcast slot overlapping the
    interval goes unheard and the client re-tunes at the object's next
    appearance — exactly the radio-loss retry path, minus the RNG draw.
    """

    client: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.client < 0:
            raise ValueError("client must be >= 0")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (scenario files, recorded traces)."""
        return {
            "client": self.client,
            "start": self.start,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DozeInterval":
        return _build(
            cls,
            "doze interval",
            payload,
            {"client": int, "start": float, "duration": float},
        )


@dataclass(frozen=True)
class ServerCrash:
    """The server loses all volatile state at ``time``.

    For ``downtime`` bit-units the air is dead (no broadcast images, no
    server completions, no uplink verdicts); then the server is rebuilt
    from its durable state — the commit log and the broadcast cycle
    recorded alongside it — and the missed cycles are replayed as
    quiescent cycles.
    """

    time: float
    downtime: float

    def __post_init__(self) -> None:
        if self.time <= 0:
            raise ValueError("crash time must be > 0")
        if self.downtime <= 0:
            raise ValueError("downtime must be > 0")

    @property
    def end(self) -> float:
        return self.time + self.downtime

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (scenario files, recorded traces)."""
        return {"time": self.time, "downtime": self.downtime}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ServerCrash":
        return _build(cls, "crash", payload, {"time": float, "downtime": float})


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one simulation run."""

    #: per-client radio-off windows (any order; validated non-overlapping
    #: per client)
    doze: Tuple[DozeInterval, ...] = ()
    #: mid-run server crash + recovery events (validated non-overlapping)
    crashes: Tuple[ServerCrash, ...] = ()
    #: probability an uplink submission is lost in transit (a lost one is
    #: retried under UPLINK_MAX_RETRIES / UPLINK_TIMEOUT / UPLINK_BACKOFF)
    uplink_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "doze", tuple(self.doze))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        if not 0.0 <= self.uplink_loss_probability < 1.0:
            raise ValueError("uplink_loss_probability must be in [0, 1)")
        per_client: Dict[int, List[DozeInterval]] = {}
        for interval in self.doze:
            per_client.setdefault(interval.client, []).append(interval)
        for client, intervals in per_client.items():
            intervals.sort(key=lambda iv: iv.start)
            for a, b in zip(intervals, intervals[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"client {client} doze intervals overlap: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )
        ordered = sorted(self.crashes, key=lambda c: c.time)
        for a, b in zip(ordered, ordered[1:]):
            if b.time < a.end:
                raise ValueError(
                    f"server crashes overlap: [{a.time}, {a.end}) and "
                    f"[{b.time}, {b.end})"
                )
        object.__setattr__(self, "crashes", tuple(ordered))

    @property
    def is_noop(self) -> bool:
        """Does this plan inject nothing at all?

        A no-op plan is treated exactly like ``faults=None``: no fault
        runtime is built and the run is bit-identical to a zero-fault run.
        """
        return (
            not self.doze
            and not self.crashes
            and self.uplink_loss_probability <= 0.0
        )

    @property
    def max_doze_client(self) -> int:
        """Largest client index named by a doze interval (-1 if none)."""
        return max((iv.client for iv in self.doze), default=-1)

    def to_dict(self) -> Dict[str, object]:
        """The plan as a JSON-ready dict, losslessly round-trippable.

        What scenario files and recorded traces persist; the inverse is
        :meth:`from_dict` and the pair satisfies
        ``FaultPlan.from_dict(plan.to_dict()) == plan``.
        """
        return {
            "doze": [interval.to_dict() for interval in self.doze],
            "crashes": [crash.to_dict() for crash in self.crashes],
            "uplink_loss_probability": self.uplink_loss_probability,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultPlan":
        return _build(
            cls,
            "faults",
            payload,
            {
                "doze": _list_of(DozeInterval),
                "crashes": _list_of(ServerCrash),
                "uplink_loss_probability": float,
            },
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        num_clients: int,
        horizon: float,
        mean_time_between_dozes: float = 0.0,
        mean_doze_duration: float = 0.0,
        crashes: Sequence[ServerCrash] = (),
        uplink_loss_probability: float = 0.0,
    ) -> "FaultPlan":
        """A reproducible plan drawn from its own seed.

        Each client dozes in an alternating renewal process over
        ``[0, horizon)``: exponential on-times with mean
        ``mean_time_between_dozes`` followed by exponential radio-off
        times with mean ``mean_doze_duration`` (zero for either disables
        dozing).  The draw order is fixed, so the plan — like everything
        else in a run — is a pure function of its arguments.
        """
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 0 < horizon < math.inf:  # an endless horizon never stops drawing
            raise ValueError("horizon must be > 0 and finite")
        rng = random.Random(seed)
        doze: List[DozeInterval] = []
        if mean_time_between_dozes > 0 and mean_doze_duration > 0:
            for client in range(num_clients):
                t = rng.expovariate(1.0 / mean_time_between_dozes)
                while t < horizon:
                    duration = rng.expovariate(1.0 / mean_doze_duration)
                    doze.append(DozeInterval(client, t, duration))
                    t += duration + rng.expovariate(1.0 / mean_time_between_dozes)
        return cls(
            doze=tuple(doze),
            crashes=tuple(crashes),
            uplink_loss_probability=uplink_loss_probability,
        )


class FaultRuntime:
    """What a run's clients and timeline ask of the plan, answered from it.

    Everything here is plan data plus one random stream per updating
    client: the server's outage windows, the clients' doze windows, the
    uplink-loss draws (numpy's PCG64 stream, computed in Python).  The
    crashes themselves happen in the broadcast timeline
    (:class:`repro.sim.timeline.LiveTimeline`); nothing here follows it.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        #: root of the per-client uplink-loss stream tree (config seed)
        self._seed = seed
        self._uplink_streams: Dict[int, _UplinkStream] = {}
        #: every outage as an open ``(crash.time, crash.end)`` window: a
        #: slot carried dead air iff it overlaps one (see slot_heard)
        self._outages: Tuple[Tuple[float, float], ...] = tuple(
            (crash.time, crash.end) for crash in plan.crashes
        )
        per_client: Dict[int, List[DozeInterval]] = {}
        for interval in plan.doze:
            per_client.setdefault(interval.client, []).append(interval)
        #: each client's doze windows as sorted starts and their
        #: durations: the plan refuses overlaps, so the ends ascend too,
        #: and a lookup bisects to the one window that can hold the
        #: instant or overlap the slot, then adds that window's end
        #: exactly as ``DozeInterval.end`` does (the plan's own floats,
        #: no end stored per window)
        self._doze: Dict[int, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        for client, intervals in per_client.items():
            intervals.sort(key=lambda iv: iv.start)
            self._doze[client] = (
                tuple(iv.start for iv in intervals),
                tuple(iv.duration for iv in intervals),
            )

    # -- client radio ---------------------------------------------------
    def doze_wake(self, client: int, now: float) -> Optional[float]:
        """The wake-up time if ``client`` is dozing at ``now``, else None."""
        windows = self._doze.get(client)
        if windows is not None:
            starts, durations = windows
            # the last window starting at or before ``now`` is the only
            # one that can hold it
            i = bisect_right(starts, now) - 1
            if i >= 0:
                end = starts[i] + durations[i]
                if now < end:
                    return end
        return None

    def slot_heard(
        self,
        client: int,
        start: float,
        end: float,
        metrics: "MetricsCollector",
    ) -> bool:
        """Was the broadcast slot ``[start, end]`` fully received?

        A slot overlapping a server outage carried dead air — also one
        whose wait began before the crash and ends after the recovery; a
        slot overlapping one of the client's doze intervals found the
        radio off.  Either way the read re-tunes at the object's next
        appearance, and the miss is charged to its cause in ``metrics``,
        the collector that measures ``client``.
        """
        for outage_start, outage_end in self._outages:
            if outage_start < end and start < outage_end:
                metrics.crash_slot_stalls += 1
                return False
        windows = self._doze.get(client)
        if windows is not None:
            starts, durations = windows
            # the last window starting before the slot ends is the only
            # one that can overlap it: every earlier one ends before that
            # one starts
            i = bisect_left(starts, end) - 1
            if i >= 0 and start < starts[i] + durations[i]:
                metrics.doze_slots_missed += 1
                return False
        return True

    # -- client uplink --------------------------------------------------
    def uplink_lost(self, client: int) -> bool:
        """Draw one uplink-loss Bernoulli from ``client``'s own stream.

        Each client owns an independent PCG64 stream seeded from
        ``SeedSequence((seed, client))`` — numpy's own stream, computed in
        Python (:class:`_UplinkStream`) — so the draw sequence a client
        sees depends only on the config seed and its id, never on which
        executor, shard, or interleaving ran it.
        """
        stream = self._uplink_streams.get(client)
        if stream is None:
            stream = _UplinkStream(self._seed, client)
            self._uplink_streams[client] = stream
        return stream.random() < self.plan.uplink_loss_probability

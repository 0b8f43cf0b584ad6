"""Run statistics: response times, restart ratios, confidence intervals.

The paper reports, per data point, mean transaction response time and the
restart ratio over the last 500 of 1000 committed client transactions
("steady-state data"), with 95% confidence intervals whose widths are
below 10% of the point estimates.  This module is that pipeline, once:
:meth:`MetricsCollector.record_commit` appends a commit's measurements,
:meth:`~MetricsCollector.merge_from` concatenates another shard's, one
``(commit_time, tid)`` ordering trims the steady-state window, and
:func:`summarize` turns the window into a mean with a Student-t interval
computed from the standard library alone — a published half-width does
not depend on what else is installed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.tids import pack_tids, unpack_tids

__all__ = [
    "TransactionSample",
    "SummaryStat",
    "MetricsCollector",
    "summarize",
    "MEASURE_FRACTION",
]

#: the steady-state window: the final half of a run's commits, the
#: paper's "last 500 of 1000" (Sec. 4)
MEASURE_FRACTION = 0.5

#: commits whose tids wait as ``str`` before
#: :meth:`MetricsCollector._pack` turns them into one bytes array
_PACK = 4096

#: the tid column of a collector with no commits
_NO_TIDS = np.empty(0, dtype="S1")

#: 97.5% standard-normal quantile: the Student-t quantile's limit, and a
#: starting point below it for every finite dof
_Z_975 = 1.959963984540054


def _t_quantile_975(dof: int) -> float:
    """97.5% quantile of Student's t with ``dof`` degrees of freedom.

    Newton's method on the upper tail ``P(T > t) = I_x(dof/2, 1/2) / 2``,
    ``x = dof / (dof + t²)``, the regularised incomplete beta evaluated by
    its continued fraction (modified Lentz).  The tail is convex and the
    normal quantile lies left of the root, so the iteration climbs to it
    monotonically.  Within 1e-12 (relative) of the exact quantile up to
    dof 3,000 and 2e-10 at 10⁶, where ``lgamma``'s rounding shows.
    """
    a = dof / 2.0
    # Γ(a + ½) / (Γ(a) Γ(½)) = 1 / B(a, ½): density and beta prefactor
    norm = math.exp(math.lgamma(a + 0.5) - math.lgamma(a)) / math.sqrt(math.pi)
    t = _Z_975
    for _ in range(100):
        x = dof / (dof + t * t)
        d = 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
        c, fraction = 1.0, d
        for m in range(1, 10_000):
            even = m * (0.5 - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
            d = 1.0 / (1.0 + even * d)
            c = 1.0 + even / c
            fraction *= d * c
            odd = -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
            d = 1.0 / (1.0 + odd * d)
            c = 1.0 + odd / c
            fraction *= d * c
            if abs(d * c - 1.0) < 4e-16:  # the factor has converged to 1
                break
        kernel = norm * math.exp(-a * math.log1p(t * t / dof))  # norm · x^a
        tail = 0.5 * kernel * math.sqrt(t * t / (dof + t * t)) * fraction / a
        step = (tail - 0.025) / (kernel * math.sqrt(x / dof))
        t += step
        if abs(step) < 1e-10 * t:  # quadratic: the next would be below an ulp
            break
    return t


@dataclass(frozen=True)
class TransactionSample:
    """One committed client transaction's measurements."""

    __slots__ = ("tid", "submit_time", "commit_time", "restarts")

    tid: str
    submit_time: float
    commit_time: float
    restarts: int

    @property
    def response_time(self) -> float:
        return self.commit_time - self.submit_time


@dataclass(frozen=True)
class SummaryStat:
    """Mean with a 95% confidence interval."""

    mean: float
    stddev: float
    count: int
    ci_halfwidth: float

    @property
    def ci(self) -> Tuple[float, float]:
        return (self.mean - self.ci_halfwidth, self.mean + self.ci_halfwidth)

    @property
    def ci_relative_width(self) -> float:
        """CI half-width as a fraction of the mean (paper: < 10%)."""
        if self.mean == 0:
            return 0.0
        return self.ci_halfwidth / abs(self.mean)


def summarize(values: Sequence[float]) -> SummaryStat:
    """Mean, stddev and 95% CI of a sample."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarise an empty sample")
    mean = sum(values) / n
    if n == 1:
        return SummaryStat(mean, 0.0, 1, 0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(var)
    half = _t_quantile_975(n - 1) * stddev / math.sqrt(n)
    return SummaryStat(mean, stddev, n, half)


class MetricsCollector:
    """Accumulates per-transaction measurements during a run.

    A commit is one append to each of four parallel append-only columns:
    two float64 arrays (submit and commit time), an int32 array (restarts)
    and the tid column.  Tids wait as ``str`` in a short list; every
    :data:`_PACK` commits that list is packed into one fixed-width UTF-8
    bytes array (:func:`repro.core.tids.pack_tids`), so a retained commit
    costs 20 bytes plus its tid's encoded length, about 30 bytes for the
    kernel's ``cl{k}.c{n}`` ids.
    Merging a shard appends its columns and its packed chunks.  No
    :class:`TransactionSample` and no tid ``str`` is built unless
    :attr:`samples` / :meth:`steady_state` are asked for: the statistics
    index the columns directly, through the same steady-state ordering
    the sample view uses.  A tid may hold no NUL (fixed-width bytes pad
    with it).
    """

    #: scalar tallies combined by :meth:`merge_from` — every count in a
    #: merged collector is the sum over its shards (``listening_bits``
    #: holds integer-valued floats, so summation order cannot matter)
    _COUNTER_FIELDS = (
        "reads_delivered",
        "reads_rejected",
        "cache_hits",
        "server_commits",
        "client_updates_committed",
        "client_updates_rejected",
        "broadcast_losses",
        "listening_bits",
        "aborts_conflict",
        "aborts_staleness",
        "aborts_crash",
        "aborts_uplink",
        "doze_slots_missed",
        "crash_slot_stalls",
        "server_crashes",
        "quiescent_replay_cycles",
        "server_txns_lost",
        "uplink_losses",
        "uplink_crash_losses",
        "uplink_retries",
        "cycles_broadcast",
    )

    def __init__(self) -> None:
        #: packed tid chunks (fixed-width UTF-8 bytes), in recording order
        self._chunks: List[np.ndarray] = []
        #: tids recorded since the last pack
        self._pending: List[str] = []
        self._submit_times = array("d")
        self._commit_times = array("d")
        self._restart_counts = array("i")
        #: ``((commit_count, measure_fraction), window)`` of the last sort
        self._window: Optional[Tuple[Tuple[int, float], np.ndarray]] = None
        self.reads_delivered = 0
        self.reads_rejected = 0
        self.cache_hits = 0
        self.server_commits = 0
        self.client_updates_committed = 0
        self.client_updates_rejected = 0
        self.broadcast_losses = 0
        #: bit-time spent listening to the broadcast (tuning time) — the
        #: battery-relevant cost: each off-air read charges its slot
        self.listening_bits = 0.0
        # -- fault attribution (see docs/FAULTS.md) --------------------
        #: aborts by cause: the protocol's read/backward-validation
        #: condition failed
        self.aborts_conflict = 0
        #: ... the client-side staleness guard fired (doze/wrap rejoin)
        self.aborts_staleness = 0
        #: ... an update gave up because the server was down at every try
        self.aborts_crash = 0
        #: ... an update exhausted its retries against uplink loss
        self.aborts_uplink = 0
        #: broadcast slots missed because the client's radio was dozing
        self.doze_slots_missed = 0
        #: broadcast slots that carried dead air during a server outage
        self.crash_slot_stalls = 0
        self.server_crashes = 0
        #: cycle boundaries replayed quiescently by crash recovery
        self.quiescent_replay_cycles = 0
        #: server transaction completions that died with a down server
        self.server_txns_lost = 0
        #: uplink submissions lost in transit (loss-probability draws)
        self.uplink_losses = 0
        #: uplink submissions that reached a dead server
        self.uplink_crash_losses = 0
        #: resubmissions after a declared uplink loss
        self.uplink_retries = 0
        #: broadcast images installed on the air: fresh cycle boundaries
        #: plus the in-progress cycle re-issued at crash recovery
        #: (quiescent replays that never air count only in
        #: :attr:`quiescent_replay_cycles`)
        self.cycles_broadcast = 0

    # ------------------------------------------------------------------
    def record_abort(self, cause: str) -> None:
        """Attribute one transaction-attempt abort to its cause."""
        if cause == "conflict":
            self.aborts_conflict += 1
        elif cause == "staleness":
            self.aborts_staleness += 1
        elif cause == "crash":
            self.aborts_crash += 1
        elif cause == "uplink":
            self.aborts_uplink += 1
        else:
            raise ValueError(f"unknown abort cause {cause!r}")

    def counters(self) -> Dict[str, float]:
        """Every scalar tally by name (the :attr:`_COUNTER_FIELDS` set).

        The public face of the merge/signature counter set: scenario
        envelopes, recorded-trace signatures and reports read this
        instead of reaching into the private field list.  Values are
        ints except ``listening_bits`` (an integer-valued float).
        """
        return {name: getattr(self, name) for name in self._COUNTER_FIELDS}

    @property
    def abort_causes(self) -> Dict[str, int]:
        """Aborted attempts by cause (conflict, staleness, crash, uplink)."""
        return {
            "conflict": self.aborts_conflict,
            "staleness": self.aborts_staleness,
            "crash": self.aborts_crash,
            "uplink": self.aborts_uplink,
        }

    # ------------------------------------------------------------------
    def record_commit(
        self, tid: str, submit_time: float, commit_time: float, restarts: int
    ) -> None:
        self._submit_times.append(submit_time)
        self._commit_times.append(commit_time)
        self._restart_counts.append(restarts)
        pending = self._pending
        pending.append(tid)
        if len(pending) >= _PACK:
            self._pack()

    def _pack(self) -> None:
        """Move the pending tids into one fixed-width bytes chunk."""
        pending = self._pending
        if pending:
            self._chunks.append(pack_tids(pending))
            pending.clear()

    @property
    def commit_count(self) -> int:
        """Committed transactions recorded."""
        return len(self._commit_times)

    def merge_from(self, other: "MetricsCollector") -> None:
        """Fold another collector's measurements into this one.

        Shard merging: the commit columns are appended (callers merge
        shards in shard-index order, so the combined recording order is
        deterministic; every derived statistic additionally sorts by
        ``(commit_time, tid)`` and is therefore independent of it) and
        every scalar tally in :attr:`_COUNTER_FIELDS` is summed.  The
        donor's packed chunks are shared, not copied: no chunk is ever
        written after it is packed.
        """
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self._pack()
        self._chunks.extend(other._chunks)
        self._pending.extend(other._pending)
        self._submit_times.extend(other._submit_times)
        self._commit_times.extend(other._commit_times)
        self._restart_counts.extend(other._restart_counts)

    def response_times(self) -> np.ndarray:
        """Submission-to-commit time of every commit, in recording order."""
        return np.frombuffer(self._commit_times) - np.frombuffer(self._submit_times)

    def restart_counts(self) -> np.ndarray:
        """Restarts before every commit, in recording order."""
        return np.array(self._restart_counts)

    def _tids(self) -> List[str]:
        """Every tid as a ``str``, in recording order."""
        tids = unpack_tids(self._chunks)
        tids.extend(self._pending)
        return tids

    @property
    def samples(self) -> List[TransactionSample]:
        """Recorded commits as sample objects, in recording order.

        Built on every access — hold the list rather than re-reading the
        attribute in a loop.
        """
        return list(
            map(
                TransactionSample,
                self._tids(),
                self._submit_times,
                self._commit_times,
                self._restart_counts,
            )
        )

    def _steady_order(self, measure_fraction: float) -> np.ndarray:
        """Recording indices of the final ``measure_fraction`` of commits,
        in commit order (read-only; reused until the next commit).

        Ties on commit time are broken by transaction id so the window —
        and everything derived from it — is a pure function of the
        recorded set, independent of the recording order (the process
        and cohort executors interleave same-instant commits of
        *different* clients differently).  One ``lexsort`` of the packed
        tids under a zero-copy view of the commit-time column: UTF-8
        bytes compare in code-point order, python's ``str`` order.  The
        view dies before this returns — ``array`` refuses to grow while
        one is exported.
        """
        if not 0 < measure_fraction <= 1:
            raise ValueError("measure_fraction must be in (0, 1]")
        key = (self.commit_count, measure_fraction)
        if self._window is None or self._window[0] != key:
            self._pack()
            chunks = self._chunks
            tids = chunks[0] if len(chunks) == 1 else np.concatenate(chunks or [_NO_TIDS])
            order = np.lexsort((tids, np.frombuffer(self._commit_times)))
            window = order[int(len(order) * (1 - measure_fraction)) :].copy()
            window.flags.writeable = False
            self._window = (key, window)
        return self._window[1]

    def steady_state(self, measure_fraction: float) -> List[TransactionSample]:
        """The final ``measure_fraction`` of samples, in commit order."""
        order = self._steady_order(measure_fraction).tolist()
        samples = self.samples
        return [samples[i] for i in order]

    # ------------------------------------------------------------------
    def response_time(self, measure_fraction: float = MEASURE_FRACTION) -> SummaryStat:
        window = self._steady_order(measure_fraction)
        return summarize(
            (
                np.frombuffer(self._commit_times)[window]
                - np.frombuffer(self._submit_times)[window]
            ).tolist()
        )

    def restart_ratio(self, measure_fraction: float = MEASURE_FRACTION) -> SummaryStat:
        window = self._steady_order(measure_fraction)
        return summarize(
            np.frombuffer(self._restart_counts, dtype=np.intc)[window]
            .astype(np.float64)
            .tolist()
        )

    def mean_listening_per_commit(self) -> float:
        """Tuning time (bits listened) per committed transaction."""
        count = self.commit_count
        return self.listening_bits / count if count else 0.0

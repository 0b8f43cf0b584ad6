"""Independently checkable serialization certificates.

APPROX and the protocols are graph-theoretic; a sceptical consumer may
want *witnesses* rather than verdicts.  This module extracts them and —
crucially — verifies them by a completely different route (serial
replay), so the test suite can cross-examine the graph machinery:

* :func:`update_certificate` — a serial order of the committed update
  transactions such that replaying them serially reproduces every read
  (reads-from) and the final database state;
* :func:`reader_certificate` — per read-only transaction ``t_R``, a
  serial order of ``LIVE(t_R)`` ending in ``t_R`` under which ``t_R``
  observes exactly the versions it observed in the history;
* :func:`verify_update_certificate` / :func:`verify_reader_certificate`
  — the replay checkers (no graphs involved).

``certify_history`` bundles everything for an APPROX-accepted history;
every order is read off one :func:`repro.core.approx.approx_report`, so
extraction builds no graph of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .approx import ApproxReport, approx_report
from .model import History, T0
from .readsfrom import live_set
from .viewser import final_writes, serial_replay

__all__ = [
    "Certificate",
    "update_certificate",
    "reader_certificate",
    "verify_update_certificate",
    "verify_reader_certificate",
    "certify_history",
    "certificate_from_report",
    "CertificationError",
]


class CertificationError(ValueError):
    """The history is not APPROX-accepted; no certificate exists."""


@dataclass(frozen=True)
class Certificate:
    """All witnesses for one history."""

    update_order: Tuple[str, ...]
    reader_orders: Dict[str, Tuple[str, ...]]


def certificate_from_report(
    history: History, report: ApproxReport, readers: Optional[Sequence[str]] = None
) -> Certificate:
    """Witnesses read off ``report`` (for ``readers``; default: all of them):
    a reader's order is its LIVE set in the update serialization order, then
    the reader — every LIVE member reaches it through X arcs, and each
    accepted read sees the last LIVE write of its object in that order."""
    order = report.update_serialization_order
    if order is None:
        raise CertificationError("update sub-history is not conflict serializable")
    if readers is None:
        readers = tuple(report.reader_verdicts)
    cyclic = [t for t in readers if not report.reader_verdicts.get(t, False)]
    if cyclic:
        raise CertificationError("APPROX rejects (cyclic S(t)): " + ", ".join(cyclic))
    committed = history.committed_projection()
    position = {tid: i for i, tid in enumerate(order)}
    orders = {
        t: tuple(sorted(live_set(committed, t) - {t}, key=position.__getitem__)) + (t,)
        for t in readers
    }
    return Certificate(order, orders)


def update_certificate(history: History) -> Tuple[str, ...]:
    """A serialization order for the committed update transactions."""
    return certificate_from_report(history, approx_report(history), ()).update_order


def reader_certificate(history: History, reader: str) -> Tuple[str, ...]:
    """A serial order of ``LIVE(reader)`` witnessing the reader's consistency."""
    certificate = certificate_from_report(history, approx_report(history), (reader,))
    return certificate.reader_orders[reader]


def certify_history(history: History) -> Certificate:
    """Certificates for an APPROX-accepted history (raises otherwise)."""
    return certificate_from_report(history, approx_report(history))


def verify_update_certificate(history: History, order: Tuple[str, ...]) -> bool:
    """Serial replay of ``order`` must reproduce the update sub-history's
    reads-from relation and final writes — checked with no graph code."""
    update = history.committed_projection().update_subhistory()
    if sorted(order) != sorted(update.transaction_ids):
        return False
    return serial_replay(update, order) == (update.reads_from, final_writes(update))


def verify_reader_certificate(
    history: History, reader: str, order: Tuple[str, ...]
) -> bool:
    """Replay check: under the serial order, the reader and every live
    update transaction observe exactly the writers they observed in the
    history."""
    committed = history.committed_projection()
    live = live_set(committed, reader)
    if sorted(order) != sorted(live):
        return False
    projection = committed.projection(order)
    replay_rf, _final = serial_replay(projection, order)
    for (tid, obj), writer in projection.reads_from.items():
        # live transactions read either from live writers or from t0 /
        # outside-live writers; replay can only be checked for reads whose
        # writer is inside the projection (others read "initial" there)
        expected = writer if writer in live or writer == T0 else None
        got = replay_rf.get((tid, obj))
        if expected is None:
            continue
        if got != expected:
            return False
    return True

"""Fault-injection resilience experiment (docs/FAULTS.md).

Runs a deliberately hostile configuration — a small 4-bit wrap window
under modulo timestamps, every client dozing through *more* than a full
window, a mid-run server crash recovered from the durable commit log,
and a lossy uplink — and audits every registered protocol invariant
over the recorded trace.  The run passes when each protocol completes
with a clean audit, a certified update-consistent history
(:func:`repro.analysis.consistency.certify_update_consistency` — the
paper's Sec. 4 guarantee, which doze, crash, and loss must not erode),
and the staleness guard's aborts show up attributed in the metrics
(``aborts_staleness``), i.e. wraparound ambiguity is survived by
aborting, never by committing across a wrap gap.

The schedule is deterministic (no sampling), so two runs with the same
seed and transaction count are bit-identical.  Audit runs hold every
cycle's control image (n² timestamps) in memory: that bounds ``transactions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim.config import SimulationConfig
from ..sim.faults import DozeInterval, FaultPlan, ServerCrash
from ..sim.simulation import run_simulation

__all__ = [
    "FAULT_PROTOCOLS",
    "FaultRunSummary",
    "faults_config",
    "run_faults_report",
    "format_faults_report",
]

#: protocols exercised by the resilience report (one column each)
FAULT_PROTOCOLS: Tuple[str, ...] = ("f-matrix", "r-matrix", "datacycle")


@dataclass(frozen=True)
class FaultRunSummary:
    """What one faulty run did, and whether the auditor liked it."""

    protocol: str
    commits: int
    cycles: int
    abort_causes: Dict[str, int]
    doze_slots_missed: int
    crash_slot_stalls: int
    server_crashes: int
    quiescent_replay_cycles: int
    server_txns_lost: int
    uplink_losses: int
    uplink_retries: int
    audit_ok: bool
    audit_violations: int
    consistency_ok: bool
    consistency_failures: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "commits": self.commits,
            "cycles": self.cycles,
            "abort_causes": dict(self.abort_causes),
            "doze_slots_missed": self.doze_slots_missed,
            "crash_slot_stalls": self.crash_slot_stalls,
            "server_crashes": self.server_crashes,
            "quiescent_replay_cycles": self.quiescent_replay_cycles,
            "server_txns_lost": self.server_txns_lost,
            "uplink_losses": self.uplink_losses,
            "uplink_retries": self.uplink_retries,
            "audit_ok": self.audit_ok,
            "audit_violations": self.audit_violations,
            "consistency_ok": self.consistency_ok,
            "consistency_failures": self.consistency_failures,
        }


def faults_config(
    protocol: str = "f-matrix", *, transactions: int = 30, seed: int = 42
) -> SimulationConfig:
    """The headline faulty configuration for one protocol.

    4-bit modulo timestamps (window 16) make wraparound routine; each of
    the three clients dozes through ``window + 1`` consecutive cycles
    (staggered so the wake-ups interleave with normal traffic); the
    server crashes three-quarters of the way into cycle 75 and stays
    dark for 2.5 cycles; 15 % of uplink submissions are lost in flight;
    5 % of awaited broadcast slots are missed to radio loss.
    """
    base = SimulationConfig(
        protocol=protocol,
        num_objects=40,
        object_size_bits=1024,
        timestamp_bits=4,
        modulo_timestamps=True,
        num_clients=3,
        num_client_transactions=transactions,
        seed=seed,
        broadcast_loss_probability=0.05,
        client_update_fraction=0.2,
        audit=True,
    )
    cycle_bits = base.cycle_bits
    window = 2 ** base.timestamp_bits
    plan = FaultPlan(
        doze=tuple(
            DozeInterval(
                client,
                (20 + 7 * client) * cycle_bits,
                (window + 1) * cycle_bits,
            )
            for client in range(base.num_clients)
        ),
        crashes=(ServerCrash(75.5 * cycle_bits, 2.5 * cycle_bits),),
        uplink_loss_probability=0.15,
    )
    return base.replace(faults=plan)


def run_faults_report(
    *, transactions: int = 30, seed: int = 42
) -> Tuple[FaultRunSummary, ...]:
    """Run the faulty scenario for every protocol in ``FAULT_PROTOCOLS``."""
    from ..analysis.consistency import certify_update_consistency

    summaries = []
    for protocol in FAULT_PROTOCOLS:
        result = run_simulation(
            faults_config(protocol, transactions=transactions, seed=seed)
        )
        metrics = result.metrics
        report = result.audit_report
        assert report is not None  # audit=True in faults_config
        assert result.trace is not None
        consistency = certify_update_consistency(
            result.trace.transactional_history(result.server.database)
        )
        summaries.append(
            FaultRunSummary(
                protocol=protocol,
                commits=metrics.commit_count,
                cycles=result.server.current_cycle,
                abort_causes=metrics.abort_causes,
                doze_slots_missed=metrics.doze_slots_missed,
                crash_slot_stalls=metrics.crash_slot_stalls,
                server_crashes=metrics.server_crashes,
                quiescent_replay_cycles=metrics.quiescent_replay_cycles,
                server_txns_lost=metrics.server_txns_lost,
                uplink_losses=metrics.uplink_losses + metrics.uplink_crash_losses,
                uplink_retries=metrics.uplink_retries,
                audit_ok=report.ok,
                audit_violations=len(report.diagnostics),
                consistency_ok=consistency.ok,
                consistency_failures=len(consistency.failures()),
            )
        )
    return tuple(summaries)


def format_faults_report(summaries: Tuple[FaultRunSummary, ...]) -> str:
    """A fixed-width table, one protocol per row."""
    header = (
        f"{'protocol':<12} {'commits':>7} {'cycles':>6} "
        f"{'conflict':>8} {'stale':>5} {'crash':>5} {'uplink':>6} "
        f"{'doze':>4} {'stall':>5} {'replay':>6} {'lost':>4} {'audit':>5} "
        f"{'consist':>7}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        causes = s.abort_causes
        lines.append(
            f"{s.protocol:<12} {s.commits:>7} {s.cycles:>6} "
            f"{causes.get('conflict', 0):>8} {causes.get('staleness', 0):>5} "
            f"{causes.get('crash', 0):>5} {causes.get('uplink', 0):>6} "
            f"{s.doze_slots_missed:>4} {s.crash_slot_stalls:>5} "
            f"{s.quiescent_replay_cycles:>6} {s.server_txns_lost:>4} "
            f"{'ok' if s.audit_ok else 'FAIL':>5} "
            f"{'ok' if s.consistency_ok else 'FAIL':>7}"
        )
    return "\n".join(lines)

"""Offline transactional-consistency certification (Biswas–Enea style).

Submodules:

* :mod:`~repro.analysis.consistency.histories` — ``⟨T, so, wr⟩`` adapter
  over :class:`repro.core.model.History`.
* :mod:`~repro.analysis.consistency.checkers` — per-level checkers
  (read committed, read atomic, causal, prefix, snapshot isolation,
  serializability) with anomaly witnesses.
* :mod:`~repro.analysis.consistency.certifier` — verdict reports, plus
  the paper's update-consistency certification for broadcast runs.
* :mod:`~repro.analysis.consistency.explore` — small-scope schedule model
  checker: exhaustively enumerates tiny broadcast interleavings and
  certifies every Datacycle/R-Matrix/F-Matrix execution.
"""

from .certifier import (
    ConsistencyReport,
    UpdateConsistencyReport,
    certify,
    certify_update_consistency,
)
from .checkers import LEVELS, AnomalyWitness, Verdict, WitnessEdge, check_level
from .histories import TransactionalHistory

__all__ = [
    "LEVELS",
    "AnomalyWitness",
    "ConsistencyReport",
    "TransactionalHistory",
    "UpdateConsistencyReport",
    "Verdict",
    "WitnessEdge",
    "certify",
    "certify_update_consistency",
    "check_level",
]

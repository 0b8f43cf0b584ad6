"""The per-cycle broadcast image: frozen values plus control information.

At the beginning of each cycle the server freezes (1) the latest committed
value of every object and (2) the control information the protocol in
force requires, producing a :class:`BroadcastCycle`.  Clients read both
"off the air": a value is available at its slot's end time (from the
layout), and the control snapshot anchors the protocol's read condition.

Values carry provenance — ``(writer transaction, commit cycle)`` — so
integration tests can reconstruct the global history a simulation induced
and cross-check protocol decisions against the APPROX theory
(:mod:`repro.sim.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from ..core.validators import ControlSnapshot

__all__ = ["ObjectVersion", "BroadcastCycle"]


class ObjectVersion(NamedTuple):
    """A committed object version with provenance (one made per write)."""

    obj: int
    value: object
    writer: str
    commit_cycle: int


@dataclass(frozen=True)
class BroadcastCycle:
    """Everything broadcast during one cycle.

    ``snapshot`` is the control information frozen at the cycle's start
    (see :class:`repro.core.validators.ControlSnapshot`); ``versions`` are
    the committed-as-of-cycle-start object versions, indexed by object id.
    """

    cycle: int
    versions: Tuple[ObjectVersion, ...]
    snapshot: ControlSnapshot

    def version(self, obj: int) -> ObjectVersion:
        return self.versions[obj]

    @property
    def num_objects(self) -> int:
        return len(self.versions)

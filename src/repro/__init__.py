"""repro — reproduction of *Efficient Concurrency Control for Broadcast
Environments* (Shanmugasundaram, Nithrakashyap, Sivasankaran, Ramamritham;
SIGMOD 1999).

Top-level convenience re-exports cover the most common entry points:

* theory: :func:`repro.core.approx_accepts`, :func:`repro.core.is_legal`;
* protocols: :class:`repro.core.FMatrixValidator` and friends;
* system: :class:`repro.server.BroadcastServer`,
  :class:`repro.client.ReadOnlyTransactionRuntime`;
* simulation: :class:`repro.sim.SimulationConfig`,
  :func:`repro.sim.run_simulation`;
* experiments: :mod:`repro.experiments` (one entry per paper figure/table).
"""

from . import core

__version__ = "1.0.0"

__all__ = ["core", "__version__"]

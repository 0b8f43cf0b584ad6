"""The paper's primary contribution: update consistency, APPROX, and the
matrix protocols' algorithmic core.

Layered as:

* history model and analyses — :mod:`repro.core.model`,
  :mod:`repro.core.readsfrom`, :mod:`repro.core.serialgraph`,
  :mod:`repro.core.polygraph`, :mod:`repro.core.viewser`;
* correctness criteria — :mod:`repro.core.approx` (polynomial test),
  :mod:`repro.core.legality` (Theorem 3, exact, NP-complete);
* protocol state — :mod:`repro.core.control_matrix` (F-Matrix ``C``),
  :mod:`repro.core.group_matrix` (grouped/vector reductions),
  :mod:`repro.core.validators` (client read conditions),
  :mod:`repro.core.cycles` (timestamp arithmetic);
* theory extras — :mod:`repro.core.reductions` (Appendix B, executable).
"""

from .approx import ApproxReport, approx_accepts, approx_report
from .control_matrix import ColumnImage, ControlMatrix, matrix_from_history
from .cycles import CycleArithmetic, ModuloCycles, UnboundedCycles
from .explain import explain_history
from .incompressibility import (
    history_for_spec,
    realize_spec,
    worst_case_bits,
)
from .group_matrix import (
    GroupedControlState,
    LastWriteVector,
    Partition,
    uniform_partition,
)
from .legality import (
    LegalityReport,
    criteria_summary,
    is_legal,
    is_prefix_closed_legal,
    legality_report,
)
from .model import (
    History,
    HistoryError,
    Operation,
    OpKind,
    T0,
    Transaction,
    abort,
    commit,
    parse_history,
    read,
    write,
)
from .polygraph import Bipath, Polygraph, reader_polygraph
from .readsfrom import affects_set, last_committed_writer, live_set, live_sets
from .serialgraph import (
    Digraph,
    conflict_graph,
    conflict_serialization_order,
    is_conflict_serializable,
    reader_serialization_graph,
)
from .validators import (
    ControlSnapshot,
    DatacycleValidator,
    FMatrixValidator,
    GroupMatrixValidator,
    PROTOCOL_NAMES,
    ReadValidator,
    RMatrixValidator,
    make_validator,
)
from .viewser import (
    is_view_serializable,
    view_equivalent,
    view_serialization_order,
)

__all__ = [
    # model
    "History", "HistoryError", "Operation", "OpKind", "T0", "Transaction",
    "read", "write", "commit", "abort", "parse_history",
    # analyses
    "live_set", "live_sets", "affects_set", "last_committed_writer",
    "Digraph", "conflict_graph", "is_conflict_serializable",
    "conflict_serialization_order", "reader_serialization_graph",
    "Polygraph", "Bipath", "reader_polygraph",
    "is_view_serializable", "view_equivalent", "view_serialization_order",
    # criteria
    "approx_accepts", "approx_report", "ApproxReport",
    "is_legal", "legality_report", "LegalityReport",
    "is_prefix_closed_legal", "criteria_summary",
    # protocol state
    "ColumnImage", "ControlMatrix", "matrix_from_history",
    "LastWriteVector", "GroupedControlState", "Partition", "uniform_partition",
    "CycleArithmetic", "UnboundedCycles", "ModuloCycles",
    "explain_history",
    "history_for_spec", "realize_spec", "worst_case_bits",
    "ControlSnapshot", "ReadValidator", "FMatrixValidator", "RMatrixValidator",
    "DatacycleValidator", "GroupMatrixValidator", "make_validator",
    "PROTOCOL_NAMES",
]

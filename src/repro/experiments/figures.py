"""One entry per paper figure/table (Sec. 4) plus extension ablations.

Every function takes the number of client transactions per point (the
paper used 1000; the benchmark suite uses fewer for wall-clock reasons —
the *shape* conclusions are robust to this, see EXPERIMENTS.md) and
returns an :class:`repro.experiments.sweeps.ExperimentResult` carrying
the same series the paper plots.

Figure map:

* Fig. 2(a)/(b): response time / restarts vs **client transaction
  length** (2–10; Datacycle's length-10 point exceeded the paper's
  y-axis and is skipped the same way for lengths where it explodes);
* Fig. 3(a): response time vs **server transaction length** (2–16);
* Fig. 3(b): response time vs **server inter-completion time**
  (50k–450k bit-units; larger = lower rate, paper's x-axis direction);
* Fig. 4(a): response time vs **number of objects** (100–500);
* Fig. 4(b): response time vs **object size** (0.5–4 KB);
* Table 1: parameter defaults + the Sec. 4.1 control-overhead formulas.

Extensions (design-choice ablations called out in DESIGN.md):

* group-matrix spectrum between F-Matrix and the vector protocols;
* quasi-caching under weak currency bounds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..broadcast.control_info import scheme_for_protocol
from ..sim.config import KILOBYTE_BITS, SimulationConfig
from .sweeps import ExperimentResult, run_sweep

__all__ = [
    "PAPER_PROTOCOLS",
    "default_config",
    "fig2_client_txn_length",
    "fig3a_server_txn_length",
    "fig3b_server_txn_rate",
    "fig4a_num_objects",
    "fig4b_object_size",
    "table1_overheads",
    "ablation_group_matrix",
    "ablation_caching",
    "EXPERIMENTS",
]

#: the four algorithms of the paper's evaluation, worst-to-best
PAPER_PROTOCOLS = ("datacycle", "r-matrix", "f-matrix", "f-matrix-no")


def default_config(transactions: int = 1000, seed: int = 42) -> SimulationConfig:
    """Table 1 defaults (one client, as Sec. 4 simulates) with a
    configurable run length."""
    return SimulationConfig(num_client_transactions=transactions, seed=seed)


def fig2_client_txn_length(
    transactions: int = 1000,
    *,
    lengths: Sequence[int] = (2, 4, 6, 8, 10),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    seed: int = 42,
    include_datacycle_tail: bool = False,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figures 2(a) and 2(b): vary client transaction length.

    Datacycle's response time at length 10 lay outside the paper's y-axis;
    by default the same point is skipped (it dominates wall-clock time),
    pass ``include_datacycle_tail=True`` to measure it anyway.
    """
    base = default_config(transactions, seed)

    def skip(protocol: str, value: object) -> bool:
        return (
            not include_datacycle_tail
            and protocol == "datacycle"
            and int(value) >= 10  # type: ignore[arg-type]
        )

    return run_sweep(
        "fig2",
        "client transaction length (reads)",
        base,
        "client_txn_length",
        list(lengths),
        protocols,
        skip=skip,
        workers=workers,
    )


def fig3a_server_txn_length(
    transactions: int = 1000,
    *,
    lengths: Sequence[int] = (2, 4, 8, 12, 16),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    client_txn_length: int = 4,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figure 3(a): vary server transaction length.

    ``client_txn_length`` defaults to the paper's Table 1 value (4);
    EXPERIMENTS.md also reports length 8, where abort costs dominate the
    control-information overhead and the paper's full F < R < Datacycle
    ordering is unambiguous.
    """
    base = default_config(transactions, seed).replace(
        client_txn_length=client_txn_length
    )
    return run_sweep(
        "fig3a",
        "server transaction length (ops)",
        base,
        "server_txn_length",
        list(lengths),
        protocols,
        workers=workers,
    )


def fig3b_server_txn_rate(
    transactions: int = 1000,
    *,
    intervals: Sequence[float] = (50_000, 150_000, 250_000, 350_000, 450_000),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figure 3(b): vary server inter-completion time (rate decreases →)."""
    base = default_config(transactions, seed)
    return run_sweep(
        "fig3b",
        "server inter-completion time (bit-units)",
        base,
        "server_txn_interval",
        list(intervals),
        protocols,
        workers=workers,
    )


def fig4a_num_objects(
    transactions: int = 1000,
    *,
    sizes: Sequence[int] = (100, 200, 300, 400, 500),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    client_txn_length: int = 4,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figure 4(a): vary the number of database objects.

    ``client_txn_length`` as in :func:`fig3a_server_txn_length`.
    """
    base = default_config(transactions, seed).replace(
        client_txn_length=client_txn_length
    )
    return run_sweep(
        "fig4a",
        "number of objects",
        base,
        "num_objects",
        list(sizes),
        protocols,
        workers=workers,
    )


def fig4b_object_size(
    transactions: int = 1000,
    *,
    sizes_kb: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Figure 4(b): vary the object size (KB on the x-axis)."""
    base = default_config(transactions, seed)

    def hook(cfg: SimulationConfig, value: object) -> SimulationConfig:
        return cfg.replace(object_size_bits=int(float(value) * KILOBYTE_BITS))  # type: ignore[arg-type]

    return run_sweep(
        "fig4b",
        "object size (KB)",
        base,
        "object_size_bits",
        list(sizes_kb),
        protocols,
        config_hook=hook,
        workers=workers,
    )


def table1_overheads(
    *,
    num_objects: int = 300,
    object_size_bits: int = KILOBYTE_BITS,
    timestamp_bits: int = 8,
) -> Dict[str, float]:
    """Sec. 4.1's control-information overhead fractions per protocol.

    With the Table 1 defaults: F-Matrix ≈ 23%, R-Matrix/Datacycle ≈ 0.1%.
    """
    out: Dict[str, float] = {}
    for protocol in ("f-matrix", "r-matrix", "datacycle", "f-matrix-no"):
        scheme = scheme_for_protocol(
            protocol, num_objects=num_objects, timestamp_bits=timestamp_bits
        )
        out[protocol] = scheme.overhead_fraction(num_objects, object_size_bits)
    return out


# ----------------------------------------------------------------------
# extension ablations
# ----------------------------------------------------------------------

def ablation_group_matrix(
    transactions: int = 500,
    *,
    group_counts: Sequence[int] = (1, 4, 16, 64),
    client_txn_length: int = 8,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """The F-Matrix ↔ vector spectrum (Sec. 3.2.2): sweep group count.

    Each point is the ``group-matrix`` protocol at a different partition
    granularity; one column per group rides in a per-cycle preamble, so
    both abort behaviour *and* cycle length vary with ``g``.  F-Matrix
    and Datacycle are the spectrum's endpoints (g = n with per-slot
    columns / g = 1 with the strict condition).
    """
    base = default_config(transactions, seed).replace(
        client_txn_length=client_txn_length
    )

    def hook(cfg: SimulationConfig, value: object) -> SimulationConfig:
        return cfg.replace(num_groups=int(value))  # type: ignore[arg-type]

    return run_sweep(
        "ablation-groups",
        "number of groups",
        base,
        "num_groups",
        list(group_counts),
        ["group-matrix"],
        config_hook=hook,
        workers=workers,
    )


def ablation_caching(
    transactions: int = 500,
    *,
    currency_bounds_cycles: Sequence[float] = (0.0, 1.0, 4.0, 16.0),
    protocol: str = "f-matrix",
    client_txn_length: int = 8,
    server_txn_interval: float = 2_000_000.0,
    seed: int = 42,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Quasi-caching under weak currency (Sec. 3.3, our quantification).

    The x-axis is the currency bound T in *cycles* (0 disables caching).
    Caching trades waiting time against staleness aborts: at low-to-
    moderate update rates (default here: one server transaction per 2M
    bit-units) response time falls as T grows; at Table 1's high default
    rate the abort cost cancels the benefit — both regimes are honest
    outcomes of the paper's Sec. 3.3 design and recorded in
    EXPERIMENTS.md.  Mutual consistency is preserved throughout (the
    trace cross-check in the test suite covers the cached path too).
    """
    base = default_config(transactions, seed).replace(
        client_txn_length=client_txn_length,
        protocol=protocol,
        server_txn_interval=server_txn_interval,
    )
    cycle_bits = base.cycle_bits

    def hook(cfg: SimulationConfig, value: object) -> SimulationConfig:
        bound = float(value) * cycle_bits  # type: ignore[arg-type]
        return cfg.replace(cache_currency_bound=bound if bound > 0 else None)

    return run_sweep(
        "ablation-caching",
        "currency bound T (cycles)",
        base,
        "cache_currency_bound",
        list(currency_bounds_cycles),
        [protocol],
        config_hook=hook,
        workers=workers,
    )


#: experiment registry used by the CLI
EXPERIMENTS = {
    "fig2": fig2_client_txn_length,
    "fig3a": fig3a_server_txn_length,
    "fig3b": fig3b_server_txn_rate,
    "fig4a": fig4a_num_objects,
    "fig4b": fig4b_object_size,
    "ablation-groups": ablation_group_matrix,
    "ablation-caching": ablation_caching,
}

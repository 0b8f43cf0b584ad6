"""Evaluation harness: one runnable entry per paper figure/table."""

from .figures import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    ablation_caching,
    ablation_group_matrix,
    default_config,
    fig2_client_txn_length,
    fig3a_server_txn_length,
    fig3b_server_txn_rate,
    fig4a_num_objects,
    fig4b_object_size,
    table1_overheads,
)
from .plotting import protocol_glyphs, render_chart
from .sensitivity import VARIANTS, sensitivity_table
from .store import compare_results, load_result, save_result
from .suite import compare_to_baseline, generate_report
from .report import format_csv, format_overheads, format_table
from .sweeps import ExperimentResult, Point, Series, run_sweep

__all__ = [
    "EXPERIMENTS",
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
    "run_sweep",
    "ExperimentResult",
    "Series",
    "Point",
    "format_table",
    "render_chart",
    "protocol_glyphs",
    "format_csv",
    "format_overheads",
    "save_result",
    "load_result",
    "compare_results",
    "generate_report",
    "compare_to_baseline",
    "sensitivity_table",
    "VARIANTS",
]

"""One-shot reproduction report: run everything, archive everything.

``generate_report(out_dir)`` runs the full evaluation (all figures, the
table, the ablations), writes per-experiment JSON archives + CSVs + text
tables + ASCII charts into ``out_dir``, and emits a single
``REPORT.md`` summarising paper-vs-measured — the artifact a referee or
CI job consumes.  ``compare_to_baseline`` diffs a fresh run against a
previously archived directory and reports significant drifts
(:mod:`repro.experiments.store`).
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..obs.profiler import PhaseProfiler
from .figures import EXPERIMENTS, table1_overheads
from .plotting import render_chart
from .report import format_csv, format_overheads, format_table
from .store import Drift, compare_results, load_result, save_result
from .sweeps import ExperimentResult

__all__ = ["generate_report", "compare_to_baseline"]


def generate_report(
    out_dir: Union[str, pathlib.Path],
    *,
    transactions: int = 1000,
    seed: int = 42,
    experiments: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, float], None]] = None,
) -> pathlib.Path:
    """Run the evaluation and write the report tree.

    Returns the path of the generated ``REPORT.md``.  Layout::

        out_dir/
          REPORT.md                  the summary
          <experiment>.json          archive (machine-readable, diffable)
          <experiment>.csv           per-point rows
          <experiment>.txt           aligned tables + ASCII chart
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(experiments) if experiments is not None else sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")

    lines: List[str] = [
        "# Reproduction report",
        "",
        f"- transactions per data point: **{transactions}**",
        f"- base seed: {seed}",
        f"- experiments: {', '.join(names)}",
        "",
        "## Control-information overheads (Table 1 / Sec. 4.1)",
        "",
        "```",
        format_overheads(table1_overheads()).rstrip(),
        "```",
        "",
    ]

    profiler = PhaseProfiler()
    for name in names:
        with profiler.phase(name):
            result: ExperimentResult = EXPERIMENTS[name](transactions, seed=seed)
        elapsed = profiler.as_dict()[name]
        if progress is not None:
            progress(name, elapsed)

        save_result(result, out / f"{name}.json")
        (out / f"{name}.csv").write_text(format_csv(result))
        chart = render_chart(result, log_y=True)
        (out / f"{name}.txt").write_text(format_table(result) + "\n" + chart)

        lines += [
            f"## {name}",
            "",
            f"({elapsed:.1f}s wall clock; archives: `{name}.json`, `{name}.csv`)",
            "",
            "```",
            format_table(result).rstrip(),
            "```",
            "",
            "```",
            chart.rstrip(),
            "```",
            "",
        ]

    report = out / "REPORT.md"
    report.write_text("\n".join(lines))
    return report


def compare_to_baseline(
    baseline_dir: Union[str, pathlib.Path],
    current_dir: Union[str, pathlib.Path],
    *,
    tolerance: float = 0.10,
) -> Dict[str, List[Drift]]:
    """Diff two archived report trees; returns significant drifts only.

    Experiments missing on either side are skipped (sweeps evolve).
    """
    baseline = pathlib.Path(baseline_dir)
    current = pathlib.Path(current_dir)
    out: Dict[str, List[Drift]] = {}
    for path in sorted(baseline.glob("*.json")):
        other = current / path.name
        if not other.exists():
            continue
        drifts = compare_results(
            load_result(path), load_result(other), tolerance=tolerance
        )
        significant = [d for d in drifts if d.significant]
        if significant:
            out[path.stem] = significant
    return out

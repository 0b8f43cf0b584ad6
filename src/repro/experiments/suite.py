"""The reproduction report: run the evaluation, archive every result.

``generate_report(out_dir)`` runs the paper's figures and ablations and
writes, per experiment, a JSON archive, a CSV of its points and a text
file of its tables and ASCII chart, plus one ``REPORT.md`` summarising
them with Table 1's overheads.  ``repro-experiments EXP|all --out DIR``
is this function from the command line.
"""

from __future__ import annotations

import pathlib
from typing import Callable, List, Optional, Sequence, Union

from ..obs.profiler import PhaseProfiler
from .figures import EXPERIMENTS, table1_overheads
from .plotting import render_chart
from .report import format_csv, format_overheads, format_table
from .store import save_result

__all__ = ["generate_report"]


def generate_report(
    out_dir: Union[str, pathlib.Path],
    *,
    transactions: int = 1000,
    seed: int = 42,
    experiments: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str, float], None]] = None,
) -> pathlib.Path:
    """Run the evaluation and write the report tree.

    ``workers`` fans each experiment's grid points over a process pool;
    the archives are bit-identical to a sequential run.  ``progress`` is
    called with each experiment's name and wall-clock seconds once its
    files are written.  Returns the path of ``REPORT.md``.  Layout::

        out_dir/
          REPORT.md                  the summary
          <experiment>.json          archive (machine-readable, diffable)
          <experiment>.csv           per-point rows
          <experiment>.txt           aligned tables + ASCII chart
    """
    out = pathlib.Path(out_dir)
    names = list(experiments) if experiments is not None else sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    out.mkdir(parents=True, exist_ok=True)

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
            result = EXPERIMENTS[name](transactions, seed=seed, workers=workers)
        elapsed = profiler.as_dict()[name]

        table = format_table(result)
        chart = render_chart(result, log_y=True)
        save_result(result, out / f"{name}.json")
        (out / f"{name}.csv").write_text(format_csv(result))
        (out / f"{name}.txt").write_text(table + "\n" + chart)
        if progress is not None:
            progress(name, elapsed)

        lines += [
            f"## {name}",
            "",
            f"({elapsed:.1f}s wall clock; archives: `{name}.json`, `{name}.csv`)",
            "",
            "```",
            table.rstrip(),
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

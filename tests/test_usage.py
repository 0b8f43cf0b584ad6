"""docs/USAGE.md's code snippets must actually run.

Python fenced blocks are extracted from the cookbook and executed in
order (shared namespace), with the simulation sizes scaled down the way
``tests/test_readme.py`` scales the README's.  Each scaling is a literal
replacement that must still find its text, so a rewritten recipe cannot
silently run at full size.
"""

import pathlib
import re

USAGE = pathlib.Path(__file__).resolve().parent.parent / "docs" / "USAGE.md"

#: (as written, as run): sizes down, one worker, one figure for the report
SCALED = (
    ("num_client_transactions=500)", "num_client_transactions=10)"),
    ("replications=5, workers=4", "replications=2, workers=1"),
    (
        'SimulationConfig(protocol="f-matrix", audit=True)',
        'SimulationConfig(protocol="f-matrix", audit=True, num_client_transactions=5)',
    ),
    ("SimulationConfig(tracing=True)", "SimulationConfig(tracing=True, num_client_transactions=5)"),
    ("fig2_client_txn_length(1000)", "fig2_client_txn_length(5)"),
    (
        'generate_report("results/", transactions=1000)',
        'generate_report(OUT, transactions=5, experiments=["fig4b"])',
    ),
    ("num_client_transactions=200, seed=1", "num_client_transactions=20, seed=1"),
)


def test_usage_python_blocks_execute(tmp_path):
    text = USAGE.read_text()
    for written, _ in SCALED:
        assert written in text, f"docs/USAGE.md no longer says {written}"
    namespace = {"OUT": str(tmp_path)}
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL):
        for written, run in SCALED:
            block = block.replace(written, run)
        exec(compile(block, str(USAGE), "exec"), namespace)  # noqa: S102
    assert (tmp_path / "REPORT.md").exists()

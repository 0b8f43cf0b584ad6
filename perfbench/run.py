"""The benchmark driver's entry point (``BENCHMARK.json`` ``command``).

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout; prints the result object as its last line.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script, so the package's parent directory is not on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.cli import contract_main

    sys.exit(contract_main())

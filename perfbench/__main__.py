"""``python -m perfbench run | trace | check-repeat`` (see ``perfbench.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""Shared knobs for the paper's shape checks.

Every test here regenerates one of the paper's tables/figures or an
ablation at a laptop-friendly scale and asserts the *shape* the paper
reports (who wins, by roughly what factor, where the curves steepen).
Nothing is timed: host time is perfbench's to measure.  Scale knobs:

* ``REPRO_BENCH_TXNS`` — committed client transactions per data point
  (default 120; the paper used 1000 — set 1000 to reproduce
  EXPERIMENTS.md's full-scale numbers);
* ``REPRO_BENCH_SEED`` — RNG seed (default 42).  Runs are fully
  deterministic given (txns, seed), so the shape assertions are stable.
"""

import os

import pytest


def _int_env(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def bench_txns() -> int:
    return _int_env("REPRO_BENCH_TXNS", 120)


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return _int_env("REPRO_BENCH_SEED", 42)


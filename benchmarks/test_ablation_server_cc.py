"""Ablation: server-side concurrency control — strict 2PL vs OCC.

The paper's protocols only need the server to produce conflict-
serializable update executions whose commit order is the serialization
order; both executors provide that.  This bench contrasts their failure
modes under rising contention (more transactions over fewer objects):
2PL converts conflicts into blocking plus deadlock-victim restarts, OCC
into validation restarts — and in write-heavy workloads the deadlock
restarts can dominate.
"""

import random

from repro.core.serialgraph import is_conflict_serializable
from repro.server.database import Database
from repro.server.occ import OCCExecutor
from repro.server.twopl import TransactionProgram, TwoPLExecutor


def make_programs(num_txns: int, num_objects: int, seed: int):
    rng = random.Random(seed)
    programs = []
    for t in range(num_txns):
        objs = rng.sample(range(num_objects), min(4, num_objects))
        steps = tuple(("r" if rng.random() < 0.5 else "w", o) for o in objs)
        programs.append(TransactionProgram(f"t{t}", steps))
    return programs


def _run(executor_cls, programs, num_objects, seed):
    result = executor_cls(Database(num_objects)).run(
        programs, rng=random.Random(seed)
    )
    return result


def test_ablation_server_cc():
    rows = []
    for num_objects in (32, 12, 6):  # rising contention
        programs = make_programs(24, num_objects, seed=5)
        twopl = _run(TwoPLExecutor, programs, num_objects, seed=9)
        occ = _run(OCCExecutor, programs, num_objects, seed=9)
        rows.append((num_objects, twopl, occ))
    print()
    print("== server CC under rising contention (24 txns, 4 ops each) ==")
    print(f"{'objects':>8} | {'2PL restarts':>12} | {'OCC restarts':>12}")
    for num_objects, twopl, occ in rows:
        print(
            f"{num_objects:>8} | {sum(twopl.restarts.values()):>12} | "
            f"{sum(occ.restarts.values()):>12}"
        )
        assert is_conflict_serializable(twopl.history)
        assert is_conflict_serializable(occ.history)
        assert len(twopl.commit_order) == len(occ.commit_order) == 24

    # contention raises restarts for both executors; in this
    # write-heavy workload 2PL's deadlock-victim restarts grow *faster*
    # than OCC's validation restarts — blocking is not free either
    low, high = rows[0], rows[-1]
    assert sum(high[2].restarts.values()) >= sum(low[2].restarts.values())
    assert sum(high[1].restarts.values()) >= sum(low[1].restarts.values())

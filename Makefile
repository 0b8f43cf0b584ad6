# Development gates.  `make check` is the quick local gate (tier 1, lint,
# typecheck); `make ci` runs every gate of .github/workflows/check.yml, in
# the workflow's order.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check ci test lint typecheck perf-smoke figures-smoke consistency-smoke obs-smoke scenario-smoke

check: test lint typecheck

# one gate after another (no -j), stopping at the first that fails
ci: test lint typecheck perf-smoke figures-smoke consistency-smoke scenario-smoke obs-smoke

test:
	$(PYTHON) -m pytest -x

lint:
	$(PYTHON) -m repro.analysis.lint src/repro

# mypy is optional tooling: run it when installed, skip loudly when not
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e .[check])"; \
	fi

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
# REPRO_BENCH_TXNS=60 test_fig2_client_txn_length fails on noise.  Plain
# pytest: nothing here is timed (host time is perf-smoke's harness).
figures-smoke:
	$(PYTHON) -m pytest benchmarks -q

# observability smoke (docs/OBSERVABILITY.md): the library's traced
# faulted 2-shard replay-mode run, producing a Perfetto-loadable Chrome
# trace (obs-trace.json) whose span counts reconcile with the metrics,
# then the same counts re-derived from the written file.
obs-smoke:
	$(PYTHON) -m repro.experiments.cli scenario run traced-replay \
		--trace-out obs-trace.json --summary
	$(PYTHON) -m repro.obs.trace_cli summarize obs-trace.json

# scenario smoke (docs/SCENARIOS.md): run every library scenario under
# every protocol it declares — the headline fault run (hostile-wrap:
# doze through a full wrap window, a server crash, a lossy uplink; 500
# transactions per client) among them — check its calibrated metric
# envelope, audit every protocol invariant AND certify the recorded
# history update-consistent (a run with no global trace is listed as
# unchecked).  Then prove the record/replay determinism contract by
# recording the zero-fault anchor under the process executor — named: a
# scenario that names no executor records under cohort, and the replay
# would compare the kernel with itself — and replaying it bit-identically
# through the cohort executor (`replay[cohort] vs recording[process]`)
# and the analytical tier (`replay[analytic] vs recording[process]`).
# Last, every library run again under the analytical tier, audited and
# certified: an executor picks when clients run, so doze, crash, uplink
# loss, caches and wrap all hold there too.  Exits non-zero on any
# envelope miss, violation or replay divergence; the verdicts land in
# scenario-smoke.json and scenario-smoke-analytic.json.
scenario-smoke:
	$(PYTHON) -m repro.experiments.cli scenario run --all --audit \
		--consistency update --output scenario-smoke.json
	$(PYTHON) -m repro.experiments.cli scenario record table1-baseline \
		--executor process --out scenario-smoke-table1.trace.json
	$(PYTHON) -m repro.experiments.cli scenario replay \
		scenario-smoke-table1.trace.json --executor cohort
	$(PYTHON) -m repro.experiments.cli scenario replay \
		scenario-smoke-table1.trace.json --executor analytic
	$(PYTHON) -m repro.experiments.cli scenario run --all --executor analytic \
		--audit --consistency update --output scenario-smoke-analytic.json

# consistency smoke (docs/ANALYSIS.md "Consistency levels"): the
# small-scope model checker exhaustively sweeps the smallest scope for
# every protocol, then the Table-1 anchor under datacycle — globally
# serializable — is certified at all six levels (60 transactions: the
# level checkers search).  The paper's update-consistency guarantee is
# scenario-smoke's, for every run.  Exits non-zero on any uncertified
# run; JSON artifacts land in consistency-smoke-*.json.
consistency-smoke:
	$(PYTHON) -m repro.analysis.consistency.explore --scope smallest \
		--output consistency-smoke-explore.json
	$(PYTHON) -m repro.experiments.cli scenario run table1-baseline \
		--protocol datacycle --consistency all \
		--output consistency-smoke-datacycle.json

"""The commands end to end: names, pins, exit codes, the driver contract."""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import perfbench
from perfbench import ROOT, cli, drivers, worker
from perfbench.workloads import Op, ReaderFleet

SPEC = perfbench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    output = tmp_path_factory.mktemp("smoke") / "run.json"
    started = time.perf_counter()
    done = _run("-m", "perfbench", "run", "--all", "--smoke", "--output", str(output))
    return done, json.loads(output.read_text()), time.perf_counter() - started


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    output = tmp_path_factory.mktemp("smoke") / "trace.json"
    done = _run("-m", "perfbench", "trace", "--all", "--smoke", "--output", str(output))
    return done, json.loads(output.read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(WORKLOADS) <= 8 and len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_run_is_quick_clean_and_names_every_end_to_end_metric(smoke_run):
    done, document, seconds = smoke_run
    assert done.returncode == 0, done.stdout + done.stderr
    assert seconds < 60
    assert list(document["workloads"]) == WORKLOADS
    expected = {m["name"] for m in SPEC["end_to_end"]} | {"failed_share"}
    for name, measured in document["workloads"].items():
        assert set(measured["metrics"]) == expected
        assert measured["failed"] == 0 and measured["attempted"] >= 1
        for metric, value in measured["metrics"].items():
            assert f"  {metric} " in done.stdout
            assert value["unit"]
        assert name in done.stdout


def test_seed_42_reproduces_the_pins(smoke_run):
    _done, document, _seconds = smoke_run
    pins = perfbench.load_expected()["digests"]["smoke"]["42"]
    for name, measured in document["workloads"].items():
        assert measured["pinned"] is True
        assert measured["digests"] == pins[name]


def test_every_output_carries_the_provenance_manifest(smoke_run):
    _done, document, _seconds = smoke_run
    manifest = document["manifest"]
    for key in ("git_sha", "git_dirty", "hostname", "cpu_count", "python", "numpy",
                "seed", "loadavg_at_start"):
        assert key in manifest
    replay = document["workloads"]["sharded-replay"]
    assert replay["execution"] == {
        "client_executor": "analytic",
        "shards": 2,
        "timeline_mode": "replay",
        "effective_workers": 1,
    }
    assert replay["timeline_stats"]["cache_hit"] is False
    assert replay["timeline_stats"]["fallbacks"] == 0
    assert replay["sizes"]["num_clients"] == 410 and len(replay["repeats"]) == 1


def test_smoke_trace_reports_exactly_the_per_layer_names(smoke_trace):
    done, document = smoke_trace
    assert done.returncode == 0, done.stdout + done.stderr
    expected = {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        assert set(document["workloads"][name]["layer_metrics"]) == expected
    for text in ("unattributed_s", "trace_overhead_ratio", "ControlMatrix.apply_commit"):
        assert text in done.stdout
    # seed 42 is pinned: every driver's checksum was compared, none differed
    isolated = document["drivers"]
    assert isolated["pinned"] is True and isolated["failed"] == 0
    assert isolated["attempted"] == len(drivers.MICRO) + len(drivers.MACRO)
    assert isolated["macro_batches"] == 1  # smoke is quick


def test_the_trace_confirms_the_bypass_design(smoke_trace):
    _done, document = smoke_trace
    mixed_only = (
        "QuasiCache.lookup", "QuasiCache.insert", "FaultRuntime.slot_heard",
        "FaultRuntime.uplink_lost", "BroadcastServer.submit_client_update",
    )
    for name in WORKLOADS:
        callables = document["workloads"][name]["trace"]["callables"]
        for target in mixed_only:
            assert (callables[target]["calls"] > 0) == (name == "mixed-fleet"), (
                name, target
            )
    replay = document["workloads"]["sharded-replay"]["trace"]["callables"]
    assert replay["run_analytic"]["calls"] == 1
    assert replay["MetricsCollector.merge_from"]["calls"] == 1
    sweep = document["workloads"]["fig4a-sweep"]["trace"]["callables"]
    assert sweep["run_sweep"]["calls"] == 1


def test_an_unpinned_seed_prints_its_digests():
    done = _run("-m", "perfbench", "run", "--workload", "reader-fleet", "--smoke",
                "--seed", "7", "--output", "/dev/null")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "seed not pinned" in done.stdout
    assert re.search(r"cohort\s+[0-9a-f]{64}", done.stdout)


@pytest.mark.parametrize(
    "args",
    [
        ("-m", "perfbench"),
        ("-m", "perfbench", "run"),
        ("-m", "perfbench", "run", "--workload", "no-such-workload"),
        ("-m", "perfbench", "run", "--all", "--repeats", "0"),
        ("perfbench/run.py",),
        ("perfbench/run.py", "--workload", "reader-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "2"),
    ],
)
def test_usage_errors_exit_2(args):
    assert _run(*args).returncode == 2


def test_a_failed_operation_exits_1(monkeypatch, tmp_path, capsys):
    def failed(name, seed, **_options):
        return {
            "workload": name, "seed": seed, "sizes": {}, "execution": {},
            "metrics": {}, "failures": ["repeat 0 cohort: digest differs from pin"],
            "failed": 1, "attempted": 1, "pinned": True, "digests": {},
        }

    monkeypatch.setattr(cli.bench, "measure", failed)
    code = cli.main(
        ["run", "--workload", "reader-fleet", "--output", str(tmp_path / "run.json")]
    )
    assert code == 1
    assert "FAILED repeat 0 cohort" in capsys.readouterr().out


def test_check_repeat_misses_when_both_sets_fail_equally(monkeypatch, tmp_path, capsys):
    def failed(name, seed, **_options):
        stat = {"value": 1.0, "unit": "x"}
        return {
            "workload": name, "seed": seed, "sizes": {}, "execution": {},
            "failures": ["repeat 0 cohort: digest differs from pin"],
            "failed": 1, "attempted": 4, "pinned": True, "digests": {},
            "metrics": {
                "txn_per_s": stat, "peak_rss_mb": stat, "setup_s": stat,
                "failed_share": {"value": 0.25, "unit": "ratio", "failed": 1,
                                 "attempted": 4},
            },
        }

    monkeypatch.setattr(cli.bench, "measure", failed)
    output = tmp_path / "check-repeat.json"
    assert cli.main(["check-repeat", "--output", str(output)]) == 1
    report = json.loads(output.read_text())
    assert report["ok"] is False
    for row in report["comparison"]:
        # every timing agrees exactly; only the failed operations miss
        assert row["ok"] == (row["metric"] != "failed_share"), row
    assert "failed_share" in capsys.readouterr().out


def test_a_driver_checksum_off_its_pin_is_a_failed_operation(monkeypatch):
    def fake(seed, batches):
        return {"fake.metric_us": 1.0}, [seed, batches, 0.5]

    monkeypatch.setattr(drivers, "MICRO", (fake,))
    monkeypatch.setattr(drivers, "MACRO", ())
    pins = {"42": {"fake": [42, drivers.MICRO_BATCHES, 0.5]}, "1999": {"fake": [0]}}
    monkeypatch.setattr(drivers, "load_expected", lambda: {"driver_checksums": pins})
    good = drivers.run_drivers(42)
    assert (good["pinned"], good["attempted"], good["failed"]) == (True, 1, 0)
    bad = drivers.run_drivers(1999, quick=True)
    assert (bad["pinned"], bad["failed"]) == (True, 1)
    assert "driver fake: checksum" in bad["failures"][0]
    unpinned = drivers.run_drivers(7)
    assert (unpinned["pinned"], unpinned["failed"]) == (False, 0)


def test_judge_counts_errors_nondeterminism_and_pin_mismatches(monkeypatch):
    workload = ReaderFleet(42, 1.0)
    pins = {"full": {"42": {"reader-fleet": {"cohort": "aa"}}}}
    monkeypatch.setattr(worker, "load_expected", lambda: {"digests": pins})

    def repeats(*digests):
        return [{"ops": [Op("cohort", digest=d, error=e)]} for d, e in digests]

    assert worker._judge(workload, repeats(("aa", None), ("aa", None)))["failed"] == 0
    verdict = worker._judge(
        workload, repeats(("aa", None), ("bb", None), ("aa", "raised"))
    )
    assert (verdict["attempted"], verdict["failed"]) == (3, 2)
    assert worker._judge(workload, repeats(("bb", None)))["failed"] == 1  # pin
    unpinned = ReaderFleet(7, 1.0)
    assert worker._judge(unpinned, repeats(("bb", None)))["pinned"] is False


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run("perfbench/run.py", "--workload", "reader-fleet", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode not in (0, 2)
    assert '"correct"' not in done.stdout


def test_the_driver_contract_on_one_workload():
    done = _run("perfbench/run.py", "--workload", "reader-fleet", "--seed", "42",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3  # never fewer than three repeats
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())

"""The benchmark's own fast tests: tiny smoke runs and failure accounting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402


@pytest.mark.parametrize("workload", sorted(cases.CASES))
def test_tiny_sample_is_cold_and_correct(workload):
    row = run.launch(workload, seed=3, size=cases.TINY, jobs=2)
    assert row["ok"], row["errors"]
    assert row["failed"] == 0
    assert row["requests"] == cases.request_count(workload, cases.TINY)
    assert row["manifest"]["cold"] is True
    assert row["manifest"]["nproc"] >= 1
    assert row["wall_s"] > 0 and row["setup_s"] > 0 and row["peak_rss_mb"] > 0


def test_tiny_samples_repeat_their_digest():
    rows = [run.launch("mems_sptf_deep", 5, cases.TINY, 1) for _ in range(2)]
    assert rows[0]["digest"] == rows[1]["digest"]
    other = run.launch("mems_sptf_deep", 6, cases.TINY, 1)
    assert other["digest"] != rows[0]["digest"]


@pytest.mark.parametrize("workload", ["tpcc_traced", "fleet16"])
def test_tiny_trace_run_reports_every_layer_metric(workload, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "2", "--size", "tiny", "--trace", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    assert any(line.startswith("per-layer metrics") for line in out)
    reconcile = [json.loads(l[7:]) for l in out if l.startswith("sample ")]
    traced = [row for row in reconcile if row["spans"] == "all"]
    assert len(traced) == 1
    rec = traced[0]["reconcile"]
    assert rec["self_sum_s"] + rec["remainder_s"] == pytest.approx(rec["wall_s"])
    assert 0 <= rec["remainder_s"] < rec["wall_s"]
    if workload == "fleet16":
        assert result["metrics"]["fleet.parallel_speedup"]["value"] > 0
        assert any(line.startswith("fleet dump sha256") for line in out)
    else:
        assert result["metrics"]["obs.emit_calls"]["value"] > 0
        assert result["metrics"]["disk.service_calls"]["value"] == 1500


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(spans.MOVES) == set(run.metric_units("per_layer"))


# -- failure accounting ------------------------------------------------------ #


@pytest.fixture(scope="module")
def tiny_sim():
    prepared = cases.CASES["mems_sptf_deep"].prepare(4, cases.TINY, 1, HERE)
    return prepared, prepared.config.run()


def _with_records(result, records):
    from repro.sim.statistics import SimulationResult

    return SimulationResult(records=records, end_time=result.end_time)


def test_clean_result_passes(tiny_sim):
    prepared, result = tiny_sim
    verdict = cases.CASES["mems_sptf_deep"].check(prepared, result)
    assert verdict.ok and verdict.failed == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda records: records[:-1],  # a dropped record
        lambda records: records + records[-1:],  # a duplicated record
        lambda records: records[:10] + records[11:] + records[9:10],  # swapped
    ],
    ids=["dropped", "duplicated", "duplicated-and-dropped"],
)
def test_corrupted_result_counts_every_request_failed(tiny_sim, corrupt):
    prepared, result = tiny_sim
    bad = _with_records(result, corrupt(list(result.records)))
    verdict = cases.CASES["mems_sptf_deep"].check(prepared, bad)
    assert not verdict.ok
    assert verdict.failed == prepared.requests


def test_out_of_order_fleet_merge_fails():
    errors = []
    prepared = cases.CASES["mems_sptf_deep"].prepare(4, cases.TINY, 1, HERE)
    records = list(prepared.config.run().records)
    records[3], records[4] = records[4], records[3]
    cases.check_records(records, prepared.requests, errors, merged=True)
    assert any("order" in error for error in errors)


def test_digest_mismatch_is_a_failure(tiny_sim, monkeypatch):
    prepared, result = tiny_sim
    import sample

    monkeypatch.setattr(cases, "stored_digest", lambda *args: "0" * 64)
    verdict = cases.CASES["mems_sptf_deep"].check(prepared, result)
    assert verdict.ok  # the check itself passes; the sample compares digests
    row = sample.run_sample("mems_sptf_deep", 4, cases.TINY, 1, "none", 0.0)
    assert not row["ok"] and row["failed"] == row["requests"]


def test_without_sources_the_benchmark_fails():
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE,
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet16",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- steadiness arithmetic ----------------------------------------------------- #


def test_req_per_s_is_the_throughput_of_all_timed_calls():
    rows = [
        {"completed": 100, "wall_s": 1.0},
        {"completed": 100, "wall_s": 4.0},
        {"completed": 100, "wall_s": 1.0},
    ]
    assert run.throughput(rows) == pytest.approx(300 / 6.0)
    assert run.throughput([]) == 0.0


BENCH = {
    "end_to_end": [
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def test_steady_flags_wide_spread_but_exempts_setup():
    tight = [100.0, 101.0, 99.0, 100.5, 99.5]
    wide = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert steady.spread_report(BENCH, {"w": {"req_per_s": tight, "setup_s": wide}})
    assert not steady.spread_report(BENCH, {"w": {"req_per_s": wide}})


def test_steady_compare_respects_direction():
    first = {"w": {"req_per_s": [100.0] * 3, "setup_s": [1.0] * 3}}
    faster = {"w": {"req_per_s": [150.0] * 3, "setup_s": [0.5] * 3}}
    slower = {"w": {"req_per_s": [85.0] * 3, "setup_s": [1.0] * 3}}
    assert steady.compare(BENCH, first, faster)
    assert not steady.compare(BENCH, first, slower)

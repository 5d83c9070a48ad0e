"""Streaming trace analysis: bucket conservation and the analyze CLI.

The time-series accumulators must *conserve*: per-bucket completions sum
to the run's completion count, and per-bucket busy seconds sum to the
run's total service time — the bucketing only redistributes, never loses.
"""

import json
import math

import pytest

from repro.obs.analyze import (
    DEFAULT_BUCKET_S,
    TimeSeriesBuilder,
    analyze_events,
    analyze_trace,
    main,
    render_text,
)
from repro.obs.tracer import RingBufferTracer
from repro.sim import SimConfig


@pytest.fixture(scope="module")
def traced_run():
    ring = RingBufferTracer()
    config = SimConfig(
        device="mems", scheduler="SPTF", rate=700.0, num_requests=800, seed=4
    )
    result = config.run(tracer=ring)
    return ring.events, result


@pytest.fixture(scope="module")
def analysis(traced_run):
    events, _ = traced_run
    return analyze_events(iter(events))


def bucket_widths(series):
    widths = []
    for start in series.bucket_starts():
        widths.append(max(0.0, min(series.bucket_s, series.end_time - start)))
    return widths


class TestConservation:
    def test_completions_sum_to_run_total(self, traced_run, analysis):
        _, result = traced_run
        assert sum(analysis.timeseries.completions) == len(result)
        assert analysis.completed == len(result)
        assert analysis.summary.count == len(result)

    def test_busy_seconds_sum_to_total_service(self, traced_run, analysis):
        _, result = traced_run
        series = analysis.timeseries
        busy = math.fsum(
            u * w for u, w in zip(series.utilization, bucket_widths(series))
        )
        total_service = math.fsum(
            record.service_time for record in result.records
        )
        assert math.isclose(busy, total_service, rel_tol=1e-9)

    def test_throughput_is_completions_over_width(self, analysis):
        series = analysis.timeseries
        for iops, count, width in zip(
            series.throughput_iops, series.completions, bucket_widths(series)
        ):
            if width > 0:
                assert math.isclose(iops, count / width, rel_tol=1e-12)

    def test_bucket_responses_match_direct_computation(
        self, traced_run, analysis
    ):
        events, _ = traced_run
        series = analysis.timeseries
        by_bucket = {}
        for event in events:
            if event["kind"] == "sim.complete":
                bucket = int(event["t"] / series.bucket_s)
                by_bucket.setdefault(bucket, []).append(event["response"])
        for index in range(len(series)):
            responses = by_bucket.get(index)
            if responses is None:
                assert series.response_mean[index] is None
                assert series.response_p95[index] is None
            else:
                assert math.isclose(
                    series.response_mean[index],
                    math.fsum(responses) / len(responses),
                    rel_tol=1e-12,
                )

    def test_queue_depth_time_weighted_mean(self, traced_run, analysis):
        """Independent replay of the depth step function, whole-run mean."""
        events, _ = traced_run
        series = analysis.timeseries
        depth = 0
        since = 0.0
        integral = 0.0
        for event in events:
            if event["kind"] == "sim.arrival":
                integral += depth * (event["t"] - since)
                depth, since = event["queue_depth"], event["t"]
            elif event["kind"] == "sim.dispatch":
                integral += depth * (event["t"] - since)
                depth, since = event["queue_depth"] - 1, event["t"]
        integral += depth * (series.end_time - since)
        bucketed = math.fsum(
            q * w for q, w in zip(series.queue_depth, bucket_widths(series))
        )
        assert math.isclose(bucketed, integral, rel_tol=1e-9)

    def test_cylinder_carries_forward(self, analysis):
        series = analysis.timeseries
        seen = False
        for value in series.cylinder:
            if value is not None:
                seen = True
            elif seen:
                pytest.fail("cylinder went back to None after first access")
        assert seen

    def test_percentiles_match_result(self, traced_run, analysis):
        _, result = traced_run
        stats = analysis.response.to_dict()
        assert stats["count"] == len(result)
        assert math.isclose(
            stats["p95"],
            result.response_time_percentile(95),
            rel_tol=1e-12,
        )

    def test_dispatch_stats_account_for_candidates(self, analysis):
        stats = analysis.dispatch["SPTF"]
        assert stats.dispatches == 800
        assert (
            stats.candidates_priced + stats.candidates_pruned
            == stats.candidates
        )

    def test_traces_with_retired_cache_counters_still_load(self, traced_run):
        # Traces written before the SPTF estimate cache was removed carry
        # cumulative ``cache_hits``/``cache_misses`` on every SPTF
        # dispatch; they must still validate and fold, and the fields are
        # simply ignored.
        from repro.obs.report import render_report
        from repro.obs.tracer import TRACE_SCHEMA
        from repro.obs.validate import validate_events

        events, _ = traced_run
        misses = 0
        legacy = []
        for event in events:
            if event["kind"] == "sched.dispatch":
                misses += event["candidates_priced"]
                event = dict(event, cache_hits=0, cache_misses=misses)
            legacy.append(event)
        meta = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
        assert validate_events([meta] + legacy) == []
        old = analyze_events(iter(legacy))
        assert old.dispatch["SPTF"].to_dict() == (
            analyze_events(iter(events)).dispatch["SPTF"].to_dict()
        )
        assert "cache" not in render_report(old, "md")

    def test_not_sampled_and_no_pending(self, analysis):
        assert analysis.sampled is False
        assert analysis.spans_pending == 0
        assert analysis.requests == 800

    def test_render_text_mentions_the_essentials(self, analysis):
        text = render_text(analysis, source="run.jsonl")
        assert "spans: 800" in text
        assert "scheduler SPTF" in text
        assert "[sampled]" not in text


class TestBucketing:
    def test_rejects_non_positive_bucket(self):
        with pytest.raises(ValueError, match="bucket_s"):
            TimeSeriesBuilder(bucket_s=0.0)

    def test_bucket_width_changes_bucket_count(self, traced_run):
        events, _ = traced_run
        coarse = analyze_events(iter(events), bucket_s=1.0).timeseries
        fine = analyze_events(iter(events), bucket_s=0.05).timeseries
        assert len(fine) > len(coarse) >= 1
        assert sum(fine.completions) == sum(coarse.completions)

    def test_empty_stream_yields_one_empty_bucket(self):
        analysis = analyze_events(iter(()))
        assert len(analysis.timeseries) == 1
        assert analysis.timeseries.completions == [0]
        assert analysis.summary.count == 0


class TestAnalyzeCLI:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "run.jsonl.gz"
        SimConfig(
            rate=600.0, num_requests=300, seed=8, trace_path=str(path)
        ).run()
        return str(path)

    def test_default_text_summary(self, trace_path, capsys):
        assert main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace analysis" in out
        assert "spans: 300" in out

    def test_spans_jsonl(self, trace_path, capsys):
        assert main([trace_path, "--spans"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 300
        first = json.loads(lines[0])
        assert {"rid", "queue", "service", "response"} <= set(first)

    def test_timeseries_json(self, trace_path, capsys):
        assert main([trace_path, "--timeseries", "--bucket", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bucket_s"] == 0.05
        assert sum(payload["completions"]) == 300

    def test_report_output(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.html"
        assert main([trace_path, "--report", str(out)]) == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "latency attribution" in html

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_bucket_exits_2(self, trace_path):
        with pytest.raises(SystemExit) as exc:
            main([trace_path, "--bucket", "0"])
        assert exc.value.code == 2

    def test_analyze_trace_matches_in_memory(self, trace_path):
        from_file = analyze_trace(trace_path, bucket_s=DEFAULT_BUCKET_S)
        assert from_file.summary.count == 300
        assert from_file.meta["schema"] == "repro-trace/2"

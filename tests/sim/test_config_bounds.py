"""Non-finite and out-of-range numbers are rejected at every config boundary.

``x <= 0`` style checks let NaN through, so a NaN rate ran to a NaN mean
response and a NaN live window never closed.  Each boundary now raises a
``ValueError`` naming the field, and the CLI exits with code 2.
"""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.fleet import FleetConfig
from repro.obs.live import LiveAggregator, SLOSpec, parse_slo
from repro.sim import IOKind, Request, RequestBatch, SimConfig
from repro.validation import check_range

NAN = float("nan")
INF = float("inf")

BAD_SIM_FIELDS = [
    ("rate", NAN),
    ("rate", INF),
    ("rate", -INF),
    ("rate", 0.0),
    ("rate", -5.0),
    ("num_requests", NAN),
    ("num_requests", INF),
    ("num_requests", -1),
    ("warmup", NAN),
    ("warmup", -1),
    ("max_queue_depth", 0),
    ("max_queue_depth", NAN),
    ("max_queue_depth", INF),
    ("jobs", 0),
    ("jobs", NAN),
    ("trace_sample", 0),
    ("trace_sample", NAN),
    ("live_window", NAN),
    ("live_window", INF),
    ("live_window", 0.0),
    ("rate", "fast"),
    ("rate", True),
]

BAD_FLEET_FIELDS = [
    ("rate", NAN),
    ("rate", INF),
    ("rate", 0.0),
    ("num_requests", NAN),
    ("num_requests", -1),
    ("jobs", 0),
    ("live_window", NAN),
    ("live_window", -1.0),
]


def within(seconds, fn):
    """Run ``fn`` in a thread; fail if it does not finish in ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # handed back to the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome


class TestCheckRange:
    def test_accepts_finite_in_range(self):
        check_range("x", 1, ge=1)
        check_range("x", 0.5, gt=0, lt=1)

    @pytest.mark.parametrize("value", [NAN, INF, -INF, None, "1", True, 10**400])
    def test_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_range("x", value)

    def test_bounds(self):
        with pytest.raises(ValueError, match="negative x"):
            check_range("x", -1, ge=0)
        with pytest.raises(ValueError, match="x must be >= 1"):
            check_range("x", 0, ge=1)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_range("x", 0.0, gt=0)
        with pytest.raises(ValueError, match="x must be < 1"):
            check_range("x", 1.0, lt=1)


class TestSimConfig:
    @pytest.mark.parametrize("field,value", BAD_SIM_FIELDS)
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="rate"):
            SimConfig().replace(rate=NAN)

    def test_nan_live_window_fails_fast(self):
        """Used to hang forever: a NaN window boundary never closes."""
        outcome = within(
            5.0,
            lambda: SimConfig(
                num_requests=200, warmup=0, live_window=NAN
            ).run(),
        )
        assert isinstance(outcome.get("error"), ValueError)

    def test_nan_window_rejected_by_the_aggregator(self):
        outcome = within(5.0, lambda: LiveAggregator(window_s=NAN))
        assert isinstance(outcome.get("error"), ValueError)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(allow_nan=True, allow_infinity=True))
    def test_any_rate_is_valid_or_rejected(self, rate):
        try:
            config = SimConfig(rate=rate, num_requests=40, warmup=0)
        except ValueError:
            assert not (math.isfinite(rate) and rate > 0)
            return
        assert math.isfinite(rate) and rate > 0
        try:
            result = config.run()
        except ValueError as exc:
            # A rate so small that arrival times overflow to infinity.
            assert "arrival_time" in str(exc)
            return
        assert math.isfinite(result.mean_response_time)


class TestArrivals:
    @pytest.mark.parametrize("arrival", [NAN, INF])
    def test_request_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ValueError, match="arrival_time"):
            Request(arrival, lbn=0, sectors=1, kind=IOKind.READ)

    def test_batch_ingest_rejects_non_finite_arrival(self):
        batch = RequestBatch(
            arrival=[0.0, INF],
            lbn=[0, 8],
            sectors=[1, 1],
            is_write=[False, False],
            rid=[0, 1],
        )
        simulation = SimConfig(scheduler="FCFS").build_simulation()
        with pytest.raises(ValueError, match="arrival_time"):
            simulation.run(batch)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_tiny_rate_fails_cleanly(self):
        with pytest.raises(ValueError, match="arrival_time"):
            SimConfig(rate=1e-310, num_requests=40).run()


class TestFleetConfig:
    @pytest.mark.parametrize("field,value", BAD_FLEET_FIELDS)
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetConfig.uniform(2, **{field: value})

    def test_member_queue_bound_checked(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            FleetConfig.uniform(2, member=SimConfig(max_queue_depth=0))


class TestSLOSpec:
    @pytest.mark.parametrize(
        "spec", ["all:p99:nan", "all:p99:inf", "all:p99:0.01:nan", "all:pnan:0.01"]
    )
    def test_parse_rejects_non_finite(self, spec):
        with pytest.raises(ValueError):
            parse_slo(spec)

    def test_long_windows_checked(self):
        with pytest.raises(ValueError, match="long_windows"):
            SLOSpec(long_windows=0)


class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--rate", "nan"],
            ["simulate", "--rate", "inf"],
            ["simulate", "--rate", "0"],
            ["simulate", "--live-window", "nan"],
            ["simulate", "--requests", "-3"],
            ["fleet", "--rate", "nan"],
            ["fleet", "--rate", "inf"],
            ["fleet", "--live-window", "nan"],
        ],
    )
    def test_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_queue_bound_exits_two(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text('{"max_queue_depth": 0}')
        assert main(["simulate", "--config", str(path)]) == 2
        assert "max_queue_depth" in capsys.readouterr().err

"""Cold-process benchmark of the MEMS/disk simulator, one workload per call.

    python3 perfbench/run.py --workload fleet16 --seed 1 --seconds 40 --trace 0

Every sample is a fresh interpreter (``sample.py``), so process-wide memos
start empty.  ``--trace 0`` repeats untraced samples for ``--seconds`` and
reports the end-to-end metrics over all of them; ``--trace 1`` runs the legs
the per-layer table needs (untraced samples, a span-traced sample and, for
the pooled workloads, ``jobs=1`` and pool-timing legs) and reports the
per-layer metrics.  All samples of one call use the same seed, so they
simulate the same inputs and must produce the same digest.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts the
simulated requests generated over all samples and ``failed`` those that did
not complete (all of a sample's requests when its output check fails).

Workloads (see ``cases.py`` for sizes):

``mems_sptf_deep``
    MEMS, SPTF, random workload at 2000 req/s: deep queues, so SPTF
    selection and MEMS positioning estimates dominate.  Cold, single run.
``fig6_sweep``
    Figure 6's sweep (FCFS, SSTF_LBN, C-LOOK, SPTF x 7 rates) with
    ``jobs=nproc``: the one workload that replays streams across points, so
    the shared memos pay here; also saturation early-exit and the sweep pool.
``fleet16``
    16 MEMS members behind the ``lbn-range`` router, 800 req/s each,
    ``jobs=nproc``: shallow queues, so stream generation, sharding, worker
    handoff and merge dominate.
``tpcc_traced``
    TPC-C-like pages on the Atlas 10K disk with C-LOOK, a JSONL trace, live
    windows and one SLO, then ``analyze_trace``: the only workload with
    tracing, writes, the disk model and a non-SPTF single run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE = os.path.join(HERE, "sample.py")
sys.path.insert(0, HERE)

import cases  # noqa: E402
import host  # noqa: E402
import spans  # noqa: E402

MIN_SAMPLES = 3
MAX_SAMPLES = 40
SAMPLE_TIMEOUT_S = 150
MEASURE_LIMIT_S = 120  # stop sampling past this even below MIN_SAMPLES


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def launch(
    workload: str,
    seed: int,
    size: str,
    jobs: int,
    span_mode: str = "none",
) -> dict:
    """Run one sample in a fresh interpreter and return its row.

    A sample that crashes, hangs or prints no row is returned as a failed
    row: every request it should have simulated counts as failed.
    """
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)
    command = [
        sys.executable,
        SAMPLE,
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--jobs", str(jobs),
        "--spans", span_mode,
    ]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    command += ["--t0", repr(t0)]
    error: Optional[str] = None
    # Its own session, so a hung sample is killed with its worker processes.
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        error = f"sample timed out after {SAMPLE_TIMEOUT_S} s"
    else:
        lines = stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except json.JSONDecodeError:
                error = f"unparseable sample output: {lines[-1][:200]}"
        else:
            error = f"sample exited {proc.returncode}: {stderr[-2000:]}"
    requests = cases.request_count(workload, size)
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "jobs": jobs,
        "spans": span_mode,
        "requests": requests,
        "completed": 0,
        "failed": requests,
        "ok": False,
        "errors": [error],
        "digest": "",
    }


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def throughput(rows: List[dict]) -> float:
    """Completed requests per host second, over all timed calls of ``rows``."""
    wall = sum(row["wall_s"] for row in rows)
    return sum(row["completed"] for row in rows) / wall if wall else 0.0


def consistent(rows: List[dict]) -> List[str]:
    """Every sample of one call simulated the same inputs: same digest."""
    digests = {row["digest"] for row in rows if row.get("ok")}
    if len(digests) > 1:
        return [f"samples disagree on the output digest: {sorted(digests)}"]
    return []


def print_row(row: dict) -> None:
    brief = {k: v for k, v in row.items() if k not in ("span_table", "manifest")}
    print("sample " + json.dumps(brief, sort_keys=True))


def measure(args) -> dict:
    """Untraced samples for ``--seconds`` and the end-to-end metrics over them.

    ``req_per_s`` is the throughput of the whole run: the requests every
    timed call completed over the host seconds those calls took together.
    It weighs every measured second alike, where a median of the per-sample
    rates rests on one sample and so follows the host's speed drift more
    closely.  ``setup_s`` and ``peak_rss_mb`` are medians over the samples.
    """
    jobs = host.nproc() if cases.CASES[args.workload].pooled else 1
    rows: List[dict] = []
    began = time.monotonic()
    while len(rows) < MAX_SAMPLES:
        rows.append(launch(args.workload, args.seed, args.size, jobs))
        print_row(rows[-1])
        elapsed = time.monotonic() - began
        # Start another sample only if one more, at the pace so far, still
        # ends inside the measuring window.
        finish = elapsed + elapsed / len(rows)
        if finish > MEASURE_LIMIT_S or (
            len(rows) >= MIN_SAMPLES and finish > args.seconds
        ):
            break
    good = [row for row in rows if row.get("ok")]
    errors = consistent(rows)
    metrics = {
        "req_per_s": throughput(good),
        "setup_s": median([row["setup_s"] for row in good]),
        "peak_rss_mb": median([row["peak_rss_mb"] for row in good]),
    }
    return summarize(args, rows, errors, metrics, metric_units("end_to_end"))


def trace(args) -> dict:
    """The legs behind the per-layer table, each in a fresh interpreter."""
    case = cases.CASES[args.workload]
    nproc = host.nproc()
    w, seed, size = args.workload, args.seed, args.size
    rows: List[dict] = []

    def leg(jobs: int, span_mode: str = "none", repeat: int = 1) -> List[dict]:
        out = [launch(w, seed, size, jobs, span_mode) for _ in range(repeat)]
        for row in out:
            print_row(row)
        rows.extend(out)
        return out

    jobs = nproc if case.pooled else 1
    untraced = leg(jobs, repeat=3)
    base_wall = median([row["wall_s"] for row in untraced if row.get("ok")])
    units = metric_units("per_layer")
    layers: Dict[str, float] = {name: 0 for name in units}
    errors: List[str] = []
    if case.pooled:
        serial = leg(1, repeat=3)
        serial_wall = median([row["wall_s"] for row in serial if row.get("ok")])
        speedup = serial_wall / base_wall if base_wall else 0.0
        pool_leg = leg(nproc, "coarse")[0]
        coarse_serial = leg(1, "coarse")[0]
        traced = leg(1, "all")[0]
        overhead_base = serial_wall
        layer = "fleet" if w == "fleet16" else "experiments"
        layers[f"{layer}.parallel_speedup"] = speedup
        layers[f"{layer}.pool_s"] = _span_total(pool_leg, f"{layer}.pool")
        if layer == "fleet":
            layers["fleet.shard_s"] = _span_total(coarse_serial, "fleet.shard")
            layers["fleet.merge_s"] = _span_total(coarse_serial, "fleet.merge")
            layers["fleet.member_run_s"] = _span_total(coarse_serial, "sim.run")
            dumps = {
                row.get("extra", {}).get("dump_sha256")
                for row in rows
                if row.get("ok")
            }
            if len(dumps) != 1:
                errors.append(f"jobs=1 and jobs={nproc} fleet dumps differ")
            print(f"fleet dump sha256 for jobs=1 and jobs={nproc}: {sorted(dumps)}")
    else:
        traced = leg(1, "all")[0]
        overhead_base = base_wall
    errors += consistent(rows)
    layers.update(traced.get("layers", {}))
    extra = traced.get("extra", {})
    layers["obs.trace_bytes"] = extra.get("trace_bytes", 0)
    if w == "fig6_sweep":
        layers["experiments.points"] = extra.get("points", 0)
        layers["experiments.saturated_points"] = extra.get("saturated_points", 0)
    if traced.get("ok") and overhead_base:
        layers["bench.trace_overhead"] = traced["wall_s"] / overhead_base
    print_spans(traced)
    print_layers(w, layers, units)
    return summarize(args, rows, errors, layers, units)


def _span_total(row: dict, name: str) -> float:
    for entry in row.get("span_table", []):
        if entry["span"] == name:
            return entry["total_s"]
    return 0.0


def print_spans(row: dict) -> None:
    """The traced sample's spans and the self-time reconciliation."""
    print(f"spans of the traced {row['workload']} sample (jobs={row['jobs']}):")
    print(f"  {'span':<22} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for entry in sorted(row.get("span_table", []), key=lambda e: -e["self_s"]):
        print(
            f"  {entry['span']:<22} {entry['calls']:>9} "
            f"{entry['total_s']:>10.4f} {entry['self_s']:>10.4f}"
        )
    rec = row.get("reconcile")
    if rec:
        total = rec["self_sum_s"] + rec["remainder_s"]
        print(
            f"  self sum {rec['self_sum_s']:.4f} s + remainder "
            f"{rec['remainder_s']:.4f} s = {total:.4f} s; traced wall "
            f"{rec['wall_s']:.4f} s"
        )


def print_layers(
    workload: str, layers: Dict[str, float], units: Dict[str, str]
) -> None:
    print(f"per-layer metrics, traced run of {workload}:")
    print(f"  {'metric':<30} {'value':>14} {'unit':<6} should move")
    for name, unit in units.items():
        print(f"  {name:<30} {layers[name]:>14.6g} {unit:<6} {spans.MOVES[name]}")


def summarize(args, rows, errors, values, units) -> dict:
    for row in rows:
        errors = errors + [f"seed {row['seed']}: {e}" for e in row.get("errors", [])]
    attempted = sum(row["requests"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    stored = all(row.get("digest_checked") for row in rows)
    print(
        f"{args.workload}: {len(rows)} samples, failed_ratio "
        f"{failed / attempted if attempted else 1.0:.6g}, digests "
        f"{'checked against digests.json' if stored else 'not stored for this seed'}"
    )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    manifest = next((row["manifest"] for row in rows if "manifest" in row), None)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        default=cases.FULL,
        choices=(cases.FULL, cases.TINY),
        help="input size; 'tiny' is for the benchmark's smoke tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    # Byte-compile up front so no sample's set-up pays for it.
    compileall.compile_dir(SRC, quiet=2)
    result = trace(args) if args.trace else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold run of one benchmark workload, in this fresh interpreter.

``run.py`` starts this script once per sample, so the process-wide memos
(``repro.mems.device._shared_components``, the seeded-stream memo in
``repro.workloads.synthetic``) start empty — the state a user of
``python -m repro simulate|fleet|experiments`` is in.  The script builds the
workload's config, makes the one timed call into its entry point, checks the
output and prints one JSON row as its last line of standard output.

    python3 perfbench/sample.py --workload mems_sptf_deep --seed 1

``--t0`` is the ``CLOCK_MONOTONIC`` reading the parent took just before
starting this process; ``setup_s`` runs from there to the first call into
the entry point (interpreter start, imports, config build).
"""

from __future__ import annotations

import time

_STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")

# Process-wide memos a cold run must find empty: (module, lru_cache'd name).
_MEMOS = (
    ("repro.mems.device", "_shared_components"),
    ("repro.workloads.synthetic", "_random_workload_requests"),
)


def memos_cold() -> bool:
    """True when every known process-wide memo is empty (or not loaded)."""
    for module_name, attr in _MEMOS:
        module = sys.modules.get(module_name)
        cache_info = getattr(getattr(module, attr, None), "cache_info", None)
        if cache_info is not None and cache_info().currsize:
            return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _shutdown_workers() -> None:
    """Join the persistent worker pool so its peak RSS is counted."""
    parallel = sys.modules.get("repro.experiments.parallel")
    shutdown = getattr(parallel, "shutdown_pool", None)
    if shutdown is not None:
        shutdown()


def run_sample(
    workload: str,
    seed: int,
    size: str,
    jobs: int,
    span_mode: str,
    t0: float,
) -> dict:
    sys.path.insert(0, SRC)
    import cases
    import host
    import spans

    case = cases.CASES[workload]
    if span_mode == spans.ALL and case.pooled and jobs != 1:
        raise SystemExit("--spans all records in-process only: use --jobs 1")
    os.makedirs(WORKDIR, exist_ok=True)
    recorder = spans.install(span_mode)
    prepared = case.prepare(seed, size, jobs, WORKDIR)
    cold = memos_cold()
    first_call = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    output = None
    try:
        output = case.call(prepared)
        end = time.perf_counter()
        _shutdown_workers()
        rss = peak_rss_mb()
        verdict = case.check(prepared, output)
    except Exception:  # a crashed run is a failed run, reported as a row
        end = time.perf_counter()
        rss = peak_rss_mb()
        verdict = cases.Verdict(
            prepared.requests, 0, [traceback.format_exc(limit=3)], ""
        )
    finally:
        cases.cleanup(prepared)
    stored = cases.stored_digest(workload, seed, size)
    if stored is not None and verdict.ok and verdict.digest != stored:
        verdict.errors.append(
            f"digest {verdict.digest[:16]} differs from stored {stored[:16]}"
        )
    wall = end - start
    row = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "jobs": jobs,
        "spans": span_mode,
        "wall_s": wall,
        "setup_s": first_call - t0,
        "peak_rss_mb": rss,
        "requests": verdict.requests,
        "completed": verdict.completed,
        "failed": verdict.failed,
        "ok": verdict.ok,
        "errors": verdict.errors,
        "digest": verdict.digest,
        "digest_checked": stored is not None,
        "extra": verdict.extra,
        "manifest": host.manifest(seed, cold),
    }
    if recorder is not None:
        table = recorder.table()
        self_sum = sum(entry["self_s"] for entry in table)
        covered = recorder.covered(start, end)
        row["span_table"] = table
        row["reconcile"] = {
            "wall_s": wall,
            "self_sum_s": self_sum,
            "remainder_s": wall - covered,
        }
        if span_mode == spans.ALL:
            layers = spans.layer_metrics(recorder)
            if hasattr(output, "members"):
                layers["fleet.result_bytes"] = sum(
                    len(pickle.dumps(member, pickle.HIGHEST_PROTOCOL))
                    for member in output.members
                )
            row["layers"] = layers
            recorder.write(os.path.join(WORKDIR, f"spans-{workload}.npz"))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", default="none", choices=("none", "coarse", "all"))
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    row = run_sample(
        args.workload,
        args.seed,
        args.size,
        args.jobs,
        args.spans,
        args.t0 if args.t0 is not None else _STARTED,
    )
    sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

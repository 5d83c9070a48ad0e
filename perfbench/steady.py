"""Steadiness check: repeat ``run.py`` and compare sets of runs to the bounds.

    python3 perfbench/steady.py --runs 10                 # one set, all workloads
    python3 perfbench/steady.py --runs 10 --sets 2        # two sets, compared
    python3 perfbench/steady.py --compare a.json b.json   # two saved sets

Each run uses its own seed (``--seed-base`` + run index; every set uses the
same seeds).  For each workload and end-to-end metric this prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the sample count and
the spread, the quartile distance as a share of the median.  A spread wider
than the metric's bound in ``BENCHMARK.json`` fails (``setup_s`` is exempt,
as set-up time is only compared by median).  With two sets, a second median
worse than the first by more than the bound fails.  Each set is saved as JSON
under ``perfbench/_work/``.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKDIR = os.path.join(HERE, "_work")

Results = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_set(workloads, runs: int, seed_base: int, seconds: int) -> Results:
    results: Results = {w: {} for w in workloads}
    for index in range(runs):
        for workload in workloads:
            seed = seed_base + index
            began = time.monotonic()
            proc = subprocess.run(
                [
                    sys.executable, RUN,
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", "0",
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(
                    f"{workload} seed {seed} failed: {proc.stderr[-2000:]}"
                )
            out = json.loads(lines[-1])
            if not out["correct"] or out["failed"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name, metric in out["metrics"].items():
                results[workload].setdefault(name, []).append(metric["value"])
            print(
                f"  {workload:<15} seed {seed:>3} "
                f"({time.monotonic() - began:5.1f} s): "
                + " ".join(
                    f"{name}={metric['value']:.6g}"
                    for name, metric in out["metrics"].items()
                ),
                flush=True,
            )
    return results


def spread_report(bench: dict, results: Results) -> bool:
    ok = True
    for workload, metrics in results.items():
        for spec in bench["end_to_end"]:
            values = metrics.get(spec["name"], [])
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            exempt = spec["name"] == "setup_s"
            verdict = (
                "exempt" if exempt
                else "steady" if spread < bound / 3
                else "ok" if spread <= bound
                else "TOO WIDE"
            )
            ok &= exempt or spread <= bound
            print(
                f"{workload:<15} {spec['name']:<12} median {med:<12.6g} "
                f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values):<3} "
                f"spread {spread:.4f} bound {bound} {verdict}"
            )
    return ok


def compare(bench: dict, first: Results, second: Results) -> bool:
    ok = True
    for workload in first:
        for spec in bench["end_to_end"]:
            a = first[workload].get(spec["name"])
            b = second.get(workload, {}).get(spec["name"])
            if not a or not b:
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            change = (m2 - m1) / m1
            worse = change if spec["better"] == "lower" else -change
            passed = worse <= spec["bound"]
            ok &= passed
            print(
                f"{workload:<15} {spec['name']:<12} median {m1:.6g} -> {m2:.6g} "
                f"({change:+.4f}) bound {spec['bound']} "
                f"{'ok' if passed else 'WORSE THAN BOUND'}"
            )
    return ok


def save(results: Results, label: str) -> str:
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"steady-{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--compare", nargs=2, metavar="SET_JSON")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                sets.append(json.load(handle))
    else:
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        seconds = args.seconds or bench["run_seconds"]
        stamp = time.strftime("%Y%m%dT%H%M%S")
        sets = []
        for number in range(1, args.sets + 1):
            print(f"set {number}: {args.runs} runs x {len(workloads)} workloads")
            sets.append(run_set(workloads, args.runs, args.seed_base, seconds))
            print(f"saved {save(sets[-1], f'{stamp}-set{number}')}")
    ok = True
    for number, results in enumerate(sets, 1):
        print(f"spread, set {number}:")
        ok &= spread_report(bench, results)
    for number in range(1, len(sets)):
        print(f"medians, set {number} -> set {number + 1}:")
        ok &= compare(bench, sets[number - 1], sets[number])
    print("steady: " + ("all within bounds" if ok else "OUT OF BOUNDS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the stored output digests for the shipped seeds.

    python3 perfbench/record_digests.py --seeds 0-24

Runs one full-size cold sample of every workload per seed and writes each
output digest to ``digests.json``, replacing what was stored for those seeds.
Run it only when a change is meant to alter simulated output (a model fix),
and say so in the change: a change that only makes the simulator faster must
leave every stored digest matching.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range, e.g. 0-24")
    parser.add_argument("--workloads", nargs="*", default=sorted(cases.CASES))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    stored = cases.load_digests()
    for workload in args.workloads:
        for seed in seeds:
            stored.get(workload, {}).pop(str(seed), None)
    with open(cases.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
    for seed in seeds:
        for workload in args.workloads:
            row = run.launch(workload, seed, cases.FULL, host.nproc())
            if not row["ok"]:
                print(f"{workload} seed {seed}: {row['errors']}", file=sys.stderr)
                return 1
            stored.setdefault(workload, {})[str(seed)] = row["digest"]
            print(f"{workload} seed {seed}: {row['digest'][:16]}", flush=True)
        with open(cases.DIGESTS_PATH, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the output check on studies at held-out seeds. From a checkout root:

    python3 hcbench/heldout.py --workload compare --seeds 9001-9010

Each seed is one study of the workload's input for that fleet seed. Prints
one verdict line per seed (with the limiting factors seen, to show what the
study exercised) and exits 1 if any study failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import shutil
import sys

from run import SRC, WORK, run_study
from workloads import DISTINCT_INPUTS, make_input, study_workers


def _limits(out) -> str:
    """The limiting factors in the study's summary table, with counts."""
    seen: dict[str, int] = {}
    for name in ("table1.csv", "sweep_doe.csv", "threshold_sweep.csv"):
        path = out / name
        if path.exists():
            for row in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))):
                seen[row["limiting_factor"]] = seen.get(row["limiting_factor"], 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(seen.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DISTINCT_INPUTS))
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    work = WORK / f"heldout-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    failed = 0
    try:
        for seed in range(first, last + 1):
            inp = make_input(args.workload, seed, work / f"input{seed}", SRC)
            out = work / f"out{seed}"
            study = run_study(inp, out, study_workers(args.workload), keep=True)
            verdict = "pass" if not study.failures else f"FAIL {study.failures[0]}"
            print(f"{args.workload} seed {seed}: {verdict} ({study.wall_s:.2f} s; "
                  f"{_limits(out)})", flush=True)
            failed += bool(study.failures)
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failed} of {last - first + 1} studies failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

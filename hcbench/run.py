"""evhc benchmark: whole studies through the ``evhc`` command line.

Usage (from the root of a checkout):

    python3 hcbench/run.py --workload compare --seed 1 --seconds 40 --trace 0

One closed-loop client runs one study at a time, each a fresh ``evhc``
process, for about ``--seconds`` seconds, and checks every study's output
files (see check.py). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's studies (set-up over its own start-up samples). With
``--trace 1`` they are the per-layer ones from a run of the study under the
recorder (see recorder.py and traced.py), plus the pool efficiency and the
tracing overhead taken from untraced studies of the same input.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import Failure, check_study, compare_trees, tree_digest
from workloads import DISTINCT_INPUTS, StudyInput, make_input, study_argv, study_seed, study_workers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".hcbench_work"
SETUP_SAMPLES = 3  # taken before the first study; one more precedes each
STUDY_TIMEOUT_S = 150.0

# Interpreter start, the evhc import and loading the feeder and profiles.
SETUP_CODE = """\
import sys
import evhc.cli
from evhc import bundled_baseline_profiles, bundled_feeder, load_baseline_profiles, load_feeder
feeder, profiles = sys.argv[1:3]
bundled_feeder() if feeder == "builtin" else load_feeder(feeder)
bundled_baseline_profiles() if profiles == "builtin" else load_baseline_profiles(profiles)
"""


@dataclass
class Study:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[Failure]
    digest: dict[str, bytes]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run one process to its end; return its exit code, wall time, the
    user + system CPU time of it and every process it waited for, and the
    largest peak resident set among them in MiB."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(STUDY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _finish(code: int, out: Path, log: Path, inp: StudyInput) -> tuple[list[Failure], dict]:
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        return [Failure(out.name, None, f"evhc exited with {code}: {' '.join(tail)}")], {}
    return check_study(out, inp), tree_digest(out)


def run_study(inp: StudyInput, out: Path, workers: int, keep: bool = False) -> Study:
    """One untraced study as a user runs it: ``evhc ...`` from start to exit.
    The output directory is removed after the check unless ``keep``."""
    log = out.with_suffix(".log")
    argv = [sys.executable, "-m", "evhc.cli", *study_argv(inp, out, workers)]
    code, wall, cpu, rss = _spawn(argv, inp.directory, log)
    failures, digest = _finish(code, out, log, inp)
    if not keep:
        shutil.rmtree(out, ignore_errors=True)
    return Study(wall, cpu, rss, failures, digest)


def run_traced_study(inp: StudyInput, out: Path) -> tuple[Study, dict]:
    """One study under the recorder, in a single process (one worker)."""
    log, result = out.with_suffix(".log"), out.with_suffix(".json")
    argv = [sys.executable, str(Path(__file__).with_name("traced.py")), str(SRC), str(result),
            *study_argv(inp, out, 1)]
    code, wall, cpu, rss = _spawn(argv, inp.directory, log)
    failures, digest = _finish(code, out, log, inp)
    shutil.rmtree(out, ignore_errors=True)
    traced = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
    return Study(wall, cpu, rss, failures, digest), traced


def setup_sample(inp: StudyInput, log: Path) -> float:
    bundled = inp.workload != "threshold_large"
    args = ["builtin", "builtin"] if bundled else [str(inp.feeder), str(inp.profiles)]
    code, wall, _, _ = _spawn([sys.executable, "-c", SETUP_CODE, *args], inp.directory, log)
    if code != 0:
        raise RuntimeError(f"set-up sample exited with {code}: see {log}")
    return wall


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _print_summary(name: str, values: list[float], unit: str) -> None:
    q1, q3 = _quartiles(values)
    print(f"  {name:<14} median {statistics.median(values):.4f} {unit}  "
          f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")


def untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    inputs = [make_input(workload, study_seed(seed, k), work / f"input{k}", SRC)
              for k in range(DISTINCT_INPUTS[workload])]
    setup_sample(inputs[0], work / "warmup.log")  # compiles bytecode, untimed
    setup = [setup_sample(inputs[0], work / "setup.log") for _ in range(SETUP_SAMPLES - 1)]

    studies: list[Study] = []
    first: dict[int, dict[str, bytes]] = {}
    failed = 0
    start = time.perf_counter()
    while True:
        k = len(studies) % len(inputs)
        # One more start-up sample before each study spreads them over the run.
        setup.append(setup_sample(inputs[k], work / "setup.log"))
        study = run_study(inputs[k], work / f"study{len(studies)}", study_workers(workload))
        if not study.failures:
            if k in first:
                study.failures = compare_trees(first[k], study.digest, f"seed {inputs[k].seed}")
            else:
                first[k] = study.digest
        study.digest = {}
        studies.append(study)
        if study.failures:
            failed += 1
            for f in study.failures[:10]:
                print(f"FAIL study {len(studies)} (seed {inputs[k].seed}): {f}")
        # A study that would end within half a study of the deadline still
        # starts, so that ~10 s studies use the whole run.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s.wall_s for s in studies) / 2 > seconds:
            break

    metrics = {
        "wall_s": ([s.wall_s for s in studies], "s"),
        "setup_s": (setup, "s"),
        "cpu_s": ([s.cpu_s for s in studies], "s"),
        "peak_rss_mb": ([s.peak_rss_mb for s in studies], "MiB"),
    }
    print(f"{workload} seed {seed}: {len(studies)} studies over seeds "
          f"{sorted({i.seed for i in inputs[:len(studies)]})}, "
          f"{inputs[0].nodes} nodes, {inputs[0].households} households")
    for name, (values, unit) in metrics.items():
        _print_summary(name, values, unit)
    return {
        "correct": failed == 0,
        "attempted": len(studies),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in metrics.items()
        },
    }


TIME_UNITS = ("s", "us")


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    inp = make_input(workload, study_seed(seed, 0), work / "input0", SRC)
    attempted, failed = 0, 0

    def account(study: Study, label: str, reference: dict | None, skip=()) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not study.failures and reference is not None:
            study.failures = compare_trees(reference, study.digest, label, skip)
        if study.failures:
            failed += 1
            for f in study.failures[:10]:
                print(f"FAIL {label}: {f}")

    start = time.perf_counter()
    one = run_study(inp, work / "untraced1", 1)
    account(one, "untraced, 1 worker", None)
    two = run_study(inp, work / "untraced2", 2)
    # The manifest hashes the whole configuration, worker count included.
    account(two, "untraced, 2 workers", one.digest, skip=("manifest.json",))

    # At least two traced studies, so that the work counters are always
    # compared between two runs of the same input.
    runs: list[tuple[Study, dict]] = []
    while True:
        study, result = run_traced_study(inp, work / f"traced{len(runs)}")
        if not result:
            study.failures.append(Failure("recorder", None, "wrote no result"))
        elif result["missing"]:
            # A renamed or moved target would read as zero work, not as an error.
            study.failures.append(Failure("recorder", None, "not found in evhc: "
                                          + ", ".join(result["missing"])))
        account(study, "traced, 1 worker", one.digest)
        if not result:
            break
        runs.append((study, result))
        elapsed = time.perf_counter() - start
        if len(runs) >= 2 and elapsed + statistics.median(s.wall_s for s, _ in runs) > seconds:
            break

    metrics: dict[str, dict] = {}
    if runs:
        first = runs[0][1]["metrics"]
        for name, (value, unit) in first.items():
            values = [r["metrics"][name][0] for _, r in runs]
            if unit in TIME_UNITS:
                value = statistics.median(values)
            elif any(v != value for v in values):
                failed += 1
                print(f"FAIL traced studies disagree on {name}: {values}")
            metrics[name] = {"value": value, "unit": unit}
        spans_file = WORK / f"spans-{workload}-{seed}.json"
        spans_file.write_text(json.dumps(runs[0][1]["spans"]), encoding="utf-8")
        print(f"{len(runs[0][1]['spans'])} spans of the first traced study in {spans_file}")
    traced_wall = statistics.median(s.wall_s for s, _ in runs) if runs else 0.0
    metrics["cli.bytes_written"] = {
        "value": sum(len(b) for b in one.digest.values()), "unit": "B"}
    metrics["cli.files_written"] = {"value": len(one.digest), "unit": "count"}
    metrics["hc.pool_efficiency"] = {"value": one.wall_s / (2 * two.wall_s), "unit": "ratio"}
    metrics["bench.trace_overhead"] = {"value": traced_wall / one.wall_s, "unit": "ratio"}
    print(f"{workload} seed {inp.seed}: untraced {one.wall_s:.3f} s (1 worker), "
          f"{two.wall_s:.3f} s (2 workers); traced {traced_wall:.3f} s, n={len(runs)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DISTINCT_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evhc" / "cli.py").is_file():
        print(f"error: no evhc sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        result = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

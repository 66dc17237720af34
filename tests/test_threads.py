"""Process footprint: one BLAS thread and no pool machinery, at import and
after a sweep, and results that do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import evhc
from evhc.feeder import (
    Branch, Household, Node, build_feeder, bundled_baseline_profiles, save_feeder,
)

SRC = str(Path(evhc.__file__).resolve().parent.parent)

FOOTPRINT = """\
import json, os, sys
import evhc.cli
if sys.argv[1:]:  # a study to run first
    assert evhc.cli.main(sys.argv[1:]) == 0
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({
    "threads": tasks,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "pool_modules": sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)),
}))
"""


def _env(blas_threads: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _footprint(blas_threads: str | None, *argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], env=_env(blas_threads),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_starts_one_thread_and_loads_no_pool():
    seen = _footprint(None)
    assert seen["blas"] == "1"
    assert seen["pool_modules"] == []
    if seen["threads"] is not None:
        assert seen["threads"] == 1


def test_a_two_worker_sweep_runs_in_one_thread_of_one_process(tmp_path):
    """``workers`` is accepted for old scenario files and starts nothing."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump({
        "scenarios": ["low", "high"],
        "search": {"power_min_kw": 1.0, "power_max_kw": 8.0, "power_step_kw": 1.0},
        "sweep": {"delta_perm_min": 0.05, "delta_perm_max": 0.05, "factor_values": [0.5]},
    }))
    out = tmp_path / "out"
    seen = _footprint(None, "sweep", str(scenario), "--workers", "2", "--output-dir", str(out))
    assert (out / "sweep_doe.csv").read_text().count("\n") == 3  # header and two cells
    assert seen["pool_modules"] == []
    if seen["threads"] is not None:
        assert seen["threads"] == 1


def test_a_set_blas_thread_count_is_kept():
    assert _footprint("2")["blas"] == "2"


def _large_feeder():
    """Four trunks of nine nodes, a one-node lateral off every trunk node
    (72 non-slack nodes) and a household on each lateral end."""
    nodes, branches, households = [Node("tx", is_slack=True)], [], []
    for f in range(4):
        up = "tx"
        for t in range(9):
            trunk, lateral = f"f{f}t{t}", f"f{f}t{t}l"
            r = 0.05 + 0.001 * ((9 * f + t) % 7)
            branches.append(Branch(up, trunk, r, 0.4 * r, 400.0))
            branches.append(Branch(trunk, lateral, 0.01, 0.002, 160.0))
            nodes += [Node(trunk), Node(lateral)]
            households.append(Household(f"h{len(households) + 1:03d}", lateral))
            up = trunk
    return build_feeder(tuple(nodes), tuple(branches), tuple(households), 1000.0, 230.0)


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    feeder = _large_feeder()
    assert len(feeder.nodes) - 1 >= 70
    save_feeder(feeder, tmp_path / "feeder.yaml")
    bundled = bundled_baseline_profiles()
    tiled = [bundled[i % len(bundled)].power_kw for i in range(len(feeder.households))]
    rows = [",".join(h.id for h in feeder.households)]
    rows += [",".join(repr(p[step]) for p in tiled) for step in range(len(tiled[0]))]
    (tmp_path / "profiles.csv").write_text("\n".join(rows) + "\n")
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump({
        "mode": "sweep_qos_threshold",
        "feeder": "feeder.yaml",
        "baseline_profiles": "profiles.csv",
        "scenarios": ["medium"],
        "doe": {"factor": 0.3},
        "search": {"power_min_kw": 2.0, "power_max_kw": 8.0, "power_step_kw": 2.0},
        "sweep": {"qos_thresholds": [0.6, 0.9]},
    }))
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"out_{threads}"
        subprocess.run(
            [sys.executable, "-m", "evhc.cli", "sweep", str(scenario), "--which", "qos-threshold",
             "--output-dir", str(out)],
            cwd=tmp_path, env=_env(threads), capture_output=True, timeout=120, check=True,
        )
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0] and trees[0] == trees[1]

"""The three benchmark workloads: how each makes its inputs from a seed and
how one study of it is run through the ``evhc`` command line.

A study is one whole ``evhc`` invocation. Its inputs are a scenario file
written here (and, for ``threshold_large``, a generated feeder and profile
table); the program gets nothing else from the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import feedergen

POWER_GRID_KW = tuple(float(k) for k in range(1, 21))
QOS_THRESHOLD = 0.8
DELTA_PERM_GRID = tuple(round(0.01 * k, 9) for k in range(11))
FACTOR_VALUES = (0.0, 0.2, 0.5)
QOS_THRESHOLDS = (0.6, 0.7, 0.8, 0.9)
ALL_SCENARIOS = ("low", "medium", "high")
# One scenario keeps a study near 5 s; "high" has the longest sessions, so
# the most envelope-controlled steps and fixed-point fallbacks.
LARGE_SCENARIOS = ("high",)
# On the generated feeder a floor of 0.3 x P_max lets curtailment hold the
# voltage long enough for aggregated QoS to bind at the upper thresholds,
# while undervoltage still binds at the lower ones (0.5 gives undervoltage
# nearly everywhere, 0.2 mostly QoS).
LARGE_FACTOR = 0.3


@dataclass(frozen=True)
class StudyInput:
    """Everything one study reads, already written to ``directory``."""

    workload: str
    seed: int                    # the fleet seed written into the scenario file
    directory: Path
    scenario: Path
    feeder: Path                 # feeder YAML (the bundled file for bundled studies)
    profiles: Path               # baseline profile table
    scenarios: tuple[str, ...]
    nodes: int
    households: int


# Distinct input sets a run cycles through. Study i of a run uses input set
# i mod DISTINCT_INPUTS[workload], so a run averages over several fleets and
# still repeats inputs, which lets the check demand byte-identical reruns.
DISTINCT_INPUTS = {"compare": 3, "sweep_doe": 4, "threshold_large": 3}


def study_seed(run_seed: int, k: int) -> int:
    """Seed of input set ``k`` of a run; disjoint across run seeds."""
    return run_seed * 100 + k


def _flow(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def make_input(workload: str, seed: int, directory: Path, src: Path) -> StudyInput:
    """Write the scenario file (and generated network) of one input set."""
    directory.mkdir(parents=True, exist_ok=True)
    bundled_feeder = src / "evhc" / "data" / "feeder_19node.yaml"
    bundled_profiles = src / "evhc" / "data" / "baseline_profiles.csv"
    lines = [
        f"seed: {seed}",
        f"search: {{power_min_kw: {POWER_GRID_KW[0]}, power_max_kw: {POWER_GRID_KW[-1]}, "
        f"power_step_kw: 1.0, qos_threshold: {QOS_THRESHOLD}}}",
        "workers: 1",
    ]
    if workload == "compare":
        scenarios = ALL_SCENARIOS
        feeder, profiles = bundled_feeder, bundled_profiles
        lines += ["mode: compare", "feeder: builtin", "baseline_profiles: builtin"]
        nodes, households = 19, 12
    elif workload == "sweep_doe":
        scenarios = ALL_SCENARIOS
        feeder, profiles = bundled_feeder, bundled_profiles
        lines += [
            "mode: sweep_doe",
            "feeder: builtin",
            "baseline_profiles: builtin",
            f"sweep: {{delta_perm_min: {DELTA_PERM_GRID[0]}, delta_perm_max: "
            f"{DELTA_PERM_GRID[-1]}, delta_perm_step: 0.01, factor_values: "
            f"{_flow(FACTOR_VALUES)}}}",
        ]
        nodes, households = 19, 12
    elif workload == "threshold_large":
        scenarios = LARGE_SCENARIOS
        net = feedergen.generate(seed, directory, bundled_profiles)
        feeder, profiles = net["feeder"], net["profiles"]
        lines += [
            "mode: sweep_qos_threshold",
            f"feeder: {feeder.name}",
            f"baseline_profiles: {profiles.name}",
            f"doe: {{delta_perm: 0.05, factor: {LARGE_FACTOR}}}",
            f"sweep: {{qos_thresholds: {_flow(QOS_THRESHOLDS)}}}",
        ]
        nodes, households = net["nodes"], net["households"]
    else:
        raise ValueError(f"unknown workload {workload}")
    lines.append(f"scenarios: {_flow(scenarios)}")
    scenario = directory / "scenario.yaml"
    scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return StudyInput(
        workload, seed, directory, scenario, feeder, profiles, scenarios, nodes, households
    )


def study_argv(inp: StudyInput, out_dir: Path, workers: int) -> list[str]:
    """The ``evhc`` arguments of one study (after ``python -m evhc.cli``)."""
    if inp.workload == "compare":
        verb = ["run", str(inp.scenario)]
    elif inp.workload == "sweep_doe":
        verb = ["sweep", str(inp.scenario)]
    else:
        verb = ["sweep", str(inp.scenario), "--which", "qos-threshold"]
    return verb + ["--output-dir", str(out_dir), "--workers", str(workers)]


def study_workers(workload: str) -> int:
    """Worker count of the untraced studies: ``nproc`` for the DOE sweep,
    which is the only study that starts a pool."""
    return 2 if workload == "sweep_doe" else 1


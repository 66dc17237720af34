"""Self-test of the benchmark's own parts. Run from the root of a checkout:

    python3 hcbench/selftest.py

1. The recorder's counters equal a hand count on a one-EV fleet on the
   bundled feeder, for one candidate power.
2. The output check passes real studies of every workload and rejects
   corrupted copies of each output kind, naming the file and the row.
3. The generated feeder loads with ``evhc`` and passes ``evhc validate``.
4. A traced run fails when a recorded function is renamed in ``evhc``,
   instead of reporting zero work for it.

It prints one line per finding and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from check import check_study, compare_trees, tree_digest
from run import ROOT, SRC, WORK, _env, run_study
from workloads import make_input, study_workers

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


# ------------------------------------------------------------ 1. recorder


def recorder_hand_count() -> None:
    sys.path.insert(0, str(SRC))
    from recorder import Recorder, install

    rec = Recorder()
    install(rec)
    import evhc.doe as doe
    from evhc import DEFAULT_SCENARIOS, HcSearchConfig, bundled_baseline_profiles, bundled_feeder
    from evhc import generate_fleet, network_aware_hc, passive_hc

    feeder, profiles = bundled_feeder(), bundled_baseline_profiles()
    fleet = generate_fleet(DEFAULT_SCENARIOS["medium"], feeder.household_ids[:1], seed=3)
    session = fleet[0]
    config = HcSearchConfig(power_grid_kw=(7.0,))
    connected = session.duration_steps

    def counts():
        return {k: v for k, (v, unit) in rec.metrics().items() if unit not in ("s", "us")}

    passive_hc(feeder, profiles, fleet, config)
    m = counts()
    expect(m["powerflow.solve.calls"] == 96, "passive candidate: one solve per step (96)")
    expect(m["doe.passive_horizon.calls"] == 1 and m["doe.na_horizon.calls"] == 0,
           "passive candidate: one passive horizon")
    expect(m["incidents.detect.calls"] == 1 and m["trace.summarize.calls"] == 1,
           "passive candidate: one detect, one summarize")
    expect(m["doe.envelope_bound.calls"] == 0, "passive candidate: no envelope evaluated")
    expect(m["hc.candidates_evaluated"] == 1 and m["cli.resim_horizons"] == 0,
           "passive candidate: one candidate, no horizon outside a search")

    network_aware_hc(feeder, profiles, fleet, config)
    m = counts()
    bounds = m["doe.envelope_bound.calls"]
    expect(m["doe.na_horizon.calls"] == 1, "network-aware candidate: one horizon")
    expect(m["doe.controlled_steps"] == connected,
           f"network-aware candidate: controlled steps = session length ({connected})")
    expect(m["powerflow.solve.calls"] == 96 + (96 - connected) + bounds,
           "network-aware candidate: one solve per idle step plus one per envelope evaluation")
    expect(abs(m["doe.fp_solves_per_step"] * connected - bounds) < 1e-9,
           "network-aware candidate: fixed-point solves = envelope evaluations (one EV)")
    expect(m["ev.baseline_trajectory.calls"] == 1 and m["qos.build_report.calls"] == 1,
           "network-aware candidate: one baseline trajectory, one QoS report")
    expect(m["hc.candidates_evaluated"] == 2 and m["hc.horizon_unique_ratio"] == 1.0,
           "two candidates evaluated, every horizon unique")

    for _ in range(2):
        doe.network_aware_horizon(feeder, profiles, fleet, 7.0, config.doe)
    m = counts()
    expect(m["cli.resim_horizons"] == 2, "horizons outside a search count as re-simulations")
    expect(m["hc.horizon_unique_ratio"] == 2 / 4, "a repeated horizon halves the unique ratio")
    expect(all(s is not None for s in rec.spans), "every span record is closed")
    causes = {s[0]: s[4] for s in rec.spans}
    names = {s[0]: s[1] for s in rec.spans}
    detect_parents = {names[causes[i]] for i, n in names.items() if n == "incidents.detect"}
    expect(detect_parents == {"hc.passive_hc", "hc.network_aware_hc"},
           "detect spans are caused by the search spans")
    expect(all(rec.self_s[n] <= rec.total_s[n] + 1e-12 for n in rec.calls),
           "self time never exceeds total time")


# ------------------------------------------------------- 2. output check


def _mutate(root: Path, rel: str, edit) -> None:
    path = root / rel
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_cell(header: list[str], line: str, column: str, value: str) -> str:
    cells = line.split(",")
    cells[header.index(column)] = value
    return ",".join(cells)


def rejects(inp, good: Path, name: str, rel: str, row: int | None, edit) -> None:
    bad = good.parent / (good.name + "-bad")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(good, bad)
    edit(bad, rel)
    found = check_study(bad, inp)
    named = [f for f in found if f.file == rel and (row is None or f.row == row)]
    where = rel if row is None else f"{rel}:row {row}"
    expect(bool(named), f"check rejects {name} and names {where}"
           + (f" ({named[0].message})" if named else f" (got {[str(f) for f in found][:3]})"))
    shutil.rmtree(bad, ignore_errors=True)


def edit_cell(row: int, column: str, value_of):
    def edit(root: Path, rel: str) -> None:
        def change(lines):
            header = lines[0].split(",")
            old = lines[row - 1].split(",")[header.index(column)]
            lines[row - 1] = _set_cell(header, lines[row - 1], column, value_of(old))
        _mutate(root, rel, change)
    return edit


def swap_rows(a: int, b: int):
    def edit(root: Path, rel: str) -> None:
        def change(lines):
            lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        _mutate(root, rel, change)
    return edit


def drop_row(row: int):
    def edit(root: Path, rel: str) -> None:
        _mutate(root, rel, lambda lines: lines.pop(row - 1))
    return edit


def shift_hc(root: Path, rel: str) -> None:
    doc = json.loads((root / rel).read_text(encoding="utf-8"))
    doc["hc"] = doc["hc"] + 0.5
    (root / rel).write_text(json.dumps(doc), encoding="utf-8")


def output_check(work: Path) -> None:
    studies = {}
    for workload in ("compare", "sweep_doe", "threshold_large"):
        inp = make_input(workload, 1, work / f"{workload}-input", SRC)
        out = work / f"{workload}-out"
        study = run_study(inp, out, study_workers(workload), keep=True)
        expect(not study.failures, f"{workload} study at seed 1 passes the check"
               + "".join(f"\n       {f}" for f in study.failures[:5]))
        studies[workload] = (inp, out)

    inp, out = studies["compare"]
    na = next(d.name for d in sorted(out.glob("network_aware_*"))
              if (d / "profiles_voltage.csv").exists())
    rejects(inp, out, "a QoS above 1", f"{na}/qos_by_power.csv", 5,
            edit_cell(5, "qos", lambda v: "1.25"))
    rejects(inp, out, "an HC off the grid", f"{na}/report.json", None, shift_hc)
    rejects(inp, out, "a perturbed voltage", f"{na}/profiles_voltage.csv", 700,
            edit_cell(700, "network_aware_pu", lambda v: format(float(v) - 2e-6, ".10g")))
    rejects(inp, out, "a perturbed baseline voltage", f"{na}/profiles_voltage.csv", 40,
            edit_cell(40, "baseline_pu", lambda v: format(float(v) + 2e-6, ".10g")))
    rejects(inp, out, "a reordered candidate row", "passive_low/candidates.csv", 2,
            swap_rows(2, 3))
    rejects(inp, out, "a granted power above the envelope cap", f"{na}/envelope_trace.csv",
            1000, edit_cell(1000, "granted_kw", lambda v: "23"))
    rejects(inp, out, "a table1 row that disagrees with report.json", "table1.csv", 3,
            edit_cell(3, "hc", lambda v: "20"))
    first, again = tree_digest(out), tree_digest(out)
    again[f"{na}/candidates.csv"] = again[f"{na}/candidates.csv"].replace(b"True", b"Frue", 1)
    diff = compare_trees(first, again, "rerun")
    expect(not compare_trees(first, tree_digest(out), "rerun")
           and [(f.file, f.row) for f in diff] == [(f"{na}/candidates.csv", 2)],
           "a rerun that differs in one byte is named by file and row")

    inp, out = studies["sweep_doe"]
    rejects(inp, out, "a missing sweep cell", "sweep_doe.csv", 40, drop_row(40))
    rejects(inp, out, "a sweep cell error", "sweep_doe.csv", 12,
            edit_cell(12, "error", lambda v: "ValueError: boom"))
    rejects(inp, out, "a sweep QoS above 1", "sweep_doe.csv", 30,
            edit_cell(30, "qos_agg", lambda v: "1.0001"))

    inp, out = studies["threshold_large"]
    rejects(inp, out, "a capacity that rises with the threshold", "threshold_sweep.csv", 5,
            edit_cell(5, "nahc_kw", lambda v: "20"))
    rejects(inp, out, "an HC off the grid", "threshold_sweep.csv", 3,
            edit_cell(3, "nahc_kw", lambda v: "3.5"))


# ------------------------------------------------- 3. feeder generator


def generated_feeder(work: Path) -> None:
    sys.path.insert(0, str(SRC))
    from evhc.feeder import load_baseline_profiles, load_feeder

    for seed in (1, 2, 3):
        inp = make_input("threshold_large", seed, work / f"gen{seed}", SRC)
        feeder = load_feeder(inp.feeder)
        profiles = load_baseline_profiles(inp.profiles)
        expect(len(feeder.node_ids) == inp.nodes and len(feeder.household_ids) == inp.households
               and {p.household for p in profiles} == set(feeder.household_ids),
               f"generated feeder seed {seed}: {inp.nodes} nodes, {inp.households} households, "
               "a 96-step profile for each")
        valid = subprocess.run([sys.executable, "-m", "evhc.cli", "validate", str(inp.scenario)],
                               env=_env(), capture_output=True, text=True)
        expect(valid.returncode == 0, f"generated scenario seed {seed} passes evhc validate")
    again = make_input("threshold_large", 1, work / "gen1-again", SRC)
    expect(again.feeder.read_bytes() == (work / "gen1" / "feeder.yaml").read_bytes()
           and again.profiles.read_bytes() == (work / "gen1" / "profiles.csv").read_bytes(),
           "the same seed generates the same feeder and profiles")


# ------------------------------------------------ 4. renamed target


def renamed_target(work: Path) -> None:
    """Rename ``network_aware_horizon`` throughout a copy of the sources and
    run the traced benchmark there: the run must not report success."""
    copy = work / "renamed"
    shutil.copytree(ROOT / "hcbench", copy / "hcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(SRC / "evhc", copy / "src" / "evhc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in (copy / "src" / "evhc").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("network_aware_horizon", "network_aware_day"),
                        encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "hcbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=copy, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    named = any("evhc.doe.network_aware_horizon" in line for line in lines)
    expect(result.get("correct") is False and result.get("failed", 0) >= 2 and named,
           "a traced run with a renamed target fails and names the target"
           + ("" if result else f" (exit {done.returncode}: {done.stderr.strip()[-200:]})"))


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        recorder_hand_count()
        generated_feeder(work)
        output_check(work)
        renamed_target(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

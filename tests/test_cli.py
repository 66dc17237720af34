"""CLI verbs, exit codes, result files, and rerun determinism."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import evhc.cli
import evhc.doe
import evhc.ev
import evhc.feeder
import evhc.hc
from evhc.cli import main

BASE = {
    "mode": "network_aware",
    "feeder": "builtin",
    "baseline_profiles": "builtin",
    "seed": 1,
    "scenarios": ["low"],
    "search": {"power_min_kw": 1.0, "power_max_kw": 12.0, "power_step_kw": 1.0},
}


def _write_scenario(tmp_path, **overrides) -> Path:
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_init_example_then_validate(tmp_path, capsys):
    out = tmp_path / "example.yaml"
    assert main(["init-example", "--output", str(out)]) == 0
    assert out.exists()
    assert main(["validate", str(out)]) == 0
    assert "valid" in capsys.readouterr().out


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 1
    assert "not found" in capsys.readouterr().err


def test_delta_perm_out_of_range_cites_valid_range(tmp_path, capsys):
    path = _write_scenario(tmp_path, doe={"delta_perm": 0.5})
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "0.5" in err and "[0.0, 0.1]" in err


def test_unknown_mode_rejected(tmp_path):
    path = _write_scenario(tmp_path, mode="extravagant")
    assert main(["validate", str(path)]) == 1


def test_missing_fleet_file_rejected(tmp_path):
    path = _write_scenario(tmp_path, fleet={"source": "import"})
    assert main(["validate", str(path)]) == 1


NETWORK_AWARE_FILES = (
    "report.json",
    "candidates.csv",
    "incidents_next.csv",
    "qos_at_hc.csv",
    "envelope_trace.csv",
    "profiles_power.csv",
    "profiles_voltage.csv",
    "qos_by_power.csv",
)


def test_count_mode_power_must_be_positive(tmp_path, capsys):
    path = _write_scenario(tmp_path, search={**BASE["search"], "count_mode_power_kw": 0})
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "count_mode_power_kw" in capsys.readouterr().err


def test_rated_power_must_be_positive(tmp_path, capsys):
    path = _write_scenario(tmp_path, fleet={"rated_power_kw": -5})
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "rated_power_kw" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("house,arrive,leave,kwh,kw\nh01,70,80,5.0,22.0\n", "header"),
        ("household,arrival_step,departure_step,requested_kwh,rated_kw\nh01,70,80\n", "line 2"),
    ],
    ids=["bad_header", "short_row"],
)
def test_malformed_fleet_file_is_config_error(tmp_path, capsys, text, message):
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text(text)
    path = _write_scenario(
        tmp_path, mode="passive", fleet={"source": "import", "fleet_file": str(fleet_path)}
    )
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"fleet": {"rated_power_kw": "abc"}}, "fleet.rated_power_kw"),
        ({"search": {**BASE["search"], "power_min_kw": [1]}}, "search.power_min_kw"),
        ({"seed": "x"}, "seed"),
        ({"doe": {"delta_perm": "abc"}}, "doe.delta_perm"),
    ],
    ids=["rated_power", "power_min", "seed", "delta_perm"],
)
def test_malformed_value_is_config_error(tmp_path, capsys, overrides, field):
    path = _write_scenario(tmp_path, mode="passive", **overrides)
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count(f"configuration error: {field}: ") == 2


def _assert_config_error(tmp_path, capsys, path, message):
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error: ") == 2 and message in err


def test_negative_seed_in_the_file_is_config_error(tmp_path, capsys):
    path = _write_scenario(tmp_path, seed=-1)
    message = "configuration error: seed: -1 outside the valid range [0, inf]"
    _assert_config_error(tmp_path, capsys, path, message)


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_negative_seed_override_is_config_error(tmp_path, capsys, verb):
    """``--seed -1`` fails before anything runs, as the same seed in the file."""
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    out = tmp_path / "out"
    assert main([verb, str(empty), "--seed", "-1", "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: seed: -1 outside the valid range [0, inf]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("zz9,70,80,5.0,22.0\n", "households not on the feeder: ['zz9']"),
        ("h01,70,80,5.0,22.0\nh01,10,20,5.0,22.0\n", "more than one session for ['h01']"),
    ],
    ids=["unknown_household", "duplicated_household"],
)
def test_fleet_must_fit_the_feeder(tmp_path, capsys, rows, message):
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text("household,arrival_step,departure_step,requested_kwh,rated_kw\n" + rows)
    path = _write_scenario(
        tmp_path, mode="passive", fleet={"source": "import", "fleet_file": str(fleet_path)}
    )
    _assert_config_error(tmp_path, capsys, path, message)


def test_profiles_must_cover_the_feeder_households(tmp_path, capsys):
    from evhc.feeder import Household, bundled_feeder, save_feeder

    feeder = bundled_feeder()
    extra = Household("h99", feeder.households[0].node)
    save_feeder(replace(feeder, households=feeder.households + (extra,)), tmp_path / "feeder.yaml")
    path = _write_scenario(tmp_path, mode="passive", feeder="feeder.yaml")
    _assert_config_error(tmp_path, capsys, path, "missing feeder households: ['h99']")


def test_feeder_file_must_be_valid_yaml(tmp_path, capsys):
    (tmp_path / "feeder.yaml").write_text("nodes: [unclosed\n")
    path = _write_scenario(tmp_path, mode="passive", feeder="feeder.yaml")
    _assert_config_error(tmp_path, capsys, path, "not valid YAML")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_override_must_be_positive(tmp_path, capsys, workers):
    path = _write_scenario(tmp_path, mode="passive")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_network_aware_run_writes_expected_files(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()
    sub = out / "network_aware_low"
    for name in NETWORK_AWARE_FILES:
        assert (sub / name).exists(), name
    report = json.loads((sub / "report.json").read_text())
    assert report["mode"] == "network_aware"
    assert report["hc"] is not None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert len(manifest["config_sha256"]) == 64
    assert "timestamp" not in manifest


def _kernel_calls(monkeypatch, lanes: list | None = None) -> list:
    """Every ``_simulate_lanes`` call from here on, as (judged, network-aware
    lanes, passive lanes); ``lanes`` collects each call's lanes."""
    calls = []
    original = evhc.doe._simulate_lanes

    def counting(feeder, profiles, batch, *args, judge=None, **kwargs):
        aware = sum(lane.params is not None for lane in batch)
        calls.append((judge is not None, aware, len(batch) - aware))
        if lanes is not None:
            lanes.append(batch)
        return original(feeder, profiles, batch, *args, judge=judge, **kwargs)

    for module in (evhc.doe, evhc.hc, evhc.cli):
        if getattr(module, "_simulate_lanes", None) is original:
            monkeypatch.setattr(module, "_simulate_lanes", counting)
    return calls


def test_network_aware_run_simulates_each_grid_candidate_once(tmp_path, monkeypatch):
    """The network-aware grid is judged once, and the search is its
    first-failure reduction, so the 12-point grid costs 12 network-aware
    days, plus one to record the day at the capacity."""
    calls = _kernel_calls(monkeypatch)
    path = _write_scenario(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert sum(aware for _, aware, _ in calls) == 12 + 1


def test_compare_run_makes_two_kernel_passes(tmp_path, monkeypatch):
    """One judged call holds every label's network-aware grid and, keyed by
    label, its passive grid; one recorded call holds the network-aware and
    passive day at each capacity. A passive run makes the judged call alone."""
    lanes = []
    calls = _kernel_calls(monkeypatch, lanes)
    labels = ["low", "medium", "high"]
    path = _write_scenario(tmp_path, mode="compare", scenarios=labels)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    with_hc = sum(
        json.loads((out / f"network_aware_{label}" / "report.json").read_text())["hc"] is not None
        for label in labels
    )
    assert with_hc and calls == [(True, 3 * 12, 3 * 12), (False, with_hc, with_hc)]
    assert {lane.search for lane in lanes[0] if lane.params is not None} == {None}
    keys = [lane.search for lane in lanes[0] if lane.params is None]  # one key per label
    assert None not in keys and [keys.count(k) for k in dict.fromkeys(keys)] == [12] * len(labels)

    calls.clear()
    path = _write_scenario(tmp_path, mode="passive", scenarios=labels)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "passive")]) == 0
    assert calls == [(True, 0, 3 * 12)]


@pytest.mark.parametrize(
    "overrides",
    [{}, {"doe": {"delta_perm": 0.1}}, {"search": {**BASE["search"], "dimension": "ev_count"}}],
    ids=["default", "delta_perm_0.1", "ev_count"],
)
def test_compare_reports_equal_the_library_searches(tmp_path, overrides):
    """Each report the CLI reduces from a judged grid or from candidate
    rounds is the one the library search gives for the same fleet."""
    from evhc.feeder import bundled_baseline_profiles, bundled_feeder
    from evhc.hc import network_aware_hc, passive_hc

    path = _write_scenario(tmp_path, mode="compare", scenarios=["low", "high"], **overrides)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    config = evhc.cli.load_scenario(path)
    feeder, profiles = bundled_feeder(), bundled_baseline_profiles()
    for label in config.scenario_labels:
        search = evhc.cli._search_config(config, label)
        fleet = evhc.cli._fleet(config, feeder, search)
        for mode, library in (("passive", passive_hc), ("network_aware", network_aware_hc)):
            report = library(feeder, profiles, fleet, search)
            sub = out / f"{mode}_{label}"
            assert (sub / "report.json").read_text() == evhc.cli._report_json(report)
            assert (sub / "candidates.csv").read_text() == evhc.cli._candidates_csv(report)


def test_reversed_imported_fleet_gives_the_same_results(tmp_path):
    """QoS pairs each session's baseline with its own delivered energy, so the
    row order of an imported fleet file changes no result."""
    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet, serialize_fleet
    from evhc.feeder import bundled_feeder

    fleet = generate_fleet(DEFAULT_SCENARIOS["medium"], bundled_feeder().household_ids, seed=1)
    outs = []
    for name, sessions in (("ordered", fleet), ("reversed", fleet[::-1])):
        (tmp_path / f"{name}.csv").write_text(serialize_fleet(sessions))
        path = _write_scenario(
            tmp_path, mode="compare", scenarios=["medium"],
            fleet={"source": "import", "fleet_file": f"{name}.csv"},
        )
        outs.append(tmp_path / name)
        assert main(["run", str(path), "--output-dir", str(outs[-1])]) == 0
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert Path("table1.csv") in files and Path("network_aware_medium/report.json") in files
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "manifest.json":  # its config hash covers the fleet file name
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_ev_count_run_writes_expected_files(tmp_path):
    path = _write_scenario(
        tmp_path, scenarios=["high"], search={**BASE["search"], "dimension": "ev_count"}
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    sub = out / "network_aware_high"
    for name in NETWORK_AWARE_FILES:
        assert (sub / name).exists(), name
    report = json.loads((sub / "report.json").read_text())
    assert report["dimension"] == "ev_count"
    assert report["hc"] is not None and not report["unconstrained"]
    # the locational table still spans the whole power grid
    rows = (sub / "qos_by_power.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {str(k) for k in range(1, 13)}


def test_compare_mode_table_structure(tmp_path):
    path = _write_scenario(tmp_path, mode="compare", scenarios=["low", "high"])
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    lines = (out / "table1.csv").read_text().strip().split("\n")
    assert lines[0] == "scenario,mode,hc,limiting_factor,qos_at_hc,min_qos_at_hc"
    # two rows per scenario: passive and network-aware
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("low,passive,")
    assert lines[2].startswith("low,network_aware,")


def test_rerun_is_byte_identical(tmp_path):
    path = _write_scenario(tmp_path, mode="compare", scenarios=["low"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--output-dir", str(out1)]) == 0
    assert main(["run", str(path), "--output-dir", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2 and files1
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_sweep_doe_verb(tmp_path):
    path = _write_scenario(
        tmp_path,
        scenarios=["low"],
        sweep={
            "delta_perm_min": 0.04,
            "delta_perm_max": 0.06,
            "delta_perm_step": 0.01,
            "factor_values": [0.2, 0.5],
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--output-dir", str(out)]) == 0
    lines = (out / "sweep_doe.csv").read_text().strip().split("\n")
    assert lines[0].startswith("scenario,delta_perm,factor,nahc_kw")
    assert len(lines) == 1 + 3 * 2


# an energy scenario whose sessions cover the whole day: no idle step
ALL_DAY = {
    "energy_min_kwh": 4.0,
    "energy_max_kwh": 8.0,
    "arrival": {"mean_h": 18.0, "sd_h": 0.5, "lo_h": 17.0, "hi_h": 19.0},
    "duration": {"mean_h": 24.0, "sd_h": 0.1, "lo_h": 23.9, "hi_h": 24.0},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_error_stays_in_its_cells(tmp_path, workers):
    """A scenario whose sessions cover the whole day has no idle step to
    start from: its cells carry that error, and the low cells beside it
    keep the capacities they have alone."""
    sweep = {"delta_perm_min": 0.0, "delta_perm_max": 0.05, "delta_perm_step": 0.05,
             "factor_values": [0.2, 0.5]}
    mixed = _write_scenario(tmp_path, scenarios=["low", "all_day"], sweep=sweep,
                            scenario_definitions={"all_day": ALL_DAY})
    assert main(["sweep", str(mixed), "--workers", str(workers),
                 "--output-dir", str(tmp_path / "mixed")]) == 0
    alone = _write_scenario(tmp_path, scenarios=["low"], sweep=sweep)
    assert main(["sweep", str(alone), "--output-dir", str(tmp_path / "alone")]) == 0
    rows = (tmp_path / "mixed" / "sweep_doe.csv").read_text().splitlines()
    assert rows[:5] == (tmp_path / "alone" / "sweep_doe.csv").read_text().splitlines()
    assert all(row.split(",")[4] and not row.split(",")[7] for row in rows[1:5])
    error = (
        "ValueError: no session-free step in the day; the circular-day "
        "simulation needs at least one idle step"
    )
    assert [row.split(",", 3) for row in rows[5:]] == [
        ["all_day", d, f, f",,,,{error}"] for d in ("0", "0.05") for f in ("0.2", "0.5")
    ]


def _imported_fleet(tmp_path) -> dict:
    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet, serialize_fleet
    from evhc.feeder import bundled_feeder

    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], bundled_feeder().household_ids, seed=3)
    (tmp_path / "fleet.csv").write_text(serialize_fleet(fleet))
    return {"source": "import", "fleet_file": "fleet.csv"}


SWEEP_IMPORT_ERROR = "configuration error: fleet.source: "


@pytest.mark.parametrize("which", ["doe", "qos-threshold"])
def test_sweep_verb_rejects_an_imported_fleet(tmp_path, capsys, which):
    """Sweeps generate each scenario's fleet, so an imported one is refused
    rather than silently replaced."""
    path = _write_scenario(tmp_path, mode="passive", fleet=_imported_fleet(tmp_path))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--which", which, "--output-dir", str(out)]) == 1
    assert SWEEP_IMPORT_ERROR in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "file_mode, override", [("sweep_doe", []), ("passive", ["--mode", "sweep_qos_threshold"])]
)
def test_run_in_a_sweep_mode_rejects_an_imported_fleet(tmp_path, capsys, file_mode, override):
    path = _write_scenario(tmp_path, mode=file_mode, fleet=_imported_fleet(tmp_path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), *override]) == 1
    assert SWEEP_IMPORT_ERROR in capsys.readouterr().err
    assert not out.exists()
    # the check reads the mode after the override
    argv = ["run", str(path), "--output-dir", str(out), "--mode", "passive"]
    assert main(argv) == 0 and (out / "passive_low" / "report.json").exists()


def test_validate_rejects_an_imported_fleet_in_a_sweep_mode(tmp_path, capsys):
    path = _write_scenario(tmp_path, mode="sweep_qos_threshold", fleet=_imported_fleet(tmp_path))
    assert main(["validate", str(path)]) == 1
    assert SWEEP_IMPORT_ERROR in capsys.readouterr().err


def test_sweep_qos_threshold_verb(tmp_path):
    path = _write_scenario(
        tmp_path, scenarios=["low"], sweep={"qos_thresholds": [0.7, 0.8]}
    )
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--which", "qos-threshold", "--output-dir", str(out)]) == 0
    lines = (out / "threshold_sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def test_threshold_sweep_judges_every_scenario_in_one_call(tmp_path, monkeypatch):
    """One judged call holds every scenario's power grid, and its lanes stop
    past each scenario's first incident: fewer lane-solves than judging the
    same grids whole."""
    from evhc.feeder import bundled_baseline_profiles, bundled_feeder
    from evhc.hc import network_aware_grid

    calls, solves = _kernel_calls(monkeypatch), []
    original = evhc.doe._solve_lanes

    def counting(feeder, p_kw, *args, **kwargs):
        solves.append(len(p_kw))
        return original(feeder, p_kw, *args, **kwargs)

    monkeypatch.setattr(evhc.doe, "_solve_lanes", counting)
    labels = ["low", "medium", "high"]
    path = _write_scenario(tmp_path, scenarios=labels, sweep={"qos_thresholds": [0.6, 0.8]})
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--which", "qos-threshold", "--output-dir", str(out)]) == 0
    assert calls == [(True, len(labels) * 12, 0)]
    swept = sum(solves)
    solves.clear()
    config = evhc.cli.load_scenario(path)
    feeder, profiles = bundled_feeder(), bundled_baseline_profiles()
    for label in labels:
        search = evhc.cli._search_config(config, label)
        network_aware_grid(feeder, profiles, evhc.cli._fleet(config, feeder, search), search)
    assert 0 < swept < sum(solves)


def test_threshold_sweep_error_exits_2(tmp_path, capsys):
    """A scenario whose first candidate cannot start (no idle step) still
    ends the QoS-threshold sweep with that error."""
    path = _write_scenario(tmp_path, scenarios=["low", "all_day"], sweep={"qos_thresholds": [0.8]},
                           scenario_definitions={"all_day": ALL_DAY})
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--which", "qos-threshold", "--output-dir", str(out)]) == 2
    assert "simulation error: no session-free step" in capsys.readouterr().err


def test_emit_plots_from_results(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert main(["emit-plots", str(out)]) == 0
    plots = out / "plots"
    qos_table = plots / "fig_customer_qos_low.csv"
    assert qos_table.exists()
    lines = qos_table.read_text().strip().split("\n")
    assert lines[0] == "scenario,candidate_kw,household,node,qos"
    power_table = plots / "fig_profiles_power_low.csv"
    rows = power_table.read_text().strip().split("\n")
    assert rows[0] == "step,household,baseline_kw,network_aware_kw"
    assert len(rows) == 1 + 96 * 12
    voltage_table = plots / "fig_profiles_voltage_low.csv"
    vrows = voltage_table.read_text().strip().split("\n")
    assert len(vrows) == 1 + 96 * 12


def test_emit_plots_without_results_fails(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["emit-plots", str(empty)]) == 1


def test_emit_plots_sensitivity_schema(tmp_path):
    path = _write_scenario(
        tmp_path,
        scenarios=["low"],
        sweep={
            "delta_perm_min": 0.05,
            "delta_perm_max": 0.05,
            "delta_perm_step": 0.01,
            "factor_values": [0.5],
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--output-dir", str(out)]) == 0
    assert main(["emit-plots", str(out)]) == 0
    lines = (out / "plots" / "fig_sensitivity.csv").read_text().strip().split("\n")
    assert lines[0] == "scenario,delta_perm,factor,nahc_kw,qos_agg,limiting_factor"


def test_seed_override_changes_manifest(tmp_path):
    path = _write_scenario(tmp_path, mode="passive")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_timestamp_opt_in(tmp_path):
    path = _write_scenario(tmp_path, mode="passive", timestamp=True)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timestamp" in manifest


def test_simulation_failure_exits_2(tmp_path, capsys):
    # a fleet connected at every step defeats the circular-day simulation
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text(
        "household,arrival_step,departure_step,requested_kwh,rated_kw\n"
        "h01,0,96,10.0,22.0\n"
    )
    path = _write_scenario(
        tmp_path,
        mode="passive",
        fleet={"source": "import", "fleet_file": str(fleet_path)},
    )
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "simulation error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["compare", "network_aware"])
def test_grid_error_exits_2(tmp_path, capsys, mode):
    """Every network-aware grid lane of a fleet with no idle step ends as
    that error: the run still exits 2 with it."""
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text(
        "household,arrival_step,departure_step,requested_kwh,rated_kw\n"
        "h01,0,96,10.0,22.0\n"
    )
    path = _write_scenario(
        tmp_path, mode=mode, fleet={"source": "import", "fleet_file": str(fleet_path)}
    )
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "simulation error: no session-free step" in capsys.readouterr().err


def test_compare_error_keeps_the_earlier_labels_files(tmp_path, capsys):
    """The searches of a label without an idle step end as that error; the
    labels before it are written as in a run without it, then the run
    exits 2."""
    mixed = _write_scenario(tmp_path, mode="compare", scenarios=["low", "all_day"],
                            scenario_definitions={"all_day": ALL_DAY})
    assert main(["run", str(mixed), "--output-dir", str(tmp_path / "mixed")]) == 2
    assert "simulation error: no session-free step" in capsys.readouterr().err
    alone = _write_scenario(tmp_path, mode="compare", scenarios=["low"])
    assert main(["run", str(alone), "--output-dir", str(tmp_path / "alone")]) == 0
    for sub in ("passive_low", "network_aware_low"):
        files = sorted(p.name for p in (tmp_path / "alone" / sub).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "mixed" / sub).iterdir())
        for name in files:
            alone_bytes = (tmp_path / "alone" / sub / name).read_bytes()
            assert (tmp_path / "mixed" / sub / name).read_bytes() == alone_bytes, name
    assert not (tmp_path / "mixed" / "passive_all_day").exists()


def test_imported_fleet_run(tmp_path):
    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet, serialize_fleet
    from evhc.feeder import bundled_feeder

    feeder = bundled_feeder()
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=3)
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text(serialize_fleet(fleet))
    path = _write_scenario(
        tmp_path,
        mode="passive",
        fleet={"source": "import", "fleet_file": str(fleet_path)},
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert (out / "passive_low" / "report.json").exists()


# the manifest's config hash of the default settings: manifests stay
# comparable across versions only while no field is renamed or added and no
# value changes its type
DEFAULT_CONFIG_SHA256 = "b9a95848017325285641b56c1ab020050c632bb106675aed6b7aa34ddc24ae94"


def test_default_config_hash_is_pinned(tmp_path):
    empty, example = tmp_path / "empty.yaml", tmp_path / "example.yaml"
    empty.write_text("{}\n")
    assert main(["init-example", "--output", str(example)]) == 0
    for path in (empty, example):
        assert evhc.cli._config_hash(evhc.cli.load_scenario(path)) == DEFAULT_CONFIG_SHA256


def test_empty_file_is_every_default(tmp_path, capsys):
    empty, braces = tmp_path / "empty.yaml", tmp_path / "braces.yaml"
    empty.write_text("")
    braces.write_text("{}\n")
    assert main(["validate", str(empty)]) == 0
    assert "valid" in capsys.readouterr().out
    hashes = {evhc.cli._config_hash(evhc.cli.load_scenario(path)) for path in (empty, braces)}
    assert len(hashes) == 1


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"search": {"power_step_kw": 0.0001}}, "search.power_step_kw"),
        ({"sweep": {"delta_perm_step": 0.00001}}, "sweep.delta_perm_step"),
    ],
    ids=["power_step", "delta_perm_step"],
)
def test_grid_of_more_than_1000_points_is_config_error(tmp_path, capsys, overrides, field):
    path = _write_scenario(tmp_path, **overrides)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")


def test_grid_of_1000_points_is_accepted(tmp_path):
    path = _write_scenario(
        tmp_path, search={"power_min_kw": 0.01, "power_max_kw": 10.0, "power_step_kw": 0.01}
    )
    assert len(evhc.cli.load_scenario(path).power_grid_kw) == evhc.cli.MAX_GRID_POINTS


def test_example_parses_like_an_empty_file(tmp_path):
    """``init-example`` writes every setting at its default."""
    empty, example = tmp_path / "empty.yaml", tmp_path / "example.yaml"
    empty.write_text("{}\n")
    assert main(["init-example", "--output", str(example)]) == 0
    text = example.read_text()
    assert "fleet_file:" in text and "sweep" in text.split("source:")[1].splitlines()[0]
    assert evhc.cli.load_scenario(example) == evhc.cli.load_scenario(empty)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"doe": {"delta_prem": 0.08}}, "doe.delta_prem"),
        ({"serch": {"qos_threshold": 0.5}}, "serch"),
        ({"search": {**BASE["search"], "qos_treshold": 0.5}}, "search.qos_treshold"),
        ({"fleet": {"sorce": "generate"}}, "fleet.sorce"),
        ({"scenario_definitions": {"x": {**ALL_DAY, "peak_kw": 7}}}, "scenario_definitions.x.peak_kw"),
        ({"scenario_definitions": {"x": {**ALL_DAY, "arrival": {**ALL_DAY["arrival"], "mu": 1}}}},
         "scenario_definitions.x.arrival.mu"),
    ],
    ids=["doe", "top_level", "search", "fleet", "definition", "hour_distribution"],
)
def test_unknown_field_is_config_error(tmp_path, capsys, overrides, field):
    path = _write_scenario(tmp_path, mode="passive", **overrides)
    _assert_config_error(tmp_path, capsys, path, f"configuration error: {field}: unknown field")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"timestamp": "false"}, "timestamp"),
        ({"timestamp": 0}, "timestamp"),
        ({"seed": 1.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"workers": 2.9}, "workers"),
        ({"workers": True}, "workers"),
        ({"doe": {"factor": True}}, "doe.factor"),
        ({"search": {**BASE["search"], "power_max_kw": "12"}}, "search.power_max_kw"),
        ({"sweep": {"factor_values": [0.2, False]}}, "sweep.factor_values"),
        ({"scenarios": "low"}, "scenarios"),
        ({"scenarios": []}, "scenarios"),
        ({"output_dir": 5}, "output_dir"),
    ],
    ids=["timestamp_string", "timestamp_int", "seed_float", "seed_bool", "workers_float",
         "workers_bool", "factor_bool", "number_string", "list_bool", "labels_string",
         "labels_empty", "string_int"],
)
def test_mistyped_value_is_config_error(tmp_path, capsys, overrides, field):
    path = _write_scenario(tmp_path, mode="passive", **overrides)
    _assert_config_error(tmp_path, capsys, path, f"configuration error: {field}: expected ")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "overrides, field",
    [
        (lambda v: {"search": {**BASE["search"], "count_mode_power_kw": v}},
         "search.count_mode_power_kw"),
        (lambda v: {"search": {**BASE["search"], "power_max_kw": v}}, "search.power_max_kw"),
        (lambda v: {"fleet": {"rated_power_kw": v}}, "fleet.rated_power_kw"),
        (lambda v: {"sweep": {"factor_values": [0.2, v]}}, "sweep.factor_values"),
        (lambda v: {"seed": v}, "seed"),
    ],
    ids=["count_mode_power", "power_max", "rated_power", "factor_list", "seed"],
)
def test_non_finite_number_is_config_error(tmp_path, capsys, overrides, field, value):
    path = _write_scenario(tmp_path, **overrides(value))
    _assert_config_error(
        tmp_path, capsys, path, f"configuration error: {field}: expected a finite number, got "
    )
    assert not (tmp_path / "out").exists()


def test_integral_numbers_are_accepted_as_integers(tmp_path):
    path = _write_scenario(tmp_path, seed=3.0, workers=2.0, fleet={"rated_power_kw": 11})
    config = evhc.cli.load_scenario(path)
    assert (config.seed, config.workers, config.rated_power_kw) == (3, 2, 11.0)
    assert type(config.seed) is int and type(config.rated_power_kw) is float


def test_repeated_scenario_label_is_config_error(tmp_path, capsys):
    path = _write_scenario(tmp_path, mode="compare", scenarios=["low", "high", "low"])
    _assert_config_error(tmp_path, capsys, path, "configuration error: scenarios: repeated")
    assert not (tmp_path / "out").exists()


LOADERS = ("bundled_feeder", "load_feeder", "bundled_baseline_profiles",
           "load_baseline_profiles", "load_fleet")


@pytest.mark.parametrize("inputs", ["builtin", "files"])
def test_compare_run_loads_each_input_once(tmp_path, monkeypatch, inputs):
    """Parsing loads the feeder, the profiles and the imported fleet to check
    them, and the run uses what it loaded."""
    from importlib import resources

    from evhc.feeder import bundled_feeder, save_feeder

    fleet = _imported_fleet(tmp_path)
    files = {}
    if inputs == "files":
        save_feeder(bundled_feeder(), tmp_path / "feeder.yaml")
        csv = resources.files("evhc.data").joinpath("baseline_profiles.csv").read_text()
        (tmp_path / "profiles.csv").write_text(csv)
        files = {"feeder": "feeder.yaml", "baseline_profiles": "profiles.csv"}
    path = _write_scenario(tmp_path, mode="compare", scenarios=["low", "medium", "high"],
                           fleet=fleet, **files)
    calls = []
    for name in LOADERS:
        original = getattr(evhc.cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (evhc.cli, evhc.feeder, evhc.ev):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    if files:
        assert sorted(calls) == ["load_baseline_profiles", "load_feeder", "load_fleet"]
    else:
        assert sorted(calls) == ["bundled_baseline_profiles", "bundled_feeder", "load_fleet"]

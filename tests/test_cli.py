"""CLI verbs, exit codes, result files, and rerun determinism."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import evhc.cli
import evhc.doe
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


def test_network_aware_run_simulates_each_grid_candidate_once(tmp_path, monkeypatch):
    """The search's candidates are reused for qos_by_power.csv: the 12-point
    grid costs 12 network-aware days, plus one to re-run the day at the
    capacity."""
    calls = []
    original = evhc.doe._simulate_lanes

    def counting(feeder, profiles, lanes, *args, **kwargs):
        calls.extend(lane.hc_power for lane in lanes if lane.params is not None)
        return original(feeder, profiles, lanes, *args, **kwargs)

    for module in (evhc.doe, evhc.hc, evhc.cli):
        if getattr(module, "_simulate_lanes", None) is original:
            monkeypatch.setattr(module, "_simulate_lanes", counting)
    path = _write_scenario(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 12 + 1


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


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_error_stays_in_its_cells(tmp_path, workers):
    """A scenario whose sessions cover the whole day has no idle step to
    start from: its cells carry that error, and the low cells beside it
    keep the capacities they have alone."""
    sweep = {"delta_perm_min": 0.0, "delta_perm_max": 0.05, "delta_perm_step": 0.05,
             "factor_values": [0.2, 0.5]}
    all_day = {
        "energy_min_kwh": 4.0,
        "energy_max_kwh": 8.0,
        "arrival": {"mean_h": 18.0, "sd_h": 0.5, "lo_h": 17.0, "hi_h": 19.0},
        "duration": {"mean_h": 24.0, "sd_h": 0.1, "lo_h": 23.9, "hi_h": 24.0},
    }
    mixed = _write_scenario(tmp_path, scenarios=["low", "all_day"], sweep=sweep,
                            scenario_definitions={"all_day": all_day})
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


def test_sweep_qos_threshold_verb(tmp_path):
    path = _write_scenario(
        tmp_path, scenarios=["low"], sweep={"qos_thresholds": [0.7, 0.8]}
    )
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--which", "qos-threshold", "--output-dir", str(out)]) == 0
    lines = (out / "threshold_sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3


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


def test_imported_fleet_run(tmp_path):
    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet, save_fleet
    from evhc.feeder import bundled_feeder

    feeder = bundled_feeder()
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=3)
    fleet_path = tmp_path / "fleet.csv"
    save_fleet(fleet, fleet_path)
    path = _write_scenario(
        tmp_path,
        mode="passive",
        fleet={"source": "import", "fleet_file": str(fleet_path)},
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert (out / "passive_low" / "report.json").exists()

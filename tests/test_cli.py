"""CLI verbs, exit codes, result files, and rerun determinism."""

import csv
import hashlib
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
        ("household,arrival_step,departure_step,requested_kwh,rated_kw\nh01,7.5,80,5.0,22.0\n",
         "line 2: arrival_step: invalid literal"),
    ],
    ids=["bad_header", "short_row", "not_a_number"],
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
        ({"limits": {"v_lower_pu": 0.0}}, "limits.v_lower_pu"),
        ({"limits": {"v_lower_pu": -3.0}}, "limits.v_lower_pu"),
    ],
    ids=["rated_power", "power_min", "seed", "delta_perm", "v_lower_zero", "v_lower_negative"],
)
def test_malformed_value_is_config_error(tmp_path, capsys, overrides, field):
    path = _write_scenario(tmp_path, mode="passive", **overrides)
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count(f"configuration error: {field}: ") == 2


def test_a_feeder_without_households_is_config_error(tmp_path, capsys):
    """A feeder with no households (and its empty profile table) is refused
    as the file is read, so every verb exits 1 naming ``feeder`` and none
    writes a result."""
    from evhc.feeder import Branch, Node, build_feeder, save_feeder

    empty = build_feeder(
        nodes=(Node("tx", is_slack=True), Node("a")),
        branches=(Branch("tx", "a", 0.1, 0.05, 100.0),),
        households=(),
        transformer_kva=100.0,
        base_voltage_v=230.0,
    )
    save_feeder(empty, tmp_path / "feeder.yaml")
    (tmp_path / "profiles.csv").write_text("\n" * 97)  # a header and 96 steps, no column
    path = _write_scenario(tmp_path, mode="compare", feeder="feeder.yaml",
                           baseline_profiles="profiles.csv")
    out = tmp_path / "out"
    verbs = (["validate"], ["run"], ["sweep"], ["sweep", "--which", "qos-threshold"])
    for verb in verbs:
        options = ["--output-dir", str(out)] if verb != ["validate"] else []
        assert main([*verb, str(path), *options]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error: feeder: ") == len(verbs) == len(err.splitlines())
    assert not out.exists()


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


@pytest.mark.parametrize("dimension", ["power", "ev_count"])
def test_an_imported_fleet_without_sessions_is_config_error(tmp_path, capsys, dimension):
    """A fleet file of only its header has no candidate to search: a power
    search would end in an undefined QoS and an EV-count one in no HC."""
    fleet_path = tmp_path / "fleet.csv"
    fleet_path.write_text("household,arrival_step,departure_step,requested_kwh,rated_kw\n")
    path = _write_scenario(
        tmp_path, mode="compare", search={**BASE["search"], "dimension": dimension},
        fleet={"source": "import", "fleet_file": str(fleet_path)},
    )
    message = f"configuration error: fleet.fleet_file: {fleet_path}: fleet file has no sessions"
    _assert_config_error(tmp_path, capsys, path, message)
    assert not (tmp_path / "out").exists()


def test_an_imported_fleet_under_many_labels_is_config_error(tmp_path, capsys):
    """One imported fleet would be searched once per label, each writing the
    same results under its own label."""
    path = _write_scenario(tmp_path, mode="compare", scenarios=["low", "medium", "high"],
                           fleet=_imported_fleet(tmp_path))
    message = ("configuration error: scenarios: an imported fleet is one fleet and takes one "
               "label, got ['low', 'medium', 'high']")
    _assert_config_error(tmp_path, capsys, path, message)
    assert not (tmp_path / "out").exists()


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


def _edited_inputs(tmp_path, edit) -> Path:
    """A compare scenario over the bundled feeder and profiles and a
    generated fleet, written to files after ``edit`` changes their parsed
    rows: ``edit(feeder document, profile rows, fleet rows)``."""
    from importlib import resources

    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet, serialize_fleet
    from evhc.feeder import bundled_feeder, serialize_feeder

    feeder = bundled_feeder()
    doc = yaml.safe_load(serialize_feeder(feeder))
    profiles = resources.files("evhc.data").joinpath("baseline_profiles.csv").read_text()
    fleet = serialize_fleet(generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, 3))
    rows = [[line.split(",") for line in text.splitlines()] for text in (profiles, fleet)]
    edit(doc, *rows)
    (tmp_path / "feeder.yaml").write_text(yaml.safe_dump(doc))
    for name, table in zip(("profiles.csv", "fleet.csv"), rows):
        (tmp_path / name).write_text("".join(",".join(row) + "\n" for row in table))
    return _write_scenario(tmp_path, mode="compare", feeder="feeder.yaml",
                           baseline_profiles="profiles.csv",
                           fleet={"source": "import", "fleet_file": "fleet.csv"})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc, profiles, fleet: doc["branches"][0].update(r_ohm=math.nan),
         "branch tx-t1: r_ohm must be finite and >= 0, got nan"),
        (lambda doc, profiles, fleet: doc["branches"][2].update(x_ohm=-math.inf),
         "x_ohm must be finite and >= 0, got -inf"),
        (lambda doc, profiles, fleet: doc["branches"][1].update(ampacity_a=math.inf),
         "ampacity_a must be finite and > 0, got inf"),
        (lambda doc, profiles, fleet: doc.update(transformer_kva=math.inf),
         "transformer_kva must be finite and > 0, got inf"),
        (lambda doc, profiles, fleet: doc.update(base_voltage_v=math.nan),
         "base_voltage_v must be finite and > 0, got nan"),
        (lambda doc, profiles, fleet: profiles[40].__setitem__(3, "nan"),
         "household h04: baseline power must be >= 0 and finite, got nan"),
        (lambda doc, profiles, fleet: profiles[1].__setitem__(0, "inf"),
         "household h01: baseline power must be >= 0 and finite, got inf"),
        (lambda doc, profiles, fleet: fleet[2].__setitem__(3, "nan"),
         "h02: requested_kwh must be finite and > 0, got nan"),
        (lambda doc, profiles, fleet: fleet[1].__setitem__(4, "inf"),
         "h01: rated_kw must be finite and > 0, got inf"),
    ],
    ids=["r_ohm_nan", "x_ohm_-inf", "ampacity_inf", "transformer_inf", "base_voltage_nan",
         "profile_nan", "profile_inf", "requested_kwh_nan", "rated_kw_inf"],
)
def test_non_finite_number_in_an_input_file_is_config_error(tmp_path, capsys, edit, message):
    """Each input-file number must lie in a range, and NaN and ±inf lie in
    none; the message names the field."""
    path = _edited_inputs(tmp_path, edit)
    _assert_config_error(tmp_path, capsys, path, message)
    assert not (tmp_path / "out").exists()


def test_repeated_household_in_the_profile_table_is_config_error(tmp_path, capsys):
    """A profile table names each household once: a repeated column would
    replace the first one's profile."""
    path = _edited_inputs(tmp_path, lambda doc, profiles, fleet: [
        row.append("h01" if t == 0 else "9.0") for t, row in enumerate(profiles)
    ])
    _assert_config_error(tmp_path, capsys, path, "repeats households: ['h01']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_override_must_be_positive(tmp_path, capsys, workers):
    path = _write_scenario(tmp_path, mode="passive")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), "--workers", workers]) == 1
    assert f"configuration error: workers: must be > 0, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_a_flag_and_a_file_value_print_one_message(tmp_path, capsys, workers):
    """A flag is checked by its field's row: the message is the file's."""
    out = tmp_path / "out"
    argv = ["--output-dir", str(out)]
    assert main(["run", str(_write_scenario(tmp_path)), *argv, "--workers", str(workers)]) == 1
    flagged = capsys.readouterr().err
    assert main(["run", str(_write_scenario(tmp_path, workers=workers)), *argv]) == 1
    assert flagged == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "file_value, flag",
    [({"seed": -1}, ["--seed", "3"]), ({"mode": "bogus"}, ["--mode", "compare"]),
     ({"workers": 0}, ["--workers", "2"])],
    ids=["seed", "mode", "workers"],
)
def test_a_file_value_a_flag_overrides_is_still_checked(tmp_path, capsys, file_value, flag):
    path = _write_scenario(tmp_path, **file_value)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), *flag]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {next(iter(file_value))}: ")
    assert not out.exists()


def test_flags_give_the_config_of_a_file_holding_their_values(tmp_path):
    """``load_scenario``'s flags replace the file's values before any rule
    reads them, so the config, and its hash, is that of the edited file."""
    flagged = evhc.cli.load_scenario(_write_scenario(tmp_path), {"seed": 100, "workers": 2})
    edited = evhc.cli.load_scenario(_write_scenario(tmp_path, seed=100, workers=2))
    assert flagged == edited and (flagged.seed, flagged.workers) == (100, 2)
    assert evhc.cli._config_hash(flagged) == evhc.cli._config_hash(edited)
    with pytest.raises(evhc.cli.ConfigError, match=r"^seed: expected int, got 1.5$"):
        evhc.cli.load_scenario(_write_scenario(tmp_path), {"seed": 1.5})


@pytest.mark.parametrize(
    "verb, output",
    [("init-example", "nodir/x.yaml"), ("init-example", "taken/x.yaml"), ("run", "taken"),
     ("run", "taken/out"), ("sweep", "taken"), ("sweep", "taken/out")],
    ids=["init_missing_directory", "init_under_a_file", "run_a_file", "run_under_a_file",
         "sweep_a_file", "sweep_under_a_file"],
)
def test_an_output_path_that_cannot_be_written_is_config_error(
    tmp_path, capsys, monkeypatch, verb, output
):
    """An output path that cannot be written is named in a configuration
    error before any simulation starts."""
    (tmp_path / "taken").write_text("")
    target, calls = tmp_path / output, _kernel_calls(monkeypatch)
    if verb == "init-example":
        argv = [verb, "--output", str(target)]
    else:
        argv = [verb, str(_write_scenario(tmp_path)), "--output-dir", str(target)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: cannot write {target}: ")
    assert calls == []


@pytest.mark.parametrize(
    "argv, taken, written, strerror",
    [(["run"], "network_aware_low", "network_aware_low/report.json", "File exists"),
     (["sweep", "--which", "qos-threshold"], "threshold_sweep.csv/", "threshold_sweep.csv",
      "Is a directory")],
    ids=["run_a_result_directory_is_a_file", "sweep_a_result_file_is_a_directory"],
)
def test_a_result_path_that_cannot_be_written_is_config_error(
    tmp_path, capsys, argv, taken, written, strerror
):
    """A result path inside the output directory is known only once the
    results decide which files there are, so it is found after the
    simulation, and named in a configuration error all the same."""
    path = _write_scenario(tmp_path, sweep={"qos_thresholds": [0.8]})
    out = tmp_path / "out"
    out.mkdir()
    if taken.endswith("/"):  # a directory where a file goes
        (out / taken).mkdir()
    else:  # a file where a directory goes
        (out / taken).write_text("")
    assert main([*argv, str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {out / written}: {strerror}\n"
    )


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
    days; the day at the capacity is rebuilt from its grid lane."""
    calls = _kernel_calls(monkeypatch)
    path = _write_scenario(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert sum(aware for _, aware, _ in calls) == 12


@pytest.mark.parametrize("dimension", ["power", "ev_count"])
def test_compare_run_makes_one_kernel_pass(tmp_path, monkeypatch, dimension):
    """One judged call holds every label's network-aware grid, unkeyed, and,
    keyed by label, its passive grid; an EV-count network-aware search adds
    its power grid, which qos_by_power.csv reads whole. The network-aware
    and passive day at each capacity are rebuilt without another kernel
    call. A passive or a network-aware run makes the judged call alone. A
    network-aware horizon is one kernel call and then one solve of its
    rebuilt day; a passive horizon is that solve alone."""
    from evhc.doe import network_aware_horizon, passive_horizon
    from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
    from evhc.feeder import bundled_baseline_profiles, bundled_feeder

    lanes = []
    calls = _kernel_calls(monkeypatch, lanes)
    labels = ["low", "medium", "high"]
    search = {**BASE["search"], "dimension": dimension}
    aware = 3 * 12 * (1 if dimension == "power" else 2)  # 12 EVs, 12 power candidates
    path = _write_scenario(tmp_path, mode="compare", scenarios=labels, search=search)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert all(
        json.loads((out / f"network_aware_{label}" / "report.json").read_text())["hc"] is not None
        for label in labels
    )
    assert calls == [(True, aware, 3 * 12)]
    assert {lane.search for lane in lanes[0] if lane.params is not None} == {None}
    keys = [lane.search for lane in lanes[0] if lane.params is None]  # one key per label
    assert None not in keys and [keys.count(k) for k in dict.fromkeys(keys)] == [12] * len(labels)

    for mode, counts in (("passive", (True, 0, 3 * 12)), ("network_aware", (True, aware, 0))):
        calls.clear()
        path = _write_scenario(tmp_path, mode=mode, scenarios=labels, search=search)
        assert main(["run", str(path), "--output-dir", str(tmp_path / mode)]) == 0
        assert calls == [counts]

    events = []
    kernel, solve = evhc.doe._simulate_lanes, evhc.doe._solve_lanes

    def kernel_call(*args, **kwargs):
        days = kernel(*args, **kwargs)
        events.append("kernel")
        return days

    def solve_call(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(evhc.doe, "_simulate_lanes", kernel_call)
    monkeypatch.setattr(evhc.doe, "_solve_lanes", solve_call)
    feeder, profiles = bundled_feeder(), bundled_baseline_profiles()
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=1)
    network_aware_horizon(feeder, profiles, fleet, 7.0, evhc.doe.DoeParams())
    assert events.count("kernel") == 1 and events[events.index("kernel") + 1:] == ["solve"]
    events.clear()
    passive_horizon(feeder, profiles, fleet, 7.0)
    assert events == ["solve"]


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
        if rel.name != "manifest.json":  # its config hash covers the fleet file's bytes
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


def test_sweep_doe_searches_the_power_grid_at_either_dimension(tmp_path):
    """Like the QoS-threshold sweep, the DOE sweep searches the power grid,
    so the ``ev_count`` copy of the example file writes the power file's
    ``sweep_doe.csv`` (its ``nahc_kw`` holds no EV counts). The sweep grid
    is cut to one scenario and two cells, one of which no power passes."""
    power = tmp_path / "power.yaml"
    assert main(["init-example", "--output", str(power)]) == 0
    doc = yaml.safe_load(power.read_text())
    doc.update(scenarios=["low"], sweep={**doc["sweep"], "delta_perm_max": 0.0,
                                         "factor_values": [0.0, 0.5]})
    power.write_text(yaml.safe_dump(doc))
    doc["search"]["dimension"] = "ev_count"
    (tmp_path / "ev_count.yaml").write_text(yaml.safe_dump(doc))
    for name in ("power", "ev_count"):
        assert main(["sweep", str(tmp_path / f"{name}.yaml"), "--output-dir",
                     str(tmp_path / name)]) == 0
    table = (tmp_path / "power" / "sweep_doe.csv").read_text()
    assert table.splitlines()[1].startswith("low,0,0,,")
    assert (tmp_path / "ev_count" / "sweep_doe.csv").read_text() == table


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


@pytest.mark.parametrize(
    "file_mode, flags", [("sweep_doe", None), ("passive", {"mode": "sweep_qos_threshold"})]
)
def test_load_scenario_rejects_an_imported_fleet_in_a_sweep_mode(tmp_path, file_mode, flags):
    """A library caller that loads such a file cannot run it: the rule sits
    in ``load_scenario`` and reads the mode a flag gives."""
    path = _write_scenario(tmp_path, mode=file_mode, fleet=_imported_fleet(tmp_path))
    with pytest.raises(evhc.cli.ConfigError, match="^fleet.source: mode sweep_"):
        evhc.cli.load_scenario(path, flags)
    assert evhc.cli.load_scenario(path, {"mode": "compare"}).fleet is not None


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


# arrivals can never fall in their window, so fleet generation fails with a
# message that holds commas
LATE = {**ALL_DAY, "arrival": {"mean_h": 18.0, "sd_h": 0.01, "lo_h": 20.0, "hi_h": 21.0},
        "duration": {"mean_h": 4.0, "sd_h": 0.5, "lo_h": 2.0, "hi_h": 6.0}}


def test_sweep_error_with_commas_stays_one_cell(tmp_path):
    sweep = {"delta_perm_min": 0.05, "delta_perm_max": 0.05, "delta_perm_step": 0.01,
             "factor_values": [0.5]}
    path = _write_scenario(tmp_path, scenarios=["low", "late"], sweep=sweep,
                           scenario_definitions={"late": LATE})
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--output-dir", str(out)]) == 0
    with (out / "sweep_doe.csv").open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert rows[2][0] == "late" and rows[2][7] == (
        "FleetGenerationError: truncated normal(18.0, 0.01) on [20.0, 21.0] rejected 1000 draws"
    )
    assert rows[2][3:7] == ["", "", "", ""]  # an error cell has no capacity, limit or QoS


def test_the_summary_tables_agree(tmp_path):
    """At the init-example file's operating point, each scenario's
    network-aware row of table1.csv, its sweep_doe.csv cell and its
    threshold_sweep.csv point carry the same capacity, limit and QoS."""
    example, out = tmp_path / "example.yaml", tmp_path / "out"
    assert main(["init-example", "--output", str(example)]) == 0
    doc = yaml.safe_load(example.read_text())
    assert (doc["seed"], doc["doe"]["delta_perm"], doc["doe"]["factor"]) == (1, 0.05, 0.5)
    assert doc["search"]["qos_threshold"] == 0.8
    doc["sweep"].update(delta_perm_min=0.05, delta_perm_max=0.05, factor_values=[0.5],
                        qos_thresholds=[0.8])
    example.write_text(yaml.safe_dump(doc))
    for verb in (["run"], ["sweep"], ["sweep", "--which", "qos-threshold"]):
        assert main([*verb, str(example), "--output-dir", str(out)]) == 0

    def rows(name, *columns):
        with (out / name).open(encoding="utf-8", newline="") as f:
            return [tuple(row[c] for c in ("scenario", *columns)) for row in csv.DictReader(f)
                    if row.get("mode", "network_aware") == "network_aware"]

    expected = [
        ("low", "6", "aggregated_qos", "0.8015556558", "0.6080700826"),
        ("medium", "6", "aggregated_qos", "0.8293768502", "0.7197572573"),
        ("high", "4", "aggregated_qos", "0.8407615882", "0.6964391042"),
    ]
    assert rows("table1.csv", "hc", "limiting_factor", "qos_at_hc", "min_qos_at_hc") == expected
    assert rows("sweep_doe.csv", "nahc_kw", "limiting_factor", "qos_agg", "min_qos") == expected
    assert rows("threshold_sweep.csv", "nahc_kw", "limiting_factor", "qos_at_hc",
                "min_qos_at_hc") == expected


def test_candidates_csv_agrees_with_report_json(tmp_path):
    """Each search of the init-example compare run: every row of its
    candidates.csv but the last passed, the last fails on report.json's
    limiting factor (or passes too, when the search is unconstrained), and
    the capacity is the candidate of the last passed row."""
    example, out = tmp_path / "example.yaml", tmp_path / "out"
    assert main(["init-example", "--output", str(example)]) == 0
    assert main(["run", str(example), "--output-dir", str(out)]) == 0
    searches = sorted(out.glob("*/report.json"))
    assert len(searches) == 6  # passive and network-aware, three scenarios
    for path in searches:
        report = json.loads(path.read_text(encoding="utf-8"))
        with (path.parent / "candidates.csv").open(encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["candidate"]) for r in rows] == report["candidates_evaluated"]
        assert all(r["passed"] == "True" and r["failure"] == "" for r in rows[:-1])
        if report["unconstrained"]:
            assert report["limiting_factor"] is None and rows[-1]["passed"] == "True"
        else:
            assert (rows[-1]["passed"], rows[-1]["failure"]) == ("False", report["limiting_factor"])
        passed = [float(r["candidate"]) for r in rows if r["passed"] == "True"]
        assert report["hc"] == (passed[-1] if passed else None)


# SHA-256 of every file that `evhc run` writes for the init-example scenario
# (compare mode, bundled feeder and profiles). A refactor leaves them as they
# are; a change that moves a number on purpose updates them and says which
# number and why.
STUDY_SHA256 = {
    "manifest.json": "057f4cb62622e05104cb7210f7beeaa3256656155fa4732b509e5231641afbfd",
    "network_aware_high/candidates.csv": "9bd93461d1ea60ec4645168b8d0678e2c16b9c91f88ca07062cd2983662c9859",
    "network_aware_high/envelope_trace.csv": "e2317078b3d331750cae4481558e39d23d9c8339da3f92bfccbb5e5a49af572e",
    "network_aware_high/incidents_next.csv": "c3a2b4da244b87bd647cf78bd9421a265f1fad21725b2a6481af68640fa91774",
    "network_aware_high/profiles_power.csv": "13cc614edf5d1d7466ce7337ad04e5bd91681b6826d908d02a0fbe88b3094092",
    "network_aware_high/profiles_voltage.csv": "925abe37b46382e1b7d59ff6dbfde7cf44d0963bbb015fb8f4980ae8472c3b87",
    "network_aware_high/qos_at_hc.csv": "66db5a7bcd9820a6777297e1ee1afde23517c3713f57f0b3a6273c338687411e",
    "network_aware_high/qos_by_power.csv": "f83d30035746250f85dfe59e4ff0bbcaaa1d768ed1ff959a9d50654f495223a5",
    "network_aware_high/report.json": "ab67a9c090cfb6f0df73e0bd4b814066f6762af7445efcde1a083ee3781289de",
    "network_aware_low/candidates.csv": "3eaa36410c885812bf4cd228d9450d233184e7166522050387bff0814179b3a1",
    "network_aware_low/envelope_trace.csv": "cdc9c821c3b14fa648e271601271e497469ccfc85f20027713c801d8814b1106",
    "network_aware_low/incidents_next.csv": "c3a2b4da244b87bd647cf78bd9421a265f1fad21725b2a6481af68640fa91774",
    "network_aware_low/profiles_power.csv": "d225982ebf912912aec3f3dc43c88e405c9d417aa3879f5548b0970ac0453e87",
    "network_aware_low/profiles_voltage.csv": "5f1859582585cf0a4e44bb015d5962b936f8005d0203f1733fd0ceb3c3783e03",
    "network_aware_low/qos_at_hc.csv": "cb14db8a23e056956621fa4504c9ae1ee7f878103516dc2753075c7d94c45d44",
    "network_aware_low/qos_by_power.csv": "2470eb93b9b8728b88e47185dbf4c9b025b2add640753e979d22790684d29b4a",
    "network_aware_low/report.json": "fb12f094c324623388ec3542e93dd1912087cbb06fcd5c849ae4673f4e3766f9",
    "network_aware_medium/candidates.csv": "793ceebd3a4a544269b19a70bcb1ef438d20333807bbeca193ceca273df2994f",
    "network_aware_medium/envelope_trace.csv": "a9c6b154e8a86a1e574c7ebed194a7175cbad372b57ba328e924c9dd4e990279",
    "network_aware_medium/incidents_next.csv": "c3a2b4da244b87bd647cf78bd9421a265f1fad21725b2a6481af68640fa91774",
    "network_aware_medium/profiles_power.csv": "10d32c4562765cff5a1dae720f539fff8f275c44fa31be865ee73eb2fce7abe2",
    "network_aware_medium/profiles_voltage.csv": "ec02b26ddf7a51bd9c51aee0326bec8c38b35a6cdd6d653e90e0db8bfc05b624",
    "network_aware_medium/qos_at_hc.csv": "91c833439aab43ee0da341794c66932ae5948f867fb3ba2f14457e5e2319b584",
    "network_aware_medium/qos_by_power.csv": "87f35a27d12ff4ad80eb71849d61b1e7bb3876a84e732172ffadacbf7ad3e2f9",
    "network_aware_medium/report.json": "e4a0f2e6655b6e3c07158f568b54c097cdd69c390d562c89c93fe2d73c044f56",
    "passive_high/candidates.csv": "613c1a33f286d47e46483e340bb4e2ca0e8a483a86f5508a5fed7c882f112c7a",
    "passive_high/incidents_next.csv": "b0c78cc8035f6468763585b4ff8e5ce31aa66c3eff89406b6a997dfc229d1960",
    "passive_high/report.json": "278f864ac01a657213dcac61c3b31baeb06f8eadff9a47abf2b15ba9446f790d",
    "passive_low/candidates.csv": "27ee949a1f07df8771558bed759c745d72cdc9cdaddf92ced642a10b14a5db20",
    "passive_low/incidents_next.csv": "381164287861317cbc495d0954471d79139fbf57f113973648a07a4025d0f55d",
    "passive_low/report.json": "1d5fcc7babfec30cac37d1f72e142efc440bb89d15de4fae6ad8a39ef6a7ce25",
    "passive_medium/candidates.csv": "fab05c275c66b99bd4e0a015e88c72e1f56f0f2b542a9cf78492dfe0926f4e8d",
    "passive_medium/incidents_next.csv": "4c4580225007451a6ae7b42d93f22fa566b1f54b2cbc4b95ba12e01108a2c756",
    "passive_medium/report.json": "5df6c88c5c08f567dc9ecf3dd58025027481c5dbbdcb94e5f437de55a07c13c4",
    "table1.csv": "ba2d7ae2ebed26a9d9bdb93976391c0f314d752f447678217faaa86551c613b4",
}


# The same study with ``search.dimension: ev_count``: its network-aware HC
# days lie outside the power grid.
EV_COUNT_STUDY_SHA256 = {
    "manifest.json": "f57b80560485ec1a9996c07a679f1f3103d641678371bfe9d3e1c0a27b25084f",
    "network_aware_high/candidates.csv": "0adf2463c233c539357f7d2f1baff8aac9de3f28a1a5c601758a81ee23b900b8",
    "network_aware_high/envelope_trace.csv": "aed863b67b7c8f3c5dcd44af709ff012708b4a8332500863a47a9e08a6d7bd6c",
    "network_aware_high/incidents_next.csv": "b49558c1263772c7aab29dee29bab201f127a03ff1a77774c741cb6e3f89af30",
    "network_aware_high/profiles_power.csv": "7c2b5066dccbf9443c3a6413b572803e2e02801af0cf8b7389bcd803b5889fde",
    "network_aware_high/profiles_voltage.csv": "30a9fc65b5ee2c1928e4b8f773585d10f742b91e292cf58a0e20cd68ae917ec9",
    "network_aware_high/qos_at_hc.csv": "73f169b9088e04341368b028032e89ad461a1ec44357682e47177df63e5b31f0",
    "network_aware_high/qos_by_power.csv": "f83d30035746250f85dfe59e4ff0bbcaaa1d768ed1ff959a9d50654f495223a5",
    "network_aware_high/report.json": "4aefc1ec23b364cb7aa43fb048c4708360a2cc75465d0bba53ce2ac945cc0699",
    "network_aware_low/candidates.csv": "79ef2ef8f80acd1548a5c51504bf5107c7059dd04fb1627fa86ae0ae54ecf842",
    "network_aware_low/envelope_trace.csv": "5f0b73d1e849e9704517121a86e3f6751c956f32ea2243b09f7438d91fb5a9c0",
    "network_aware_low/incidents_next.csv": "ef490c643aa8244ba83ef903e8e18f8c90bf7182e91fb0d108cf64e5af4eed12",
    "network_aware_low/profiles_power.csv": "29979989b68377fa28ad05bb946e3de8213f4e2933c8652acfdf3ff7080fbaee",
    "network_aware_low/profiles_voltage.csv": "2f51ddfe465840d7e09082a9ac281e05209c4ae72ec77bde5dc8fe223c4902d5",
    "network_aware_low/qos_at_hc.csv": "b9d5ce90481ee7eefabe30f6d0b39d593f384457932235b8e14dce3f1ad3d890",
    "network_aware_low/qos_by_power.csv": "2470eb93b9b8728b88e47185dbf4c9b025b2add640753e979d22790684d29b4a",
    "network_aware_low/report.json": "e9b157d8a6b38e817be779b358c4ff1a81404f7904c67c1f5beb8c2998d0a565",
    "network_aware_medium/candidates.csv": "fde9d645d7ab94e8cdede67f7b20eb05a4a3e05044df7fd8f0d046506b5cba9c",
    "network_aware_medium/envelope_trace.csv": "523ee0b72d229c83485988d82993429b99b6fd4faa77d81da5886664045a28ed",
    "network_aware_medium/incidents_next.csv": "c3a2b4da244b87bd647cf78bd9421a265f1fad21725b2a6481af68640fa91774",
    "network_aware_medium/profiles_power.csv": "b22adf0b877e21d803f486ddf7942a209fd7ef6079808b0b32926b5c7e280723",
    "network_aware_medium/profiles_voltage.csv": "bae6a52a56f180cef926be80f0cc8b7ccae0c8807baa83095a37f94213da59ef",
    "network_aware_medium/qos_at_hc.csv": "c032cd8440633a0b487d3e4686383b0d47b47b3fceef4bb603057442a026a4b3",
    "network_aware_medium/qos_by_power.csv": "87f35a27d12ff4ad80eb71849d61b1e7bb3876a84e732172ffadacbf7ad3e2f9",
    "network_aware_medium/report.json": "8997ab014eb50b2698199c3bb381842441aeb7b103c94a724d5a6a096f7bab99",
    "passive_high/candidates.csv": "decceaf2d15daddde7015a372f93fb6fe5c8c67ae478142e406176ca19ac67be",
    "passive_high/incidents_next.csv": "20a495f53ce3ce45af67f5e82908c06c74eb5bedb045dcce27e73b1ed00f8a5a",
    "passive_high/report.json": "702da1599529e5dfbb0aeeab2ad123aa51502b161d3510c463d078b0373da6ff",
    "passive_low/candidates.csv": "f6c0a7fcfe54352e447ec6265b3dc5ac381f7a3e36e483acc4a8ecf60737f73a",
    "passive_low/incidents_next.csv": "193e7643361fa19fa9d70a8f15615788dd3c95de89c80d02696c81f8ca9a5283",
    "passive_low/report.json": "43f867f8d40fec7562243e67bcb78fe65ca338b323c74b414c673e9e6dd57cee",
    "passive_medium/candidates.csv": "8da1148f5b3a01b4d8102f62ebdfb0cbf8c796d017e8ddb2cb614e139ec635ba",
    "passive_medium/incidents_next.csv": "b3d0371901d9130888fde1cb321cab0373edb4f9934092f5577125d2ed33b597",
    "passive_medium/report.json": "d1753f36aa55d9ef77a71046120ffcd6404cc3f6d68ff2bbe4bcb3ddc3dd603b",
    "table1.csv": "9bf6586b7a9841c465559bdb3d23600601cc88e02935ec2b1ad2375136aebed7",
}


def _study_digests(tmp_path, dimension: str) -> dict:
    """The SHA-256 of each file of the ``init-example`` study at ``dimension``."""
    example, out = tmp_path / "example.yaml", tmp_path / "out"
    assert main(["init-example", "--output", str(example)]) == 0
    example.write_text(example.read_text().replace("dimension: power", f"dimension: {dimension}"))
    assert main(["run", str(example), "--output-dir", str(out)]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def test_bundled_study_files_are_pinned(tmp_path):
    assert _study_digests(tmp_path, "power") == STUDY_SHA256


def test_ev_count_study_files_are_pinned(tmp_path):
    assert _study_digests(tmp_path, "ev_count") == EV_COUNT_STUDY_SHA256


def test_seed_override_changes_manifest(tmp_path):
    path = _write_scenario(tmp_path, mode="passive")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_manifest_hashes_the_input_files_not_where_they_sit(tmp_path):
    """A scenario with its feeder and profile files, copied into two
    directories, writes the same manifest; editing the feeder file changes it."""
    from importlib import resources

    from evhc.feeder import bundled_feeder, serialize_feeder

    feeder = serialize_feeder(bundled_feeder())
    profiles = resources.files("evhc.data").joinpath("baseline_profiles.csv").read_text()
    edited = feeder.replace("transformer_kva: 100.0", "transformer_kva: 90.0")
    assert edited != feeder
    manifests = []
    for name, text in (("one", feeder), ("two", feeder), ("edited", edited)):
        where = tmp_path / name
        where.mkdir()
        (where / "feeder.yaml").write_text(text)
        (where / "profiles.csv").write_text(profiles)
        path = _write_scenario(where, mode="passive", feeder="feeder.yaml",
                               baseline_profiles="profiles.csv",
                               search={**BASE["search"], "power_max_kw": 2.0})
        assert main(["run", str(path), "--output-dir", str(where / "out")]) == 0
        manifests.append((where / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1] != manifests[2]


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
    "label", ["a,b", 'a"b', "a\nb", "a\rb", "a/b", "a\\b"],
    ids=["comma", "quote", "newline", "carriage_return", "slash", "backslash"],
)
def test_label_that_would_split_a_row_or_a_path_is_config_error(tmp_path, capsys, label):
    """A label names result-table rows and output directories, so one that
    holds a delimiter, a line break or a path separator is refused before
    any file is written."""
    path = _write_scenario(
        tmp_path, mode="sweep_qos_threshold", scenarios=[label],
        scenario_definitions={label: ALL_DAY},
    )
    message = f"configuration error: scenario_definitions.{label}: a label may not contain"
    _assert_config_error(tmp_path, capsys, path, message)
    assert not (tmp_path / "out").exists()


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
    path = _write_scenario(tmp_path, mode="compare", fleet=fleet, **files)
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

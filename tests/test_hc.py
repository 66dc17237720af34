"""Hosting-capacity searches: termination, equivalences, sweeps."""

import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evhc.hc
from evhc.cli import main
from evhc.doe import DoeParams, Lane, _replay, _Stopped
from evhc.ev import (
    DEFAULT_SCENARIOS,
    EnergyScenario,
    EvSession,
    FleetGenerationError,
    HourDistribution,
    generate_fleet,
)
from evhc.hc import (
    CandidateResult,
    HcReport,
    HcSearchConfig,
    LIMIT_AGGREGATED_QOS,
    SWEEP_EV_COUNT,
    SWEEP_POWER,
    export_sweep_csv,
    evaluate_network_aware_candidate,
    fleet_for_scenario,
    network_aware_grid,
    network_aware_hc,
    passive_hc,
    reduce_candidates,
    sensitivity_sweep,
    threshold_sweep,
)
from evhc.incidents import Incident

GREEN_EVERYWHERE = DoeParams(delta_perm=0.4, factor=0.5, u_min=0.55)


@pytest.fixture(scope="module")
def low_fleet(feeder):
    return generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, [1, 0])


def test_each_custom_label_draws_a_fleet_of_its_own(feeder):
    """A default label keeps its ``[seed, index]`` stream; any other label
    draws from a stream of its own, so two custom labels with equal
    definitions, or a custom copy of a default, draw different fleets."""
    config = HcSearchConfig(seed=3)
    low = DEFAULT_SCENARIOS["low"]

    def fleet(label, scenario=low):
        return fleet_for_scenario(feeder, replace(scenario, label=label), config)

    for index, (label, scenario) in enumerate(DEFAULT_SCENARIOS.items()):
        assert fleet(label, scenario) == generate_fleet(scenario, feeder.household_ids, [3, index])
    drawn = [fleet(label) for label in ("low", "a", "b", "ab", "a\x00", "\x00a", "low2")]
    assert len({tuple(fleet) for fleet in drawn}) == len(drawn)
    assert fleet("a") == fleet("a")
    high = DEFAULT_SCENARIOS["high"]
    assert fleet("high_copy", high) != fleet("high", high) != fleet("low")


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        HcSearchConfig(power_grid_kw=(2.0, 1.0))
    with pytest.raises(ValueError, match="qos_threshold"):
        HcSearchConfig(qos_threshold=0.0)
    with pytest.raises(ValueError, match="non-empty"):
        HcSearchConfig(power_grid_kw=())


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "field, config",
    [
        ("power grid entries", lambda v: {"power_grid_kw": (1.0, v)}),
        ("power grid entries", lambda v: {"power_grid_kw": (v, 2.0)}),
        ("count_mode_power_kw", lambda v: {"count_mode_power_kw": v}),
    ],
    ids=["grid_last", "grid_first", "count_mode_power"],
)
def test_candidate_powers_must_be_finite_and_positive(field, config, value):
    """A NaN candidate would be judged on a NaN power flow and an infinite
    one on an infinite draw, so neither reaches a search."""
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0, got {value}"):
        HcSearchConfig(**config(value))


def test_unconstrained_on_strong_feeder(strong_feeder, flat_profiles):
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], strong_feeder.household_ids, seed=1)
    config = HcSearchConfig()
    report = passive_hc(strong_feeder, flat_profiles, fleet, config)
    assert report.unconstrained
    assert report.hc == 20.0
    assert report.limiting_factor is None
    na = network_aware_hc(strong_feeder, flat_profiles, fleet, config)
    assert na.unconstrained and na.hc == 20.0


def test_passive_limited_by_undervoltage_on_bundled(feeder, profiles, low_fleet):
    report = passive_hc(feeder, profiles, low_fleet, HcSearchConfig())
    assert report.hc is not None
    assert report.limiting_factor == "undervoltage"
    # the failing candidate sits right after the last passing one
    assert report.candidates[-1].candidate == report.hc + 1.0
    assert report.candidates[-1].incidents


def test_search_equals_brute_force(feeder, profiles, low_fleet):
    config = HcSearchConfig()
    report = passive_hc(feeder, profiles, low_fleet, config)
    # independent per-candidate scan over the whole grid, each candidate a
    # search of its own on a one-point grid
    outcomes = {}
    for p in config.power_grid_kw:
        alone = passive_hc(feeder, profiles, low_fleet, replace(config, power_grid_kw=(p,)))
        outcomes[p] = alone.limiting_factor
    first_fail = next((p for p in config.power_grid_kw if outcomes[p]), None)
    expected_hc = (
        config.power_grid_kw[-1]
        if first_fail is None
        else (None if first_fail == config.power_grid_kw[0] else first_fail - 1.0)
    )
    assert report.hc == expected_hc
    if first_fail is not None:
        assert report.limiting_factor == outcomes[first_fail]


def test_network_aware_beats_passive_and_is_qos_limited(feeder, profiles, low_fleet):
    config = HcSearchConfig(doe=DoeParams(delta_perm=0.05, factor=0.5))
    passive = passive_hc(feeder, profiles, low_fleet, config)
    na = network_aware_hc(feeder, profiles, low_fleet, config)
    assert na.hc > passive.hc
    assert na.limiting_factor == LIMIT_AGGREGATED_QOS
    failing = na.candidates[-1]
    assert failing.qos.aggregated < config.qos_threshold
    assert failing.incidents == []
    assert na.qos_at_hc >= config.qos_threshold


def test_no_control_configs_reproduce_passive(feeder, profiles, low_fleet):
    for params in (DoeParams(delta_perm=0.05, factor=1.0), GREEN_EVERYWHERE):
        config = HcSearchConfig(doe=params)
        passive = passive_hc(feeder, profiles, low_fleet, config)
        na = network_aware_hc(feeder, profiles, low_fleet, config)
        assert na.hc == passive.hc
        assert na.limiting_factor == passive.limiting_factor
        assert na.qos_at_hc == 1.0


def test_determinism(feeder, profiles):
    config = HcSearchConfig(doe=DoeParams(0.05, 0.5))
    a = network_aware_hc(
        feeder, profiles, generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, 6), config
    )
    b = network_aware_hc(
        feeder, profiles, generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, 6), config
    )
    assert a.hc == b.hc
    assert a.limiting_factor == b.limiting_factor
    assert [c.candidate for c in a.candidates] == [c.candidate for c in b.candidates]
    for ca, cb in zip(a.candidates, b.candidates):
        if ca.qos is not None:
            assert ca.qos.aggregated == cb.qos.aggregated


def test_full_grid_plus_reduction_matches_search(feeder, profiles, low_fleet):
    config = HcSearchConfig(doe=DoeParams(0.05, 0.5))
    grid = network_aware_grid(feeder, profiles, low_fleet, config)
    reduced = reduce_candidates(grid, config.qos_threshold, "network_aware", "low")
    search = network_aware_hc(feeder, profiles, low_fleet, config)
    assert reduced.hc == search.hc
    assert reduced.limiting_factor == search.limiting_factor


@pytest.fixture(scope="module")
def low_grid(feeder, profiles, low_fleet):
    """The low fleet's whole network-aware power grid, judged in one call."""
    return network_aware_grid(feeder, profiles, low_fleet, HcSearchConfig())


@settings(max_examples=50, deadline=None)
@given(threshold=st.floats(0.0, 1.0, exclude_min=True))
@example(threshold=0.8)
@example(threshold=1.0)
def test_the_report_derives_from_its_candidates(low_grid, threshold):
    """A report's capacity, limit and ``unconstrained`` equal a scan of its
    grid written here from each candidate's incidents and aggregated QoS."""
    hc, limit = None, None
    for c in low_grid:
        if c.incidents:
            limit = c.incidents[0].kind
            break
        if c.qos is not None and c.qos.aggregated < threshold:
            limit = LIMIT_AGGREGATED_QOS
            break
        hc = c.candidate
    report = reduce_candidates(low_grid, threshold, "network_aware", "low")
    assert (report.hc, report.limiting_factor, report.unconstrained) == (hc, limit, limit is None)


def test_threshold_monotonicity(feeder, profiles):
    points = threshold_sweep(
        feeder,
        profiles,
        [DEFAULT_SCENARIOS["low"]],
        [0.6, 0.7, 0.8, 0.9],
        HcSearchConfig(),
    )
    hcs = [p.hc if p.hc is not None else 0.0 for p in points]
    assert all(a >= b for a, b in zip(hcs, hcs[1:]))
    for p in points:
        if p.qos_at_hc is not None:
            assert p.min_qos_at_hc <= p.qos_at_hc + 1e-12


@pytest.mark.parametrize("labels, thresholds, message", [
    (["low"], [1.5], "qos_threshold must lie in"), (["low"], [0.0], "qos_threshold must lie in"),
    (["low"], [0.8, -0.2], "qos_threshold must lie in"),
    (["low"], [math.nan], "qos_threshold must lie in"),
    (["low"], [], "sweep grids must be non-empty"), ([], [0.8], "sweep grids must be non-empty"),
], ids=["above_1", "zero", "negative", "nan", "no_thresholds", "no_scenarios"])
def test_threshold_sweep_checks_its_thresholds_as_the_search_does(feeder, profiles, labels,
                                                                  thresholds, message):
    """A threshold the search config would refuse is refused before any day
    is simulated, and an empty list is no sweep."""
    scenarios = [DEFAULT_SCENARIOS[label] for label in labels]
    with pytest.raises(ValueError, match=message):
        threshold_sweep(feeder, profiles, scenarios, thresholds, HcSearchConfig())


def _candidate_at_5_kw(feeder, profiles, fleet, config):
    return evaluate_network_aware_candidate(feeder, profiles, fleet, 5.0, config)


@pytest.mark.parametrize("dimension", [SWEEP_POWER, SWEEP_EV_COUNT])
@pytest.mark.parametrize(
    "search", [passive_hc, network_aware_hc, network_aware_grid, _candidate_at_5_kw]
)
def test_a_search_over_no_sessions_is_one_value_error(feeder, profiles, search, dimension):
    """Neither regime, at either dimension, reports a capacity for a fleet
    without sessions, nor evaluates one of its candidates."""
    with pytest.raises(ValueError, match="a search needs at least one EV session"):
        search(feeder, profiles, [], HcSearchConfig(sweep_dimension=dimension))


HEAVY = {"rated_power_kw": 60.0, "power_grid_kw": tuple(float(k) for k in range(5, 65, 5))}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"doe": DoeParams(delta_perm=0.1)},
        {"doe": DoeParams(factor=0.0)},
        {"doe": DoeParams(voltage_source="previous_step")},
        HEAVY,
    ],
    ids=["default", "delta_perm_0.1", "factor_0", "previous_step", "heavy"],
)
def test_threshold_sweep_equals_the_reduced_full_grid(feeder, profiles, overrides):
    """The sweep stops each scenario's candidates past its first incident,
    yet every point equals the reduction of the whole grid at its threshold."""
    config = HcSearchConfig(**overrides)
    scenarios = [DEFAULT_SCENARIOS[label] for label in ("low", "medium", "high")]
    thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def point(r):  # a QosReport holds arrays, so the reports are compared by field
        return r.scenario, r.qos_threshold, r.hc, r.limiting_factor, r.qos_at_hc, r.min_qos_at_hc

    expected, collapses = [], 0
    for scenario in scenarios:
        cfg = replace(config, scenario=scenario.label)
        grid = network_aware_grid(feeder, profiles, fleet_for_scenario(feeder, scenario, cfg), cfg)
        collapses += sum(c.error is not None for c in grid)
        expected += [point(reduce_candidates(grid, t, "network_aware", scenario.label))
                     for t in thresholds]
    swept = threshold_sweep(feeder, profiles, scenarios, thresholds, config)
    assert all(isinstance(r, HcReport) for r in swept)
    assert [point(r) for r in swept] == expected
    assert collapses or overrides is not HEAVY


def test_single_cell_sweep_equals_direct_search(feeder, profiles):
    config = HcSearchConfig(seed=1)
    cells = sensitivity_sweep(
        feeder, profiles, [DEFAULT_SCENARIOS["low"]], [0.05], [0.5], config
    )
    assert len(cells) == 1
    cell = cells[0]
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, [1, 0])
    direct = network_aware_hc(
        feeder, profiles, fleet, HcSearchConfig(seed=1, doe=DoeParams(0.05, 0.5), scenario="low")
    )
    assert cell.report.hc == direct.hc
    assert cell.limiting_factor == direct.limiting_factor
    assert cell.report.qos_at_hc == direct.qos_at_hc
    assert cell.error is None


# arrivals can never fall in their window: this scenario's fleet cannot be drawn
LATE = EnergyScenario("late", 4.0, 8.0, HourDistribution(18.0, 0.01, 20.0, 21.0),
                      HourDistribution(0.7, 0.15, 0.5, 1.0))


def test_each_sweep_draws_each_scenarios_fleet_once(feeder, profiles, monkeypatch):
    """However many envelopes or thresholds a scenario is searched at, each
    sweep draws its fleet once, a fleet that cannot be drawn included: the
    DOE sweep keeps that error in each of the scenario's cells, and the
    threshold sweep raises it before any kernel call."""
    drawn, original = [], evhc.hc.generate_fleet

    def drawing(scenario, *args, **kwargs):
        drawn.append(scenario.label)
        return original(scenario, *args, **kwargs)

    monkeypatch.setattr(evhc.hc, "generate_fleet", drawing)
    calls = _kernel_days(monkeypatch)
    low, high = DEFAULT_SCENARIOS["low"], DEFAULT_SCENARIOS["high"]
    config = HcSearchConfig(power_grid_kw=(2.0, 4.0))

    cells = sensitivity_sweep(feeder, profiles, [low, LATE, high], [0.03, 0.05], [0.2, 0.5],
                              config)
    assert drawn == ["low", "late", "high"] and len(calls) == 1
    assert [c.scenario for c in cells] == ["low"] * 4 + ["late"] * 4 + ["high"] * 4
    for cell in cells:
        failed = cell.scenario == "late"
        assert (cell.report is None, cell.error is not None) == (failed, failed)
        assert not failed or cell.error.startswith("FleetGenerationError: truncated normal")

    drawn.clear()
    calls.clear()
    reports = threshold_sweep(feeder, profiles, [low, high], [0.6, 0.7, 0.8], config)
    assert drawn == ["low", "high"] and len(calls) == 1 and len(reports) == 6
    drawn.clear()
    calls.clear()
    with pytest.raises(FleetGenerationError, match="truncated normal"):
        threshold_sweep(feeder, profiles, [low, LATE, high], [0.6, 0.7, 0.8], config)
    assert drawn == ["low", "late"] and not calls


def test_sweep_worker_count_does_not_change_results(tmp_path):
    """``workers`` is accepted and has no effect: a two-scenario sweep writes
    the same files at one and two workers (the manifest hashes the setting)."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump({
        "scenarios": ["low", "high"],
        "search": {"power_min_kw": 1.0, "power_max_kw": 12.0, "power_step_kw": 1.0},
        "sweep": {"delta_perm_min": 0.03, "delta_perm_max": 0.05, "delta_perm_step": 0.02,
                  "factor_values": [0.2, 0.5]},
    }))
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / f"out_{workers}"
        assert main(["sweep", str(scenario), "--workers", workers, "--output-dir", str(out)]) == 0
        trees.append({
            p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"
        })
    assert set(trees[0]) == {Path("sweep_doe.csv")}
    assert trees[0] == trees[1]


def test_sweep_csv_schema(feeder, profiles):
    cells = sensitivity_sweep(
        feeder, profiles, [DEFAULT_SCENARIOS["low"]], [0.05], [0.5], HcSearchConfig(seed=1)
    )
    lines = export_sweep_csv(cells).strip().split("\n")
    assert lines[0] == "scenario,delta_perm,factor,nahc_kw,limiting_factor,qos_agg,min_qos,error"
    assert lines[1].startswith("low,0.05,0.5,")


def test_tie_reports_incident_over_qos(feeder, profiles, low_fleet):
    """When an incident and a QoS breach land on the same candidate the
    incident wins, and the breach stays visible in the detail. At 8 kW the
    low fleet both breaches the aggregated QoS and sees undervoltage."""
    config = HcSearchConfig(doe=DoeParams(0.05, 0.5), power_grid_kw=(8.0,))
    report = network_aware_hc(feeder, profiles, low_fleet, config)
    [tie] = report.candidates
    assert tie.incidents and tie.qos.aggregated < config.qos_threshold  # the tie exists
    assert report.limiting_factor == tie.incidents[0].kind == "undervoltage"
    assert report.hc is None and not report.unconstrained


def test_ev_count_mode(feeder, profiles, low_fleet):
    config = HcSearchConfig(
        sweep_dimension=SWEEP_EV_COUNT, count_mode_power_kw=7.0, doe=DoeParams(0.05, 0.5)
    )
    report = passive_hc(feeder, profiles, low_fleet, config)
    assert report.dimension == SWEEP_EV_COUNT
    assert report.hc is None or 1.0 <= report.hc <= 12.0
    # candidates count EVs, not kW
    assert [c.candidate for c in report.candidates] == [
        float(k) for k in range(1, len(report.candidates) + 1)
    ]
    na = network_aware_hc(feeder, profiles, low_fleet, config)
    assert na.hc is None or 1.0 <= na.hc <= 12.0


@pytest.mark.parametrize("bad, message", [
    (EvSession("zz9", 70, 80, 5.0, 22.0), "households not on the feeder: ['zz9']"),
    (EvSession("h01", 10, 20, 5.0, 22.0), "more than one session for ['h01']"),
])
def test_a_fleet_that_does_not_fit_the_feeder_is_refused(feeder, profiles, low_fleet, bad,
                                                         message):
    """The kernel states the fleet file's session rule, in its words."""
    with pytest.raises(ValueError, match=re.escape(message)):
        passive_hc(feeder, profiles, [*low_fleet, bad], HcSearchConfig())


def test_below_range_reported_as_none(feeder, profiles, low_fleet):
    config = HcSearchConfig(power_grid_kw=(15.0, 16.0))
    report = passive_hc(feeder, profiles, low_fleet, config)
    assert report.hc is None
    assert report.limiting_factor == "undervoltage"


# --- the one reduction ---------------------------------------------------------


def _outcome(candidate, failing=False):
    incidents = [Incident("undervoltage", 0, "n1", 0.85)] if failing else []
    return CandidateResult(float(candidate), incidents, qos=None)


def _stream(*outcomes):
    """``outcomes`` as a lazy stream that must not be read past its end."""
    yield from outcomes
    raise AssertionError("the reduction read past the first failure")


def test_an_error_before_the_first_failure_is_the_reduction():
    error = ValueError("no session-free step")
    assert reduce_candidates(_stream(_outcome(1), error), 0.8, "passive") is error


def test_an_error_after_the_first_failure_is_never_read():
    outcomes = [_outcome(1), _outcome(2, failing=True), ValueError("past the failure")]
    for stream in (outcomes, _stream(*outcomes[:2])):
        report = reduce_candidates(stream, 0.8, "passive")
        assert isinstance(report, HcReport)
        assert (report.hc, report.limiting_factor) == (1.0, "undervoltage")
        assert [c.candidate for c in report.candidates] == [1.0, 2.0]


@pytest.mark.parametrize("search", ["passive", "network_aware", "ev_count"])
def test_at_hc_is_the_candidate_of_the_capacity(feeder, profiles, low_fleet, search):
    """The capacity's candidate is found by position, the last before the
    failure; its QoS is the report's QoS at the HC."""
    config = HcSearchConfig(doe=DoeParams(0.05, 0.5))
    if search == "passive":
        report = passive_hc(feeder, profiles, low_fleet, config)
    elif search == "network_aware":
        report = network_aware_hc(feeder, profiles, low_fleet, config)
    else:
        config = replace(config, sweep_dimension=SWEEP_EV_COUNT)
        report = network_aware_hc(feeder, profiles, _high_fleet(feeder), config)
    assert report.hc is not None and not report.unconstrained
    assert report.at_hc is report.candidates[-2]
    assert report.at_hc.candidate == report.hc
    qos = report.at_hc.qos
    assert (qos is None) == (search == "passive")
    assert report.qos_at_hc == (qos and qos.aggregated)
    assert report.min_qos_at_hc == (qos and qos.minimum)


def test_at_hc_is_none_without_a_capacity():
    for stream in ([_outcome(1, failing=True), _outcome(2)], []):
        report = reduce_candidates(stream, 0.8, "network_aware")
        assert report.hc is None and report.at_hc is None
        assert report.qos_at_hc is None and report.min_qos_at_hc is None


def test_at_hc_of_an_unconstrained_search_is_its_last_candidate(strong_feeder, flat_profiles):
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], strong_feeder.household_ids, seed=1)
    report = network_aware_hc(strong_feeder, flat_profiles, fleet, HcSearchConfig())
    assert report.unconstrained and report.at_hc is report.candidates[-1]
    assert report.at_hc.candidate == report.hc == 20.0
    assert report.qos_at_hc == report.at_hc.qos.aggregated


# --- candidate rounds ---------------------------------------------------------


def _high_fleet(feeder, rated_power_kw=7.4):
    return generate_fleet(
        DEFAULT_SCENARIOS["high"], feeder.household_ids, [1, 2], rated_power_kw=rated_power_kw
    )


def _all_day(fleet, k):
    """``fleet`` with its k-th session (from 1) stretched over the whole day:
    every sub-fleet that holds it has no idle step to start from."""
    s = fleet[k - 1]
    return [*fleet[:k - 1], replace(s, departure_step=s.arrival_step + 96), *fleet[k:]]


# (fleet, config, mode, candidates the search reads, what ends it)
ROUND_CASES = {
    "qos_limited": (
        lambda f: generate_fleet(DEFAULT_SCENARIOS["low"], f.household_ids, [1, 0]),
        HcSearchConfig(doe=DoeParams(0.05, 0.5)), "network_aware", 7, "aggregated_qos",
    ),
    "incident_limited": (
        lambda f: generate_fleet(DEFAULT_SCENARIOS["low"], f.household_ids, [1, 0]),
        HcSearchConfig(), "passive", 5, "undervoltage",
    ),
    "heavy_collapses_past_the_failure": (
        lambda f: _high_fleet(f, 60.0), HcSearchConfig(**HEAVY), "passive", 1, "undervoltage",
    ),
    "heavy_collapse_is_the_failure": (  # no undervoltage above 0.5 pu: 15 kW collapses first
        lambda f: _high_fleet(f, 60.0),
        HcSearchConfig(**{**HEAVY, "power_grid_kw": (5.0, 15.0, 25.0, 35.0), "v_lower_pu": 0.5}),
        "passive", 2, "diagnostic",
    ),
    "ev_count_error_before_the_failure": (
        lambda f: _all_day(_high_fleet(f), 3),
        HcSearchConfig(sweep_dimension=SWEEP_EV_COUNT), "passive", 3, "ValueError",
    ),
    "ev_count_error_after_the_failure": (
        lambda f: _all_day(_high_fleet(f), 8),
        HcSearchConfig(sweep_dimension=SWEEP_EV_COUNT), "passive", 7, "undervoltage",
    ),
}


def _assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, Exception):
        assert str(a) == str(b)
    elif is_dataclass(a):
        for f in fields(a):  # as dataclass equality: a candidate's day takes no part
            if f.compare:
                _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    else:
        assert a == b or a != a and b != b  # NaN equals NaN here


def _judged_alone(feeder, profiles, fleet, config, mode):
    """The search from every candidate judged alone, one kernel call each."""
    outcomes = [
        evhc.hc._evaluate_days(feeder, profiles, [([point], config, mode, False)])[0][0]
        for point in evhc.hc._points(fleet, config)
    ]
    return evhc.hc.reduce_candidates(
        outcomes, config.qos_threshold, mode, config.scenario, config.sweep_dimension
    )


def _kernel_days(monkeypatch) -> list:
    """The days of every kernel call the searches make from here on."""
    calls = []
    original = evhc.hc._simulate_lanes

    def recording(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(evhc.hc, "_simulate_lanes", recording)
    return calls


@pytest.mark.parametrize("case", ROUND_CASES.values(), ids=ROUND_CASES.keys())
def test_rounds_equal_the_candidates_judged_alone(feeder, profiles, monkeypatch, case):
    """A search that ends at candidate n takes ceil(n / ROUND_WIDTH) kernel
    calls, and its report is the reduction of every candidate judged alone:
    a collapse is a failure, an error before the first failure ends the
    search, and the candidates simulated past the failure are never read."""
    make_fleet, config, mode, n, end = case
    fleet = make_fleet(feeder)
    expected = _judged_alone(feeder, profiles, fleet, config, mode)
    calls = _kernel_days(monkeypatch)
    [report] = evhc.hc.reduce_searches(feeder, profiles, [(fleet, config, mode)])
    _assert_same(report, expected)
    assert len(calls) == math.ceil(n / evhc.hc.ROUND_WIDTH)
    if isinstance(report, Exception):
        assert type(report).__name__ == end and "no session-free step" in str(report)
    else:
        assert (len(report.candidates), report.limiting_factor) == (n, end)


def test_rounds_reduce_many_searches_together(feeder, profiles, monkeypatch):
    """Searches in one reduction share each round's kernel call, each under
    its own key: the candidate simulated beside a search's first incident
    stops there, and no other lane does.

    The QoS-limited search reads 7 candidates and the incident-limited one
    5, so at width w they run ceil(7 / w) and ceil(5 / w) rounds, each round
    the QoS-limited search's lanes first. The first incidents are at the
    8th and the 5th candidate, and the later candidates of each search's
    last round are the stopped lanes: at width 4, calls of 8 and 8 lanes
    and the second call's lanes 5 to 7."""
    cases = [ROUND_CASES[name] for name in ("qos_limited", "incident_limited")]
    searches = [(make_fleet(feeder), config, mode) for make_fleet, config, mode, *_ in cases]
    expected = [_judged_alone(feeder, profiles, *search) for search in searches]
    calls = _kernel_days(monkeypatch)
    for got, want in zip(evhc.hc.reduce_searches(feeder, profiles, searches), expected):
        _assert_same(got, want)
    w = evhc.hc.ROUND_WIDTH
    qos_rounds, incident_rounds = math.ceil(7 / w), math.ceil(5 / w)
    assert [len(days) for days in calls] == [
        w * ((r < qos_rounds) + (r < incident_rounds)) for r in range(qos_rounds)
    ]
    stopped = [(k, i) for k, days in enumerate(calls) for i, day in enumerate(days)
               if isinstance(day, _Stopped)]
    expected_stops = []
    for rounds, offset, first_incident in ((qos_rounds, 0, 8), (incident_rounds, w, 5)):
        last = rounds - 1  # candidate c of that round is lane offset + c - 1 - last * w
        expected_stops += [
            (last, offset + c - 1 - last * w) for c in range(first_incident + 1, rounds * w + 1)
        ]
    assert stopped == sorted(expected_stops)


def _grids(feeder) -> list:
    """Six grids of both modes and dimensions, stopping and whole; the first
    is one candidate that collapses."""
    fleet = fleet_for_scenario(feeder, DEFAULT_SCENARIOS["medium"], HcSearchConfig())
    burst = [EvSession(h, 40, 48, 30.0, 60.0) for h in feeder.household_ids]
    power = HcSearchConfig(power_grid_kw=(2.0, 7.0, 11.0, 22.0))
    count = replace(power, sweep_dimension=SWEEP_EV_COUNT)
    previous = replace(power, doe=DoeParams(factor=0.2, voltage_source="previous_step"))
    grids = [([(60.0, burst, 60.0)], power, "passive", False)]
    for config, mode, stop in ((power, "network_aware", False), (power, "passive", True),
                               (previous, "network_aware", False), (count, "network_aware", True),
                               (count, "passive", False)):
        grids.append((evhc.hc._points(fleet, config), config, mode, stop))
    return grids


def test_each_candidate_carries_the_day_it_was_judged_on(feeder, profiles):
    """A batch of stopping and whole grids through ``_evaluate_days``: every
    result that is not a collapse carries the day of the lane its point
    made, a stopping grid's lanes under a search key of their own. A whole
    network-aware day replays to exactly the energies its QoS was judged
    on; a stopping grid's lane keeps nothing to replay; a collapse has no
    day."""
    grids, kinds = _grids(feeder), []
    judged = evhc.hc._evaluate_days(feeder, profiles, grids)
    assert [len(results) for results in judged] == [len(points) for points, *_ in grids]
    jobs = [(point, config, mode, g if stop else None)
            for g, (points, config, mode, stop) in enumerate(grids) for point in points]
    for ((_, sessions, kw), config, mode, key), result in zip(jobs, sum(judged, [])):
        if isinstance(result, Exception):
            kinds.append(type(result).__name__)
            continue
        if result.day is None:  # a collapse
            kinds.append(result.failure_at(config.qos_threshold))
            continue
        aware = mode == "network_aware"
        assert result.day.lane == Lane(sessions, kw, config.doe if aware else None, key)
        if aware and key is None:
            _, trace = _replay(feeder, profiles, result.day.lane, result.day)
            delivered = dict(zip(trace.household_ids, trace.delivered_kwh.tolist()))
            qos = result.qos
            assert [delivered[h] for h in qos.households] == qos.e_network_aware_kwh.tolist()
            kinds.append("replayed")
        elif aware:
            assert result.day.clamp_voltage_pu is None  # a keyed lane keeps nothing to replay
            kinds.append("keyed")
        else:
            kinds.append("passive")
    assert kinds.count("diagnostic") == 1 and kinds.count("replayed") == 8
    assert {"keyed", "passive", "_Stopped"} <= set(kinds)


def test_an_empty_grid_gets_an_empty_list(feeder, profiles, monkeypatch):
    """A grid without points gets an empty list, and the grids beside it get
    the results they get without it; a batch of only empty grids makes no
    kernel call."""
    grids = _grids(feeder)
    empty = ([], grids[1][1], "passive", True)
    judged = evhc.hc._evaluate_days(feeder, profiles, grids)
    mixed = evhc.hc._evaluate_days(feeder, profiles, [empty, *grids[:3], empty, *grids[3:], empty])
    _assert_same(mixed, [[], *judged[:3], [], *judged[3:], []])
    calls = _kernel_days(monkeypatch)
    assert evhc.hc._evaluate_days(feeder, profiles, [empty, empty]) == [[], []]
    assert evhc.hc._evaluate_days(feeder, profiles, []) == []
    assert calls == []


def test_a_batch_that_mixes_voltage_limits_is_refused(feeder, profiles):
    """One kernel call judges a whole batch at one pair of voltage limits, so
    searches with different limits cannot share it: ``reduce_searches``
    refuses them, naming both pairs, instead of judging the second search at
    the first one's limits. Alone, each search keeps its own limits."""
    strict = HcSearchConfig(v_lower_pu=0.95)
    fleet = fleet_for_scenario(feeder, DEFAULT_SCENARIOS["medium"], strict)
    searches = [(fleet, HcSearchConfig(), "passive"), (fleet, strict, "passive")]
    with pytest.raises(ValueError, match=re.escape("[(0.9, 1.1), (0.95, 1.1)]")):
        evhc.hc.reduce_searches(feeder, profiles, searches)
    assert passive_hc(feeder, profiles, fleet, strict).hc == 1.0
    assert passive_hc(feeder, profiles, fleet, HcSearchConfig()).hc > 1.0

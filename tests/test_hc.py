"""Hosting-capacity searches: termination, equivalences, sweeps."""

import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import evhc.hc
from evhc.cli import main
from evhc.doe import DoeParams, _Stopped
from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.hc import (
    HcSearchConfig,
    LIMIT_AGGREGATED_QOS,
    SWEEP_EV_COUNT,
    ThresholdPoint,
    export_sweep_csv,
    fleet_for_scenario,
    network_aware_grid,
    network_aware_hc,
    passive_hc,
    reduce_candidates,
    sensitivity_sweep,
    threshold_sweep,
)

GREEN_EVERYWHERE = DoeParams(delta_perm=0.4, factor=0.5, u_min=0.55)


@pytest.fixture(scope="module")
def low_fleet(feeder):
    return generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, [1, 0])


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        HcSearchConfig(power_grid_kw=(2.0, 1.0))
    with pytest.raises(ValueError, match="qos_threshold"):
        HcSearchConfig(qos_threshold=0.0)
    with pytest.raises(ValueError, match="non-empty"):
        HcSearchConfig(power_grid_kw=())


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
        outcomes[p] = alone.candidates[0].failure
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
    expected, collapses = [], 0
    for scenario in scenarios:
        cfg = replace(config, scenario=scenario.label)
        grid = network_aware_grid(feeder, profiles, fleet_for_scenario(feeder, scenario, cfg), cfg)
        collapses += sum(c.error is not None for c in grid)
        for threshold in thresholds:
            r = reduce_candidates(grid, threshold, "network_aware", scenario.label)
            expected.append(ThresholdPoint(
                scenario.label, threshold, r.hc, r.limiting_factor, r.qos_at_hc, r.min_qos_at_hc
            ))
    assert threshold_sweep(feeder, profiles, scenarios, thresholds, config) == expected
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
    assert cell.hc == direct.hc
    assert cell.limiting_factor == direct.limiting_factor
    assert cell.qos_at_hc == direct.qos_at_hc
    assert cell.error is None


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
    incident wins, and the breach stays visible in the detail."""
    config = HcSearchConfig(doe=DoeParams(0.0, 0.0))
    report = network_aware_hc(feeder, profiles, low_fleet, config)
    breached = [c for c in report.candidates if c.qos_breach and c.incidents]
    for c in breached:
        assert c.failure == c.incidents[0].kind


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


def test_below_range_reported_as_none(feeder, profiles, low_fleet):
    config = HcSearchConfig(power_grid_kw=(15.0, 16.0))
    report = passive_hc(feeder, profiles, low_fleet, config)
    assert report.hc is None
    assert report.limiting_factor == "undervoltage"


def test_qos_breach_flag_consistency(feeder, profiles, low_fleet):
    config = HcSearchConfig(doe=DoeParams(0.05, 0.5))
    for c in network_aware_grid(feeder, profiles, low_fleet, config):
        if c.qos is not None:
            assert c.qos_breach == (c.qos.aggregated < config.qos_threshold)


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
        for f in fields(a):
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
        evhc.hc._evaluate(feeder, profiles, [(point, config, mode)])[0]
        for point in evhc.hc._points(fleet, config)
    ]
    return evhc.hc._reduce_search(outcomes, config, mode)


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

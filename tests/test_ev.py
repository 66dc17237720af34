"""Fleet generation and baseline charging trajectories."""

import numpy as np
import pytest

from evhc.ev import (
    DEFAULT_SCENARIOS,
    EvSession,
    baseline_trajectory,
    generate_fleet,
    load_fleet,
    quiet_step,
    serialize_fleet,
    validate_scenario_set,
)

HOUSEHOLDS = tuple(f"h{i:02d}" for i in range(1, 13))


def test_one_session_per_household_within_energy_range():
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], HOUSEHOLDS, seed=42)
    assert [s.household for s in fleet] == list(HOUSEHOLDS)
    for s in fleet:
        assert 4.0 <= s.requested_kwh <= 8.0


def test_same_seed_gives_identical_fleet():
    a = generate_fleet(DEFAULT_SCENARIOS["medium"], HOUSEHOLDS, seed=7)
    b = generate_fleet(DEFAULT_SCENARIOS["medium"], HOUSEHOLDS, seed=7)
    assert a == b
    c = generate_fleet(DEFAULT_SCENARIOS["medium"], HOUSEHOLDS, seed=8)
    assert a != c


def test_duration_ordering_monte_carlo():
    """High-energy sessions run longer than low-energy ones on average."""
    means = {}
    for label in ("low", "high"):
        total = 0.0
        count = 0
        for seed in range(100):
            for s in generate_fleet(DEFAULT_SCENARIOS[label], HOUSEHOLDS, seed=seed):
                total += s.duration_steps
                count += 1
        means[label] = total / count
    assert means["high"] > means["low"]


def test_energy_strata_disjoint_over_many_seeds():
    low_max = 0.0
    high_min = float("inf")
    for seed in range(100):
        low_max = max(
            low_max,
            max(s.requested_kwh for s in generate_fleet(DEFAULT_SCENARIOS["low"], HOUSEHOLDS, seed=seed)),
        )
        high_min = min(
            high_min,
            min(s.requested_kwh for s in generate_fleet(DEFAULT_SCENARIOS["high"], HOUSEHOLDS, seed=seed)),
        )
    assert low_max < high_min


def test_scenario_set_overlap_rejected():
    from evhc.ev import EnergyScenario, HourDistribution

    dist = HourDistribution(18.0, 1.0, 15.0, 21.0)
    bad = dict(DEFAULT_SCENARIOS)
    bad["medium"] = EnergyScenario("medium", 6.0, 16.0, dist, dist)
    with pytest.raises(ValueError, match="overlap"):
        validate_scenario_set(bad)


def test_session_invariants_enforced():
    with pytest.raises(ValueError, match="departure"):
        EvSession("h", 10, 10, 5.0, 11.0)
    with pytest.raises(ValueError, match="departure"):
        EvSession("h", 10, 10 + 97, 5.0, 11.0)
    with pytest.raises(ValueError, match="> 0"):
        EvSession("h", 10, 20, 0.0, 11.0)
    with pytest.raises(ValueError, match="does not fit"):
        EvSession("h", 10, 12, 20.0, 11.0)  # 20 kWh in 0.5 h at 11 kW


def test_wrap_semantics():
    s = EvSession("h", arrival_step=90, departure_step=110, requested_kwh=5.0, rated_kw=11.0)
    assert s.duration_steps == 20
    assert s.is_connected(90) and s.is_connected(95)
    assert s.is_connected(0) and s.is_connected(13)
    assert not s.is_connected(14)
    assert not s.is_connected(89)
    assert s.window_steps() == list(range(90, 96)) + list(range(0, 14))


def test_baseline_trajectory_plain_arithmetic():
    # 10 kWh at 8 kW: 8 kW for 5 quarter-hour steps (10 = 8 * 1.25 h)
    s = EvSession("h", 24, 24 + 40, 10.0, 22.0)
    traj = baseline_trajectory(s, hc_power=8.0)
    assert list(traj.power_kw[24:29]) == [8.0] * 5
    assert np.all(traj.power_kw[29:64] == 0.0)
    assert traj.delivered_kwh == 10.0


def test_baseline_trajectory_window_limited():
    # 10 kWh wanted, 4 kW cap, 2 h window: only 8 kWh fit
    s = EvSession("h", 24, 24 + 8, 10.0, 22.0)
    traj = baseline_trajectory(s, hc_power=4.0)
    assert np.all(traj.power_kw[24:32] == 4.0)
    assert traj.delivered_kwh == pytest.approx(8.0)


def test_baseline_trajectory_final_step_tapers():
    # 1 kWh at 8 kW: one step at 4 kW (1 kWh in 0.25 h)
    s = EvSession("h", 24, 24 + 8, 1.0, 22.0)
    traj = baseline_trajectory(s, hc_power=8.0)
    assert traj.power_kw[24] == 4.0
    assert np.all(traj.power_kw[25:] == 0.0)
    assert traj.delivered_kwh == 1.0


def test_baseline_respects_rated_power():
    s = EvSession("h", 24, 24 + 8, 10.0, rated_kw=6.0)
    traj = baseline_trajectory(s, hc_power=22.0)
    assert traj.power_kw.max() == 6.0


def test_energy_accounting_exact_and_front_loaded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        fleet = generate_fleet(
            DEFAULT_SCENARIOS["medium"], HOUSEHOLDS[:4], seed=int(rng.integers(1 << 30))
        )
        hc = float(rng.uniform(1.0, 15.0))
        for s in fleet:
            traj = baseline_trajectory(s, hc)
            # exact left-fold in session order, zero drift
            total = 0.0
            for t in s.window_steps():
                total += traj.power_kw[t] * 0.25
            assert traj.delivered_kwh == total
            assert traj.delivered_kwh <= s.requested_kwh * (1 + 1e-12)
            window = [traj.power_kw[t] for t in s.window_steps()]
            assert all(a >= b for a, b in zip(window, window[1:]))
            cap = min(hc, s.rated_kw)
            assert traj.delivered_kwh == pytest.approx(
                min(s.requested_kwh, cap * s.duration_steps * 0.25)
            )


def test_quiet_step_exists_for_generated_fleets():
    for label in DEFAULT_SCENARIOS:
        fleet = generate_fleet(DEFAULT_SCENARIOS[label], HOUSEHOLDS, seed=3)
        t = quiet_step(fleet)
        assert not any(s.is_connected(t) for s in fleet)


def test_quiet_step_missing_raises():
    always_on = [
        EvSession("h1", 0, 96, 10.0, 22.0),
    ]
    with pytest.raises(ValueError, match="no session-free step"):
        quiet_step(always_on)


def test_fleet_round_trip(tmp_path):
    fleet = generate_fleet(DEFAULT_SCENARIOS["high"], HOUSEHOLDS, seed=5)
    path = tmp_path / "fleet.csv"
    path.write_text(serialize_fleet(fleet), encoding="utf-8")
    assert load_fleet(path) == fleet


def test_fleet_file_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_fleet(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("h02,7.5,80,5.0,22.0",
         "arrival_step: invalid literal for int() with base 10: '7.5'"),
        ("h02,70,80,abc,22.0", "requested_kwh: could not convert string to float: 'abc'"),
        ("h02,70,71,50.0,22.0", "h02: 50.0 kWh does not fit the 0.25 h window at 22.0 kW"),
    ],
    ids=["fractional_step", "energy_not_a_number", "infeasible_session"],
)
def test_a_refused_session_row_is_named_by_its_line(tmp_path, row, message):
    """The header is line 1, so the second session is line 3."""
    path = tmp_path / "fleet.csv"
    header = "household,arrival_step,departure_step,requested_kwh,rated_kw"
    path.write_text(f"{header}\nh01,70,80,5.0,22.0\n{row}\n")
    with pytest.raises(ValueError) as refused:
        load_fleet(path)
    assert str(refused.value) == f"fleet file line 3: {message}"


def test_serialize_fleet_deterministic():
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], HOUSEHOLDS, seed=5)
    assert serialize_fleet(fleet) == serialize_fleet(fleet)

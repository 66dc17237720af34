"""Power-flow solver against analytic and conservation oracles.

The two-bus oracle solves the voltage-drop biquadratic in closed form:
with sending voltage v0, per-phase load P + jQ consumed behind R + jX,

    v^4 + (2(RP + XQ) - v0^2) v^2 + (R^2 + X^2)(P^2 + Q^2) = 0

whose larger root is the stable operating voltage.
"""

import math

import numpy as np
import pytest

from evhc.feeder import path_to_slack
from evhc.powerflow import (
    InjectionSet,
    VoltageCollapseError,
    injections_from_loads,
    solve,
)


def two_bus_voltage_oracle(v0, r, x, p_w, q_var):
    """Closed-form receiving-end voltage magnitude (volts, per phase)."""
    a = 2.0 * (r * p_w + x * q_var) - v0 * v0
    b = (r * r + x * x) * (p_w * p_w + q_var * q_var)
    v_sq = (-a + math.sqrt(a * a - 4.0 * b)) / 2.0
    return math.sqrt(v_sq)


def _zero_injection(feeder):
    n = len(feeder.household_ids)
    return InjectionSet(feeder.household_ids, np.zeros(n), np.zeros(n))


def test_no_load_gives_flat_voltage(feeder):
    sol = solve(feeder, _zero_injection(feeder))
    assert sol.converged
    assert np.allclose(sol.voltage_pu, 1.0)
    assert np.allclose(sol.branch_current_a, 0.0)
    assert sol.slack_p_kw == pytest.approx(0.0, abs=1e-12)
    assert sol.slack_kva == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "p_kw,q_kvar",
    [(15.0, 0.0), (15.0, 4.0), (30.0, 9.0), (5.0, -1.0)],
)
def test_two_bus_matches_closed_form(two_node_feeder, p_kw, q_kvar):
    inj = InjectionSet(("h1",), np.array([p_kw]), np.array([q_kvar]))
    sol = solve(two_node_feeder, inj)
    assert sol.converged
    # per-phase quantities of the balanced equivalent
    expected = two_bus_voltage_oracle(
        230.0, 0.3, 0.1, p_kw * 1000.0 / 3.0, q_kvar * 1000.0 / 3.0
    )
    assert sol.voltage_of("n1") == pytest.approx(expected / 230.0, abs=1e-8)


def test_two_bus_branch_current_and_power_balance(two_node_feeder):
    p_kw, q_kvar = 20.0, 5.0
    inj = InjectionSet(("h1",), np.array([p_kw]), np.array([q_kvar]))
    sol = solve(two_node_feeder, inj)
    v = two_bus_voltage_oracle(230.0, 0.3, 0.1, p_kw * 1000 / 3, q_kvar * 1000 / 3)
    i_expected = math.hypot(p_kw, q_kvar) * 1000 / 3 / v
    assert sol.branch_current_a[0] == pytest.approx(i_expected, rel=1e-8)
    loss_kw = 3.0 * i_expected**2 * 0.3 / 1000.0
    assert sol.slack_p_kw == pytest.approx(p_kw + loss_kw, rel=1e-6)


def _random_injections(feeder, rng, scale=6.0):
    n = len(feeder.household_ids)
    p = rng.uniform(0.0, scale, n)
    return injections_from_loads(feeder.household_ids, p, rng.uniform(0.0, scale / 2, n))


def test_power_balance_on_bundled_feeder(feeder):
    rng = np.random.default_rng(11)
    r_by_branch = np.array([b.r_ohm for b in feeder.branches])
    for _ in range(50):
        inj = _random_injections(feeder, rng)
        sol = solve(feeder, inj)
        assert sol.converged
        loss_kw = 3.0 * np.sum(sol.branch_current_a**2 * r_by_branch) / 1000.0
        total_load = float(np.sum(inj.p_kw))
        assert sol.slack_p_kw == pytest.approx(total_load + loss_kw, rel=1e-6)


def test_voltage_monotone_along_paths(feeder):
    rng = np.random.default_rng(3)
    for _ in range(20):
        sol = solve(feeder, _random_injections(feeder, rng))
        v = {n: sol.voltage_of(n) for n in feeder.node_ids}
        for node in feeder.node_ids:
            current = node
            for branch in path_to_slack(feeder, node):
                upstream = (
                    branch.to_node if current == branch.from_node else branch.from_node
                )
                assert v[current] <= v[upstream] + 1e-9
                current = upstream


def test_doubling_loads_never_raises_voltage(feeder):
    rng = np.random.default_rng(5)
    n = len(feeder.household_ids)
    p = rng.uniform(0.5, 5.0, n)
    sol1 = solve(feeder, injections_from_loads(feeder.household_ids, p, np.zeros(n)))
    sol2 = solve(feeder, injections_from_loads(feeder.household_ids, 2 * p, np.zeros(n)))
    assert np.all(sol2.voltage_pu <= sol1.voltage_pu + 1e-12)


def test_convergence_budget_over_the_solvable_load_range(feeder):
    """Uniform household loads up to 20 kW each: every load the feeder can
    physically carry converges within 50 sweeps at 1e-8 pu; loads beyond
    loadability are diagnosed as collapse, never ground out silently."""
    n = len(feeder.household_ids)
    solvable = 0
    for kw in range(1, 21):
        inj = injections_from_loads(feeder.household_ids, np.full(n, float(kw)), np.zeros(n))
        try:
            sol = solve(feeder, inj)
        except VoltageCollapseError:
            break
        assert sol.converged, f"unconverged at {kw} kW per household"
        assert sol.iterations <= 50
        assert sol.residual_pu <= 1e-8
        solvable = kw
    assert solvable >= 8  # well past the hosting-capacity band


def test_voltage_collapse_raises(two_node_feeder):
    inj = InjectionSet(("h1",), np.array([500.0]), np.array([0.0]))
    with pytest.raises(VoltageCollapseError):
        solve(two_node_feeder, inj)


def test_negative_active_injection_rejected(two_node_feeder):
    with pytest.raises(ValueError, match="loads only"):
        InjectionSet(("h1",), np.array([-1.0]), np.array([0.0]))


def test_horizon_all_zero(feeder):
    sols = [solve(feeder, _zero_injection(feeder)) for _ in range(96)]
    assert all(np.allclose(s.voltage_pu, 1.0) for s in sols)


def test_horizon_locality_of_single_nonzero_step(feeder):
    n = len(feeder.household_ids)
    steps = [_zero_injection(feeder) for _ in range(96)]
    steps[40] = injections_from_loads(
        feeder.household_ids, np.full(n, 4.0), np.zeros(n)
    )
    # consecutive solves share no state: only the loaded step moves
    for t, inj in enumerate(steps):
        sol = solve(feeder, inj)
        flat = np.allclose(sol.voltage_pu, 1.0)
        assert flat == (t != 40)


def test_horizon_step_index_in_collapse_error(two_node_feeder):
    steps = [InjectionSet(("h1",), np.array([0.0]), np.array([0.0])) for _ in range(5)]
    steps[3] = InjectionSet(("h1",), np.array([500.0]), np.array([0.0]))
    with pytest.raises(VoltageCollapseError) as info:
        for t, inj in enumerate(steps):
            solve(two_node_feeder, inj, _step=t)
    assert info.value.step == 3


def test_reactive_power_defaults_to_zero(two_node_feeder):
    inj = InjectionSet(("h1",), np.array([10.0]))
    assert np.all(inj.q_kvar == 0.0)
    sol = solve(two_node_feeder, inj)
    assert sol.converged


def test_household_voltage_index(feeder):
    idx = feeder.compiled.household_voltage
    for j, h in enumerate(feeder.household_ids):
        assert feeder.node_ids[idx[j]] == feeder.household_node(h)


def test_minimum_voltage_at_electrically_farthest_household(feeder):
    n = len(feeder.household_ids)
    inj = injections_from_loads(feeder.household_ids, np.full(n, 8.0), np.zeros(n))
    sol = solve(feeder, inj)
    house_v = sol.voltage_pu[feeder.compiled.household_voltage]
    farthest = max(
        range(n),
        key=lambda j: abs(sum(
            complex(b.r_ohm, b.x_ohm)
            for b in path_to_slack(feeder, feeder.household_node(feeder.household_ids[j]))
        )),
    )
    assert int(np.argmin(house_v)) == farthest
    assert sol.voltage_pu.min() == pytest.approx(house_v.min())

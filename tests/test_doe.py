"""Envelope contract and the network-aware charging simulation.

The envelope's piecewise-linear shape is checked against hand-computed
points and randomized property sweeps: floor at and below the red
threshold, full power at and above the green boundary, a continuous
monotone ramp in between.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import evhc.doe
from evhc.doe import (
    DoeParams,
    _apply_envelope,
    envelope_bound,
    network_aware_horizon,
    passive_horizon,
)
from evhc.ev import DEFAULT_SCENARIOS, baseline_trajectory, generate_fleet
from evhc.feeder import path_to_slack
from evhc.hc import HcSearchConfig, evaluate_network_aware_candidate
from evhc.powerflow import _flows
from evhc.trace import ZONE_GREEN, ZONE_LABELS, ZONE_NONE, ZONE_RED


def path_impedance(feeder, node_id):
    """Total series impedance (ohm) from the slack down to ``node_id``."""
    return sum((complex(b.r_ohm, b.x_ohm) for b in path_to_slack(feeder, node_id)), start=0j)


def reference_clamp(desired: float, bound) -> float:
    """The reference clamp: the admissible power closest to ``desired``,
    whose lower edge is min(floor, desired)."""
    return min(max(desired, min(bound.floor_kw, desired)), bound.cap_kw)


def test_floor_power_is_a_fraction_of_maximum():
    assert envelope_bound(1.0, 11.0, DoeParams(factor=0.5)).floor_kw == 5.5
    assert envelope_bound(1.0, 11.0, DoeParams(factor=0.0)).floor_kw == 0.0
    assert envelope_bound(1.0, 11.0, DoeParams(factor=1.0)).floor_kw == 11.0
    with pytest.raises(ValueError):
        envelope_bound(1.0, 0.0, DoeParams())


def test_envelope_red_boundary():
    bound = envelope_bound(0.9, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert bound.zone == "red"
    assert bound.cap_kw == bound.floor_kw == 5.5


def test_envelope_green_boundary():
    bound = envelope_bound(0.95, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert bound.zone == "green"
    assert bound.cap_kw == 11.0


def test_envelope_midpoint_interpolation():
    # halfway up the 0.90..0.95 ramp: 5.5 + 5.5 * 0.5 = 8.25 kW
    bound = envelope_bound(0.925, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert bound.zone == "yellow"
    assert bound.cap_kw == pytest.approx(8.25, rel=1e-12)


def test_envelope_degenerate_band_is_step_function():
    params = DoeParams(delta_perm=0.1, factor=0.4, u_min=0.9)
    assert params.degenerate
    at = envelope_bound(0.9, 10.0, params)
    below = envelope_bound(0.899, 10.0, params)
    assert at.degenerate and below.degenerate
    assert at.cap_kw == 10.0 and at.zone == "green"
    assert below.cap_kw == 4.0 and below.zone == "red"


def test_envelope_piecewise_properties_random():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        delta = float(rng.uniform(0.0, 0.09))
        u_min = float(rng.uniform(0.85, 0.9))
        factor = float(rng.uniform(0.0, 1.0))
        p_max = float(rng.uniform(1.0, 22.0))
        params = DoeParams(delta_perm=delta, factor=factor, u_min=u_min)
        if params.degenerate:
            continue
        green = params.green_threshold
        # boundary continuity
        assert envelope_bound(u_min, p_max, params).cap_kw == pytest.approx(
            factor * p_max, abs=1e-12
        )
        assert envelope_bound(green, p_max, params).cap_kw == pytest.approx(
            p_max, rel=1e-12
        )
        # monotone non-decreasing in voltage
        us = np.sort(rng.uniform(0.8, 1.05, 8))
        caps = [envelope_bound(float(u), p_max, params).cap_kw for u in us]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))
        # cap stays within [floor, p_max]
        assert all(factor * p_max - 1e-12 <= c <= p_max + 1e-12 for c in caps)


def test_envelope_cap_nondecreasing_in_factor():
    rng = np.random.default_rng(4)
    for _ in range(500):
        u = float(rng.uniform(0.9, 0.95))
        p_max = float(rng.uniform(1.0, 22.0))
        factors = np.sort(rng.uniform(0.0, 1.0, 5))
        caps = [
            envelope_bound(u, p_max, DoeParams(delta_perm=0.05, factor=float(f))).cap_kw
            for f in factors
        ]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))


def test_clamp_upper():
    bound = envelope_bound(0.925, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert reference_clamp(11.0, bound) == pytest.approx(8.25, rel=1e-12)


def test_clamp_unconstrained_in_green():
    bound = envelope_bound(0.99, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert reference_clamp(11.0, bound) == 11.0


def test_clamp_never_forces_extra_energy():
    # EV nearly full wants 2 kW; the 5.5 kW floor must not push it higher
    bound = envelope_bound(0.925, 11.0, DoeParams(delta_perm=0.05, factor=0.5))
    assert reference_clamp(2.0, bound) == 2.0


def test_clamp_optimality_by_grid_search():
    rng = np.random.default_rng(9)
    for _ in range(500):
        params = DoeParams(
            delta_perm=float(rng.uniform(0.0, 0.09)),
            factor=float(rng.uniform(0.0, 1.0)),
        )
        p_max = float(rng.uniform(1.0, 22.0))
        bound = envelope_bound(float(rng.uniform(0.85, 1.0)), p_max, params)
        desired = float(rng.uniform(0.0, p_max * 1.2))
        granted = reference_clamp(desired, bound)
        lo = min(bound.floor_kw, desired)
        assert lo - 1e-12 <= granted <= bound.cap_kw + 1e-12
        for x in np.linspace(lo, bound.cap_kw, 41):
            assert abs(desired - granted) <= abs(desired - x) + 1e-12


@st.composite
def _envelope_cases(draw):
    params = draw(
        st.builds(
            DoeParams,
            delta_perm=st.floats(0.0, 0.2),
            factor=st.floats(0.0, 1.0),
            u_min=st.floats(0.8, 0.99),
        )
    )
    n = draw(st.integers(1, 12))
    voltage = st.one_of(
        st.floats(0.5, 1.2), st.sampled_from([params.u_min, params.green_threshold])
    )

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    return (
        params,
        column(voltage),
        column(st.floats(0.1, 50.0)),
        column(st.floats(0.0, 60.0)),
        column(st.booleans()),
    )


@given(_envelope_cases())
def test_array_envelope_properties(case):
    """The day loop's array envelope: clamp bounds, exact zone boundaries,
    degenerate bands, and each EV equal to the one-EV public functions."""
    params, u, p_max, desired, connected = case
    ev_kw, (floor, cap, zone) = _apply_envelope(desired, connected, u, p_max, params)
    off = ~connected
    assert np.all(ev_kw[off] == 0.0) and np.all(zone[off] == ZONE_NONE)
    assert np.all(np.isnan(floor[off])) and np.all(np.isnan(cap[off]))
    u, p_max, desired = u[connected], p_max[connected], desired[connected]
    ev_kw, floor, cap, zone = ev_kw[connected], floor[connected], cap[connected], zone[connected]
    assert np.all(floor <= cap) and np.all(cap <= p_max)
    assert np.all(np.minimum(floor, desired) <= ev_kw) and np.all(ev_kw <= cap)
    if params.degenerate:
        green = u >= params.u_min
        assert np.all(zone[green] == ZONE_GREEN) and np.all(cap[green] == p_max[green])
        assert np.all(zone[~green] == ZONE_RED) and np.all(cap[~green] == floor[~green])
    else:
        at_min = u == params.u_min
        at_green = u == params.green_threshold
        assert np.all(zone[at_min] == ZONE_RED) and np.all(cap[at_min] == floor[at_min])
        assert np.all(zone[at_green] == ZONE_GREEN) and np.all(cap[at_green] == p_max[at_green])
    for i in range(len(u)):
        bound = envelope_bound(float(u[i]), float(p_max[i]), params)
        assert (floor[i], cap[i], ZONE_LABELS[int(zone[i])]) == (
            bound.floor_kw, bound.cap_kw, bound.zone
        )
        assert ev_kw[i] == reference_clamp(float(desired[i]), bound)


def test_params_validation():
    with pytest.raises(ValueError):
        DoeParams(factor=1.5)
    with pytest.raises(ValueError):
        DoeParams(delta_perm=-0.01)
    with pytest.raises(ValueError):
        DoeParams(u_min=1.0)
    with pytest.raises(ValueError):
        DoeParams(voltage_source="psychic")


# --- network-aware horizon -------------------------------------------------

GREEN_EVERYWHERE = DoeParams(delta_perm=0.4, factor=0.5, u_min=0.55)


def _fleet(feeder, label="low", seed=1):
    return generate_fleet(DEFAULT_SCENARIOS[label], feeder.household_ids, seed=seed)


@pytest.mark.parametrize("hc_power", [math.nan, math.inf, 0.0])
def test_a_charging_power_that_is_not_finite_and_positive_is_refused(feeder, profiles, hc_power):
    """No day starts at such a power: a NaN once ran on to an unrecorded
    grant or an undefined QoS, and an infinite one charged at rated power."""
    fleet = _fleet(feeder)
    for run in (
        lambda: passive_horizon(feeder, profiles, fleet, hc_power),
        lambda: network_aware_horizon(feeder, profiles, fleet, hc_power, DoeParams()),
        lambda: evaluate_network_aware_candidate(
            feeder, profiles, fleet, hc_power, HcSearchConfig()),
        lambda: baseline_trajectory(fleet[0], hc_power),
    ):
        with pytest.raises(ValueError, match=f"hc_power must be finite and > 0, got {hc_power}"):
            run()


def test_all_green_reproduces_baseline_bit_for_bit(feeder, profiles):
    fleet = _fleet(feeder)
    na_traj, na_trace = network_aware_horizon(feeder, profiles, fleet, 6.0, GREEN_EVERYWHERE)
    base_traj, base_trace = passive_horizon(feeder, profiles, fleet, 6.0)
    for a, b in zip(na_traj, base_traj):
        assert np.array_equal(a.power_kw, b.power_kw)
        assert a.delivered_kwh == b.delivered_kwh
    assert np.array_equal(na_trace.ev_power_kw, base_trace.ev_power_kw)
    assert np.array_equal(na_trace.voltage_pu, base_trace.voltage_pu)


def test_factor_one_reproduces_baseline_bit_for_bit(feeder, profiles):
    fleet = _fleet(feeder, "medium")
    params = DoeParams(delta_perm=0.05, factor=1.0)
    na_traj, na_trace = network_aware_horizon(feeder, profiles, fleet, 6.0, params)
    base_traj, _ = passive_horizon(feeder, profiles, fleet, 6.0)
    for a, b in zip(na_traj, base_traj):
        assert np.array_equal(a.power_kw, b.power_kw)


def test_network_aware_energy_never_exceeds_request_or_baseline(feeder, profiles):
    fleet = _fleet(feeder, "high")
    params = DoeParams(delta_perm=0.05, factor=0.5)
    na_traj, _ = network_aware_horizon(feeder, profiles, fleet, 5.0, params)
    base_traj, _ = passive_horizon(feeder, profiles, fleet, 5.0)
    for na, base, s in zip(na_traj, base_traj, fleet):
        assert na.delivered_kwh <= s.requested_kwh * (1 + 1e-12)
        assert na.delivered_kwh <= base.delivered_kwh * (1 + 1e-12)


def test_granted_power_respects_recorded_envelope(feeder, profiles):
    fleet = _fleet(feeder, "medium")
    params = DoeParams(delta_perm=0.05, factor=0.5)
    _, trace = network_aware_horizon(feeder, profiles, fleet, 6.0, params)
    have = ~np.isnan(trace.envelope_cap_kw)
    assert np.all(trace.ev_power_kw[have] <= trace.envelope_cap_kw[have] + 1e-9)
    assert np.all(trace.ev_power_kw[~have] == 0.0)


def test_fixed_point_self_consistency(feeder, profiles):
    fleet = _fleet(feeder, "low")
    params = DoeParams(delta_perm=0.05, factor=0.5)
    _, trace = network_aware_horizon(feeder, profiles, fleet, 6.0, params)
    vu = feeder.compiled.household_voltage
    for t in range(trace.step_count):
        if trace.fixed_point_fallback[t]:
            continue
        for e in range(len(trace.household_ids)):
            cap = trace.envelope_cap_kw[t, e]
            if np.isnan(cap):
                continue
            u = trace.voltage_pu[t, vu[e]]
            bound = envelope_bound(float(u), min(6.0, fleet[e].rated_kw), params)
            regranted = reference_clamp(float(trace.ev_desired_kw[t, e]), bound)
            assert regranted == pytest.approx(float(trace.ev_power_kw[t, e]), abs=0.011)


def test_previous_step_mode_runs_and_curtails(feeder, profiles):
    fleet = _fleet(feeder, "low")
    params = DoeParams(delta_perm=0.05, factor=0.5, voltage_source="previous_step")
    na_traj, trace = network_aware_horizon(feeder, profiles, fleet, 8.0, params)
    assert not trace.fixed_point_fallback.any()
    base_traj, _ = passive_horizon(feeder, profiles, fleet, 8.0)
    assert sum(t.delivered_kwh for t in na_traj) < sum(t.delivered_kwh for t in base_traj)


def test_curtailment_orders_by_electrical_distance(feeder, profiles):
    """With identical sessions everywhere, curtailed energy follows path
    impedance exactly: the farthest EV loses the most, the nearest nothing."""
    from evhc.ev import EvSession

    uniform = [
        EvSession(h, arrival_step=72, departure_step=80, requested_kwh=10.0, rated_kw=22.0)
        for h in feeder.household_ids
    ]
    params = DoeParams(delta_perm=0.05, factor=0.5)
    na_traj, _ = network_aware_horizon(feeder, profiles, uniform, 6.0, params)
    base_traj, _ = passive_horizon(feeder, profiles, uniform, 6.0)
    z = np.array(
        [abs(path_impedance(feeder, feeder.household_node(s.household))) for s in uniform]
    )
    curtailed = np.array(
        [b.delivered_kwh - n.delivered_kwh for n, b in zip(na_traj, base_traj)]
    )
    assert curtailed[int(np.argmax(z))] == curtailed.max() > 0
    assert curtailed[int(np.argmin(z))] == curtailed.min()
    # voltage ordering is a per-path property: within each lateral the
    # deeper household never loses less than the shallower one
    by_household = dict(zip(feeder.household_ids, curtailed))
    node_of = {h: feeder.household_node(h) for h in feeder.household_ids}
    laterals = {}
    for h, node in node_of.items():
        laterals.setdefault(node[0], []).append(h)
    for chain in laterals.values():
        chain.sort(key=lambda h: abs(path_impedance(feeder, node_of[h])))
        values = [by_household[h] for h in chain]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_seeded_fleet_curtailment_concentrates_at_the_far_end(feeder, profiles):
    """With a heterogeneous fleet, session shape mixes in, but location
    still dominates: the deepest third loses far more than the nearest
    third and the nearest household is untouched."""
    fleet = _fleet(feeder, "low")
    params = DoeParams(delta_perm=0.05, factor=0.5)
    na_traj, _ = network_aware_horizon(feeder, profiles, fleet, 6.0, params)
    base_traj, _ = passive_horizon(feeder, profiles, fleet, 6.0)
    z = np.array(
        [abs(path_impedance(feeder, feeder.household_node(s.household))) for s in fleet]
    )
    curtailed = np.array(
        [b.delivered_kwh - n.delivered_kwh for n, b in zip(na_traj, base_traj)]
    )
    assert curtailed[int(np.argmin(z))] == pytest.approx(0.0, abs=1e-9)
    deep = curtailed[z >= np.quantile(z, 0.67)].mean()
    near = curtailed[z <= np.quantile(z, 0.33)].mean()
    assert deep > 2.0 * near


@pytest.mark.parametrize(
    "label, power, params",
    [
        ("low", 8.0, DoeParams(delta_perm=0.05, factor=0.2, voltage_source="previous_step")),
        ("high", 10.0, DoeParams(delta_perm=0.1, factor=0.5, u_min=0.9)),
    ],
    ids=["previous_step", "degenerate_band"],
)
def test_recorded_envelope_is_the_scalar_envelope(
    feeder, profiles, monkeypatch, label, power, params
):
    """At every connected (step, EV) the recorded floor, cap and zone are
    ``envelope_bound`` at the voltage the envelope used, and the granted
    power is ``reference_clamp`` of the desired power, exactly."""
    calls = []
    original = evhc.doe._solve_lanes

    def recording(feeder, p_kw, q_kvar, steps):
        sol = original(feeder, p_kw, q_kvar, steps)
        calls.append(list(zip(steps, _flows(feeder, sol.v, sol.i).voltage_pu)))
        return sol

    monkeypatch.setattr(evhc.doe, "_solve_lanes", recording)
    fleet = _fleet(feeder, label)
    _, trace = network_aware_horizon(feeder, profiles, fleet, power, params)
    # the last call solves the rebuilt day's rows; the kernel's calls come before it
    *kernel, rebuilt = calls
    assert [t for t, _ in rebuilt] == list(range(trace.step_count))
    solved = [row for call in kernel for row in call]
    # a step's last clamp used the voltage of the solve just before its last
    # solve: the previous step's (previous_step) or the previous iterate's
    # (fixed point)
    used = {t: solved[k - 1][1] for k, (t, _) in enumerate(solved)}
    vu = feeder.compiled.household_voltage
    zones = set()
    for t in range(trace.step_count):
        for e, session in enumerate(fleet):
            if not session.is_connected(t):
                assert np.isnan(trace.envelope_cap_kw[t, e])
                assert trace.envelope_zone[t, e] == ZONE_NONE
                continue
            u = float(used[t][vu[e]])
            bound = envelope_bound(u, min(power, session.rated_kw), params)
            assert trace.envelope_floor_kw[t, e] == bound.floor_kw
            assert trace.envelope_cap_kw[t, e] == bound.cap_kw
            assert ZONE_LABELS[int(trace.envelope_zone[t, e])] == bound.zone
            desired = float(trace.ev_desired_kw[t, e])
            assert trace.ev_power_kw[t, e] == reference_clamp(desired, bound)
            zones.add(bound.zone)
    assert "red" in zones and "green" in zones

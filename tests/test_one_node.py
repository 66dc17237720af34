"""An exact oracle of the passive search on a one-node feeder.

Every household sits on node n1, behind one branch of impedance
Z = R + jX from the slack, so a step's state has a closed form. With the
per-phase load P + jQ of all households at n1 and the slack voltage V0,

    |V|^2 = (b + sqrt(b^2 - 4 |Z|^2 |S|^2)) / 2,   b = V0^2 - 2 (R P + X Q),

the larger root of the voltage-drop biquadratic. The branch carries the
whole load current |S| / |V| per phase, and the transformer supplies
3 V0 |S| / |V|. The oracle walks each candidate's day from the fleet's
quiet step with the kernel's desire rule (``doe._demand``), judges every
step against the limits, and reduces the candidates to their first
failure. It shares no code with the kernel, only its model constants.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.feeder import Branch, Household, Node, build_feeder, bundled_baseline_profiles
from evhc.hc import SWEEP_EV_COUNT, SWEEP_POWER, HcSearchConfig, passive_hc
from evhc.incidents import (
    KIND_BRANCH_THERMAL,
    KIND_OVERVOLTAGE,
    KIND_TRANSFORMER_OVERLOAD,
    KIND_UNDERVOLTAGE,
)
from evhc.powerflow import BASELINE_Q_PER_KW
from evhc.trace import STEP_HOURS, STEPS_PER_DAY

V0 = 230.0
PROFILES = bundled_baseline_profiles()
BASELINE = np.array([p.power_kw for p in PROFILES]).T  # (steps, households)


def _one_node_feeder(r_ohm, x_ohm, ampacity_a, transformer_kva):
    return build_feeder(
        nodes=(Node("tx", is_slack=True), Node("n1")),
        branches=(Branch("tx", "n1", r_ohm, x_ohm, ampacity_a),),
        households=tuple(Household(p.household, "n1") for p in PROFILES),
        transformer_kva=transformer_kva,
        base_voltage_v=V0,
    )


def _oracle_day(sessions, power_kw, r_ohm, x_ohm, ampacity_a, transformer_kva, config):
    """The first failure of one uncontrolled day, or None; its lowest voltage
    (pu) and largest transformer kVA; and how near its judged quantities
    came to their limits (relative)."""
    arrival = np.array([s.arrival_step for s in sessions])
    duration = np.array([s.duration_steps for s in sessions])
    requested = np.array([s.requested_kwh for s in sessions])
    p_max = np.minimum(power_kw, [s.rated_kw for s in sessions])
    quiet = next(t for t in range(STEPS_PER_DAY)
                 if not ((t - arrival) % STEPS_PER_DAY < duration).any())
    delivered, failures, margin, extremes = np.zeros(len(sessions)), {}, math.inf, []
    for k in range(STEPS_PER_DAY):
        t = (quiet + k) % STEPS_PER_DAY
        connected = (t - arrival) % STEPS_PER_DAY < duration
        ev_kw = np.where(connected, np.minimum(p_max, np.maximum(requested - delivered, 0.0)
                                               / STEP_HOURS), 0.0)
        delivered += ev_kw * STEP_HOURS
        p_w = (BASELINE[t].sum() + ev_kw.sum()) * 1000.0 / 3.0
        q_var = BASELINE[t].sum() * BASELINE_Q_PER_KW * 1000.0 / 3.0
        b = V0 ** 2 - 2.0 * (r_ohm * p_w + x_ohm * q_var)
        s_sq = (r_ohm ** 2 + x_ohm ** 2) * (p_w ** 2 + q_var ** 2)
        v = math.sqrt((b + math.sqrt(b * b - 4.0 * s_sq)) / 2.0)
        assert v > 0.6 * V0, "the draws must keep every judged step far from collapse"
        current = math.hypot(p_w, q_var) / v
        kva = 3.0 * V0 * current / 1000.0
        extremes.append((v / V0, kva))
        judged = ((KIND_UNDERVOLTAGE, config.v_lower_pu, v / V0, -1.0),
                  (KIND_OVERVOLTAGE, config.v_upper_pu, v / V0, 1.0),
                  (KIND_BRANCH_THERMAL, ampacity_a, current, 1.0),
                  (KIND_TRANSFORMER_OVERLOAD, transformer_kva, kva, 1.0))
        for kind, limit, value, sign in judged:  # in the kernel's order within a step
            margin = min(margin, abs(value / limit - 1.0))
            if sign * (value - limit) > 0:
                failures.setdefault(t, kind)
    low, high = min(u for u, _ in extremes), max(kva for _, kva in extremes)
    return failures[min(failures)] if failures else None, (low, high), margin


def _oracle_search(grid, *feeder_args, config):
    """The passive capacity and its limit by the first-failure rule, the
    extrema of each judged candidate's day, and the nearest approach to a
    limit over them."""
    hc, extrema, margin = None, [], math.inf
    for candidate, sessions, power in grid:
        failure, day, near = _oracle_day(sessions, power, *feeder_args, config)
        extrema.append(day)
        margin = min(margin, near)
        if failure is not None:
            return hc, failure, extrema, margin
        hc = candidate
    return hc, None, extrema, margin


@settings(max_examples=8, deadline=None)
@given(
    r_ohm=st.floats(0.01, 0.3),
    x_ohm=st.floats(0.0, 0.15),
    ampacity_a=st.floats(100.0, 500.0),
    transformer_kva=st.floats(50.0, 250.0),
    seed=st.integers(0, 10_000),
    label=st.sampled_from(sorted(DEFAULT_SCENARIOS)),
    dimension=st.sampled_from([SWEEP_POWER, SWEEP_EV_COUNT]),
)
def test_passive_search_equals_the_closed_form_on_one_node(
    r_ohm, x_ohm, ampacity_a, transformer_kva, seed, label, dimension
):
    """The passive search's capacity and limit are the oracle's, for any
    branch impedance, ratings, fleet draw and dimension, and so are the
    lowest voltage and largest transformer kVA of each day it judged."""
    feeder = _one_node_feeder(r_ohm, x_ohm, ampacity_a, transformer_kva)
    fleet = generate_fleet(DEFAULT_SCENARIOS[label], feeder.household_ids, seed)
    config = HcSearchConfig(sweep_dimension=dimension)
    if dimension == SWEEP_POWER:
        grid = [(p, fleet, p) for p in config.power_grid_kw]
    else:
        grid = [(float(k), fleet[:k], config.count_mode_power_kw) for k in range(1, len(fleet) + 1)]
    hc, limit, extrema, margin = _oracle_search(
        grid, r_ohm, x_ohm, ampacity_a, transformer_kva, config=config)
    assume(margin > 1e-6)  # a limit met within the solver's tolerance may fall either way
    report = passive_hc(feeder, PROFILES, fleet, config)
    assert (report.hc, report.limiting_factor) == (hc, limit)
    days = [(c.day.min_voltage_pu, c.day.max_slack_kva) for c in report.candidates]
    np.testing.assert_allclose(days, extrema, rtol=1e-7)

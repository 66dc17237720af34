"""Incident detection over traces: thresholds, ordering, purity."""

import numpy as np
import pytest

from evhc.doe import passive_horizon
from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.incidents import (
    IncidentLimits,
    KIND_BRANCH_THERMAL,
    KIND_DIAGNOSTIC,
    KIND_OVERVOLTAGE,
    KIND_TRANSFORMER_OVERLOAD,
    KIND_UNDERVOLTAGE,
    detect,
    export_incidents_csv,
)
from evhc.trace import STEPS_PER_DAY, ZONE_NONE, SimulationTrace


def _make_trace(n_nodes=3, n_branches=2, n_ev=1, steps=STEPS_PER_DAY):
    """Healthy all-1.0-pu trace scaffold tests can poke holes into."""
    return SimulationTrace(
        step_count=steps,
        step_hours=0.25,
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        branch_labels=tuple(f"n{i}->n{i+1}" for i in range(n_branches)),
        household_ids=tuple(f"h{i}" for i in range(n_ev)),
        voltage_pu=np.ones((steps, n_nodes)),
        branch_current_a=np.zeros((steps, n_branches)),
        slack_p_kw=np.zeros(steps),
        slack_q_kvar=np.zeros(steps),
        converged=np.ones(steps, dtype=bool),
        iterations=np.ones(steps, dtype=int),
        residual_pu=np.zeros(steps),
        ev_power_kw=np.zeros((steps, n_ev)),
        ev_desired_kw=np.zeros((steps, n_ev)),
        envelope_floor_kw=np.full((steps, n_ev), np.nan),
        envelope_cap_kw=np.full((steps, n_ev), np.nan),
        envelope_zone=np.full((steps, n_ev), ZONE_NONE, dtype=np.int8),
        delivered_kwh=np.zeros(n_ev),
        control_active=False,
        fixed_point_fallback=np.zeros(steps, dtype=bool),
    )


LIMITS = IncidentLimits(
    v_lower_pu=0.9, v_upper_pu=1.1, branch_ampacity_a=(100.0, 100.0), transformer_kva=100.0
)


def test_healthy_trace_has_no_incidents():
    assert detect(_make_trace(), LIMITS) == []


def test_undervoltage_magnitude_is_the_pu_deficit():
    trace = _make_trace()
    trace.voltage_pu[70, 2] = 0.89
    found = detect(trace, LIMITS)
    assert len(found) == 1
    inc = found[0]
    assert inc.kind == KIND_UNDERVOLTAGE
    assert inc.step == 70
    assert inc.element == "n2"
    assert inc.magnitude == pytest.approx(0.01, rel=1e-9)


def test_overvoltage_detected():
    trace = _make_trace()
    trace.voltage_pu[10, 1] = 1.12
    found = detect(trace, LIMITS)
    assert [i.kind for i in found] == [KIND_OVERVOLTAGE]
    assert found[0].magnitude == pytest.approx(0.02, rel=1e-9)


def test_thermal_overload_percent():
    trace = _make_trace()
    trace.branch_current_a[5, 0] = 130.0
    found = detect(trace, LIMITS)
    assert [i.kind for i in found] == [KIND_BRANCH_THERMAL]
    assert found[0].element == "n0->n1"
    assert found[0].magnitude == pytest.approx(30.0, rel=1e-9)


def test_transformer_overload_percent():
    trace = _make_trace()
    trace.slack_p_kw[80] = 80.0
    trace.slack_q_kvar[80] = 60.0  # 100 kVA exactly: not an incident
    assert detect(trace, LIMITS) == []
    trace.slack_p_kw[80] = 90.0  # 108.2 kVA
    found = detect(trace, LIMITS)
    assert [i.kind for i in found] == [KIND_TRANSFORMER_OVERLOAD]
    assert found[0].magnitude > 0


def test_non_convergence_reported_as_diagnostic():
    trace = _make_trace()
    trace.converged[33] = False
    trace.residual_pu[33] = 1e-3
    found = detect(trace, LIMITS)
    assert [i.kind for i in found] == [KIND_DIAGNOSTIC]
    assert found[0].step == 33


def test_exact_limit_is_not_an_incident():
    trace = _make_trace()
    trace.voltage_pu[1, 1] = 0.9
    trace.voltage_pu[2, 2] = 1.1
    trace.branch_current_a[3, 0] = 100.0
    assert detect(trace, LIMITS) == []


def test_incidents_ordered_by_step_then_element():
    trace = _make_trace()
    trace.voltage_pu[50, 2] = 0.85
    trace.voltage_pu[50, 1] = 0.86
    trace.voltage_pu[20, 1] = 0.88
    found = detect(trace, LIMITS)
    assert [(i.step, i.element) for i in found] == [(20, "n1"), (50, "n1"), (50, "n2")]


def test_detect_is_pure():
    trace = _make_trace()
    trace.voltage_pu[50, 2] = 0.85
    assert detect(trace, LIMITS) == detect(trace, LIMITS)


def test_tighter_limits_catch_a_superset():
    trace = _make_trace()
    rng = np.random.default_rng(2)
    trace.voltage_pu[:] = rng.uniform(0.87, 1.0, trace.voltage_pu.shape)
    loose = detect(trace, LIMITS)
    tight = detect(
        trace,
        IncidentLimits(
            v_lower_pu=0.93, v_upper_pu=1.05,
            branch_ampacity_a=(100.0, 100.0), transformer_kva=100.0,
        ),
    )
    loose_keys = {(i.kind, i.step, i.element) for i in loose}
    tight_keys = {(i.kind, i.step, i.element) for i in tight}
    assert loose_keys <= tight_keys


def test_limits_must_straddle_one():
    with pytest.raises(ValueError):
        IncidentLimits(1.0, 1.1, (100.0,), 100.0)


@pytest.mark.parametrize("v_lower_pu", [0.0, -3.0])
def test_the_lower_limit_must_lie_above_zero(v_lower_pu):
    """No node voltage lies below a lower limit at or under 0 pu, so such a
    limit would never fire."""
    with pytest.raises(ValueError, match="above 0"):
        IncidentLimits(v_lower_pu, 1.1, (100.0,), 100.0)


def test_raising_charging_power_never_removes_undervoltage(feeder, profiles):
    """Monotone severity on the passive network."""
    fleet = generate_fleet(DEFAULT_SCENARIOS["medium"], feeder.household_ids, seed=2)
    limits = IncidentLimits.from_feeder(feeder)
    _, trace_lo = passive_horizon(feeder, profiles, fleet, 5.0)
    _, trace_hi = passive_horizon(feeder, profiles, fleet, 7.0)
    lo = {(i.step, i.element) for i in detect(trace_lo, limits) if i.kind == KIND_UNDERVOLTAGE}
    hi = {(i.step, i.element) for i in detect(trace_hi, limits) if i.kind == KIND_UNDERVOLTAGE}
    assert lo
    assert lo <= hi


def test_passive_low_scenario_at_9kw_hits_voltage(feeder, profiles):
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, [1, 0])
    _, trace = passive_horizon(feeder, profiles, fleet, 9.0)
    found = detect(trace, IncidentLimits.from_feeder(feeder))
    assert any(i.kind == KIND_UNDERVOLTAGE for i in found)


def test_export_csv_schema():
    trace = _make_trace()
    trace.voltage_pu[70, 2] = 0.89
    text = export_incidents_csv(detect(trace, LIMITS))
    lines = text.strip().split("\n")
    assert lines[0] == "step,kind,element,magnitude"
    assert lines[1].startswith("70,undervoltage,n2,")

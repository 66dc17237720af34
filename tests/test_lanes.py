"""The lane kernel against the one-day loop it replaced (``reference_day``).

One mixed batch covers every kind of lane: three fleets with different
quiet steps, an EV-count sub-fleet padded with absent EVs, uncontrolled,
previous-step, fixed-point and degenerate-band days, a day whose power flow
collapses and a fleet with no idle step. Each lane must equal the reference
bit for bit, recorded or judged as it steps.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evhc.doe import DoeParams, Lane, _simulate_lanes, network_aware_horizon, passive_horizon
from evhc.ev import DEFAULT_SCENARIOS, EvSession, generate_fleet, quiet_step
from evhc.incidents import IncidentLimits, crossings, detect
from evhc.powerflow import VoltageCollapseError
from evhc.trace import Extrema, SimulationTrace, summarize
from reference_day import reference_day, reference_detect, reference_summarize


@pytest.fixture(scope="module")
def batch(feeder):
    ids = feeder.household_ids
    low = generate_fleet(DEFAULT_SCENARIOS["low"], ids, [1, 0])
    medium = generate_fleet(DEFAULT_SCENARIOS["medium"], ids, seed=2)
    medium[0] = EvSession(ids[0], 90, 100, 6.0, 22.0)  # wraps midnight
    high = generate_fleet(DEFAULT_SCENARIOS["high"], ids, seed=3)
    high[1] = EvSession(ids[1], 0, 10, 12.0, 22.0)
    assert len({quiet_step(low), quiet_step(medium), quiet_step(high)}) == 3
    heavy = generate_fleet(DEFAULT_SCENARIOS["low"], ids, seed=3, rated_power_kw=60.0)
    all_day = [EvSession(ids[0], 10, 10 + 96, 5.0, 22.0)]
    return [
        Lane(low, 6.0),
        Lane(low, 6.0, DoeParams()),
        Lane(medium, 8.0, DoeParams(factor=0.2, voltage_source="previous_step")),
        Lane(high, 10.0, DoeParams(delta_perm=0.1)),
        Lane(high[3:8], 7.4, DoeParams(factor=0.2)),
        Lane(medium, 12.0, DoeParams(delta_perm=0.02)),
        Lane(heavy, 20.0),
        Lane(all_day, 7.0, DoeParams()),
        Lane(high, 14.0, DoeParams(delta_perm=0.0, factor=0.0)),
    ]


def _reference(feeder, profiles, lane):
    try:
        return reference_day(feeder, profiles, lane.sessions, lane.hc_power, lane.params)
    except (ValueError, VoltageCollapseError) as exc:
        return exc


def _assert_same_error(got, expected):
    assert type(got) is type(expected) and str(got) == str(expected)
    if isinstance(expected, VoltageCollapseError):
        assert (got.min_voltage_pu, got.iteration, got.step) == (
            expected.min_voltage_pu, expected.iteration, expected.step
        )


def _assert_equal(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    else:
        assert a == b


def test_recorded_lanes_equal_the_reference_loop(feeder, profiles, batch):
    days = _simulate_lanes(feeder, profiles, batch)
    kinds = set()
    for lane, day in zip(batch, days):
        expected = _reference(feeder, profiles, lane)
        if isinstance(expected, Exception):
            _assert_same_error(day, expected)
            kinds.add(type(expected).__name__)
            continue
        trajectories, trace = expected
        assert day.sessions == [t.session for t in trajectories]
        for f in fields(SimulationTrace):
            _assert_equal(getattr(day.trace, f.name), getattr(trace, f.name))
        # the public one-lane form of the kernel
        if lane.params is None:
            alone, _ = passive_horizon(feeder, profiles, lane.sessions, lane.hc_power)
        else:
            alone, _ = network_aware_horizon(
                feeder, profiles, lane.sessions, lane.hc_power, lane.params
            )
        for got, want in zip(alone, trajectories, strict=True):
            assert got.session == want.session and got.delivered_kwh == want.delivered_kwh
            _assert_equal(got.power_kw, want.power_kw)
        assert day.fallback_steps == int(trace.fixed_point_fallback.sum())
        kinds.add("fallback" if day.fallback_steps else "settled")
    assert kinds == {"VoltageCollapseError", "ValueError", "fallback", "settled"}


def test_judged_lanes_equal_the_reference_detect_and_summary(feeder, profiles, batch):
    limits = IncidentLimits.from_feeder(feeder)
    days = _simulate_lanes(feeder, profiles, batch, judge=limits)
    incidents = 0
    for lane, day in zip(batch, days):
        expected = _reference(feeder, profiles, lane)
        if isinstance(expected, Exception):
            _assert_same_error(day, expected)
            continue
        _, trace = expected
        assert day.trace is None
        assert day.incidents == reference_detect(trace, limits)
        summary = reference_summarize(trace, feeder.compiled.ampacity_a)
        for f in fields(summary):
            _assert_equal(getattr(day.summary, f.name), getattr(summary, f.name))
        _assert_equal(day.delivered_kwh, trace.delivered_kwh)
        assert day.fallback_steps == int(trace.fixed_point_fallback.sum())
        incidents += len(day.incidents)
    assert incidents > 0


# --- crossings and extrema on random traces ----------------------------------

LIMITS = IncidentLimits(
    v_lower_pu=0.9, v_upper_pu=1.1, branch_ampacity_a=(100.0, 50.0), transformer_kva=100.0
)


@st.composite
def _traces(draw):
    steps = draw(st.integers(1, 8))
    n_nodes, n_branches = 3, len(LIMITS.branch_ampacity_a)

    def grid(shape, values):
        flat = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    # exact limits, exact ties and values on either side
    voltage = st.one_of(st.sampled_from([0.9, 1.1, 0.95, 1.0]), st.floats(0.8, 1.2))
    current = st.one_of(st.sampled_from([0.0, 50.0, 100.0]), st.floats(0.0, 150.0))
    return SimulationTrace(
        step_count=steps,
        step_hours=0.25,
        node_ids=tuple(f"n{i}" for i in range(n_nodes)),
        branch_labels=("n0->n1", "n1->n2"),
        household_ids=(),
        voltage_pu=grid((steps, n_nodes), voltage),
        branch_current_a=grid((steps, n_branches), current),
        slack_p_kw=grid((steps,), st.sampled_from([0.0, 60.0, 100.0, 120.0])),
        slack_q_kvar=grid((steps,), st.sampled_from([0.0, 80.0])),
        converged=np.array(draw(st.lists(st.booleans(), min_size=steps, max_size=steps))),
        iterations=np.ones(steps, dtype=int),
        residual_pu=grid((steps,), st.floats(0.0, 1e-3)),
        ev_power_kw=np.zeros((steps, 0)),
        ev_desired_kw=np.zeros((steps, 0)),
        envelope_floor_kw=np.zeros((steps, 0)),
        envelope_cap_kw=np.zeros((steps, 0)),
        envelope_zone=np.zeros((steps, 0), dtype=np.int8),
        delivered_kwh=np.zeros(0),
        control_active=False,
        fixed_point_fallback=np.zeros(steps, dtype=bool),
    ), draw(st.integers(0, steps - 1))


@given(_traces())
def test_vectorised_crossings_equal_the_per_step_loop(case):
    """``detect`` on the whole trace, and the kernel's step-by-step use of
    the same rule from a rotated start, both equal the per-step loop."""
    trace, start = case
    expected = reference_detect(trace, LIMITS)
    assert detect(trace, LIMITS) == expected
    streamed = []
    for k in range(trace.step_count):
        t = (start + k) % trace.step_count
        streamed += crossings(
            LIMITS, trace.node_ids, trace.branch_labels, np.array([[t]]),
            trace.voltage_pu[[[t]]], trace.branch_current_a[[[t]]], trace.slack_kva[[[t]]],
            trace.converged[[[t]]], trace.residual_pu[[[t]]],
        )[0]
    assert sorted(streamed, key=lambda inc: inc.step) == expected


@given(_traces())
def test_folded_extrema_equal_the_whole_trace_summary(case):
    """The summary folded step by step from a rotated start, and
    ``summarize``, equal the whole-trace reduction; the overall minimum
    goes to the earliest step on a tie."""
    trace, start = case
    ampacity = np.asarray(LIMITS.branch_ampacity_a)
    expected = reference_summarize(trace, ampacity)
    extrema = Extrema(1, len(trace.node_ids), len(trace.branch_labels))
    for k in range(trace.step_count):
        t = (start + k) % trace.step_count
        extrema.add(
            np.array([0]), np.array([[t]]), trace.voltage_pu[[[t]]],
            trace.branch_current_a[[[t]]], trace.slack_kva[[[t]]], trace.converged[[[t]]],
        )
    for summary in (
        extrema.summary(0, trace.node_ids, ampacity, trace.delivered_kwh),
        summarize(trace, ampacity),
    ):
        for f in fields(summary):
            _assert_equal(getattr(summary, f.name), getattr(expected, f.name))

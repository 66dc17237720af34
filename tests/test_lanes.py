"""The lane kernel against the one-day loop it replaced (``reference_day``).

One mixed batch covers every kind of lane: three fleets with different
quiet steps, an EV-count sub-fleet padded with absent EVs, uncontrolled,
previous-step, fixed-point and degenerate-band days, a day whose power flow
collapses and a fleet with no idle step. Each lane must equal the reference
bit for bit, recorded or judged as it steps.
"""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import evhc.doe
from evhc.doe import (
    DoeParams,
    Lane,
    LaneDay,
    _raised,
    _simulate_lanes,
    _Stopped,
    baseline_matrix,
    network_aware_horizon,
    passive_horizon,
)
from evhc.ev import DEFAULT_SCENARIOS, EvSession, generate_fleet, quiet_step
from evhc.incidents import IncidentLimits, crossings, detect
from evhc.powerflow import PowerFlowOptions, VoltageCollapseError, _solve_lanes
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


def test_keyed_lanes_stop_past_the_first_failure_of_their_search(feeder, profiles):
    """Judged lanes of a search equal the same lanes judged without a key up
    to the search's lowest lane with an incident or a collapse; its later
    lanes stop. Unkeyed lanes, other searches and the lanes after a
    ``ValueError`` run their whole day."""
    ids = feeder.household_ids
    low = generate_fleet(DEFAULT_SCENARIOS["low"], ids, [1, 0])
    high = generate_fleet(DEFAULT_SCENARIOS["high"], ids, seed=3)
    burst = [EvSession(h, 40, 48, 30.0, 60.0) for h in ids]  # collapses as it arrives
    all_day = [EvSession(ids[0], 10, 10 + 96, 5.0, 22.0)]
    batch = [
        ("aware", Lane(low, 2.0, DoeParams())),
        (None, Lane(burst, 60.0)),
        ("passive", Lane(high, 2.0)),
        ("aware", Lane(low, 6.0, DoeParams())),
        ("collapse", Lane(burst, 60.0)),
        ("passive", Lane(high, 6.0)),
        ("aware", Lane(low, 10.0, DoeParams())),  # first incident a step after the next lane's
        ("error", Lane(all_day, 7.0, DoeParams())),
        ("aware", Lane(low, 14.0, DoeParams())),
        (None, Lane(high, 10.0)),
        ("passive", Lane(high, 10.0)),
        ("collapse", Lane(low, 4.0, DoeParams(factor=0.2))),  # incident-free alone
        ("aware", Lane(low, 18.0, DoeParams())),
        ("error", Lane(low, 6.0, DoeParams())),
        ("passive", Lane(high, 14.0)),  # collapses alone, after it is stopped
    ]
    limits = IncidentLimits.from_feeder(feeder)
    alone = _simulate_lanes(feeder, profiles, [lane for _, lane in batch], judge=limits)
    keyed = _simulate_lanes(
        feeder, profiles, [lane._replace(search=key) for key, lane in batch], judge=limits
    )
    first = {}
    for i, ((key, _), day) in enumerate(zip(batch, alone)):
        if isinstance(day, VoltageCollapseError) or isinstance(day, LaneDay) and day.incidents:
            first.setdefault(key, i)
    assert isinstance(alone[first["collapse"]], VoltageCollapseError)
    assert isinstance(alone[7], ValueError) and "error" not in first
    stopped = []
    for i, ((key, _), got, want) in enumerate(zip(batch, keyed, alone)):
        if key is not None and i > first.get(key, len(batch)):
            with pytest.raises(_Stopped):
                _raised(got)
            stopped.append(i)
        elif isinstance(want, Exception):
            _assert_same_error(got, want)
        else:
            for f in fields(LaneDay):
                if f.name == "summary":
                    for g in fields(want.summary):
                        _assert_equal(getattr(got.summary, g.name), getattr(want.summary, g.name))
                else:
                    _assert_equal(getattr(got, f.name), getattr(want, f.name))
    assert stopped == [8, 10, 11, 12, 14]


def test_judged_lanes_that_all_end_in_one_step_are_their_errors(feeder, profiles):
    """When every lane of a judged call ends in the same step, each is the
    collapse it hit, as when it is recorded."""
    burst = [EvSession(h, 40, 48, 30.0, 60.0) for h in feeder.household_ids]
    for lanes in ([Lane(burst, 60.0)], [Lane(burst, 60.0), Lane(burst, 60.0, DoeParams())]):
        recorded = _simulate_lanes(feeder, profiles, lanes)
        judged = _simulate_lanes(feeder, profiles, lanes, judge=IncidentLimits.from_feeder(feeder))
        for got, want in zip(judged, recorded):
            assert isinstance(want, VoltageCollapseError)
            _assert_same_error(got, want)


# --- rows shared within a solve ------------------------------------------------


def _solver_rows(monkeypatch) -> list:
    """The ``(steps, p_kw)`` of every ``_solve_lanes`` call the kernel makes
    from here on."""
    calls = []
    original = evhc.doe._solve_lanes

    def recording(feeder, p_kw, q_kvar, options, steps):
        calls.append((list(steps), p_kw.copy()))
        return original(feeder, p_kw, q_kvar, options, steps)

    monkeypatch.setattr(evhc.doe, "_solve_lanes", recording)
    return calls


def _lane_solves(calls) -> int:
    return sum(len(steps) for steps, _ in calls)


def test_shared_rows_equal_the_reference_loop(feeder, profiles, monkeypatch):
    """Exact duplicates, envelopes that differ but never bind, and idle lanes
    all solve the rows of one uncontrolled lane, and each still equals the
    reference bit for bit: the batch costs what that one lane costs."""
    low = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, [1, 0])
    green = DoeParams(delta_perm=0.4, factor=0.5, u_min=0.55)
    batch = [
        Lane(low, 2.0),
        Lane([], 6.0),
        Lane(low, 2.0),
        Lane(low, 2.0, green),
        Lane(low, 2.0, DoeParams(delta_perm=0.45, factor=0.2, u_min=0.5)),
        Lane(low, 2.0, replace(green, voltage_source="previous_step")),
        Lane([], 9.0, DoeParams()),
        Lane(low, 2.0, green),
    ]
    calls = _solver_rows(monkeypatch)
    _simulate_lanes(feeder, profiles, batch[:1])
    alone = _lane_solves(calls)
    calls.clear()
    days = _simulate_lanes(feeder, profiles, batch)
    assert _lane_solves(calls) == alone
    for lane, day in zip(batch, days):
        _, trace = _reference(feeder, profiles, lane)
        for f in fields(SimulationTrace):
            _assert_equal(getattr(day.trace, f.name), getattr(trace, f.name))


def test_each_distinct_row_is_solved_once_per_solve(feeder, profiles, batch, monkeypatch):
    """The kernel first solves the baseline of every step; after that each
    solve call gets pairwise distinct ``(t, p_kw)`` rows, none of them its
    step's baseline. A batch doubled lane for lane costs no extra solve and
    simulates the same days."""
    baseline = baseline_matrix(feeder, profiles)
    calls = _solver_rows(monkeypatch)
    single = _simulate_lanes(feeder, profiles, batch)
    alone = _lane_solves(calls)
    calls.clear()
    doubled = _simulate_lanes(feeder, profiles, batch + batch)
    assert _lane_solves(calls) == alone
    (steps, p_kw), *solves = calls
    assert steps == list(range(96)) and np.array_equal(p_kw, baseline)
    for steps, p_kw in solves:
        rows = {(t, row.tobytes()) for t, row in zip(steps, p_kw)}
        assert len(rows) == len(steps)
        assert not (p_kw == baseline[steps]).all(axis=1).any()
    for got, want in zip(doubled, single + single):
        if isinstance(want, Exception):
            _assert_same_error(got, want)
        else:
            for f in fields(SimulationTrace):
                _assert_equal(getattr(got.trace, f.name), getattr(want.trace, f.name))


def test_rows_that_only_share_a_key_are_solved_apart(feeder, profiles, monkeypatch):
    """Rows whose weighted keys coincide although they differ (by a residue
    the key rounds away) are not shared: each is solved, and every row gets
    its own row's solution, bit for bit. Exactly equal rows are shared, and
    a row equal to its step's baseline reads the baseline table."""
    baseline = baseline_matrix(feeder, profiles)
    q, options = baseline * 0.33, PowerFlowOptions()
    base = SimpleNamespace(p=baseline, q=q, weights=np.sqrt(np.arange(2.0, baseline.shape[1] + 2)))
    base.key = np.arange(96) + 1j * np.einsum("ij,j->i", baseline, base.weights)
    base.solution = _solve_lanes(feeder, baseline, q, options, list(range(96)))
    t = np.array([50, 50, 50, 50, 50, 70])
    p_kw = baseline[t]
    p_kw[1, 0] += 1e-16  # a residue on the baseline
    p_kw[2:5, 3] += 2.0  # three equal EV rows ...
    p_kw[4, 5] += 1e-16  # ... of which one carries a residue
    key = t + 1j * np.einsum("ij,j->i", p_kw, base.weights)
    assert key[1] == base.key[50] and key[4] == key[2] and not (p_kw[1] == p_kw[0]).all()
    expected = _solve_lanes(feeder, p_kw, q[t], options, t.tolist())
    calls = _solver_rows(monkeypatch)
    got = evhc.doe._solve_distinct(feeder, p_kw, t, base, options)
    [(steps, rows)] = calls
    assert sorted(steps) == [50, 50, 50] and sorted(map(bytes, rows)) == sorted(
        bytes(p_kw[i]) for i in (1, 2, 4)
    )
    for name, want in expected._asdict().items():
        _assert_equal(np.asarray(getattr(got, name)), np.asarray(want))


def test_a_shared_collapse_is_each_lanes_own_error(feeder, profiles, monkeypatch):
    """Lanes that collapse on one shared row each end as their own error,
    labelled with the step, as when simulated alone."""
    burst = [EvSession(h, 40, 48, 30.0, 60.0) for h in feeder.household_ids]
    lanes = [Lane(burst, 60.0), Lane(burst, 60.0, DoeParams(factor=1.0)), Lane(burst, 60.0)]
    expected = _reference(feeder, profiles, lanes[0])
    assert isinstance(expected, VoltageCollapseError) and expected.step == 40
    calls = _solver_rows(monkeypatch)
    for judge in (None, IncidentLimits.from_feeder(feeder)):
        calls.clear()
        days = _simulate_lanes(feeder, profiles, lanes, judge=judge)
        assert [len(steps) for steps, _ in calls[-1:]] == [1]  # the collapsing row, once
        assert len({id(day) for day in days}) == len(lanes)
        for day in days:
            _assert_same_error(day, expected)


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

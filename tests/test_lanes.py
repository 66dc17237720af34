"""The lane kernel against the one-day loop it replaced (``reference_day``).

One mixed batch covers every kind of lane: three fleets with different
quiet steps, an EV-count sub-fleet padded with absent EVs, uncontrolled,
previous-step, fixed-point and degenerate-band days, a day whose power flow
collapses and a fleet with no idle step. Each lane's day, rebuilt from what
the kernel kept, must equal the reference bit for bit, and so must what a
judged lane keeps: its incidents and the day's two extrema. Every step of
the batch keeps the contract of ``_step``, the one controlled-step function.
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
    _replay,
    _simulate_lanes,
    _envelope,
    _Stopped,
    baseline_matrix,
    network_aware_horizon,
    passive_horizon,
)
from evhc.ev import DEFAULT_SCENARIOS, EvSession, generate_fleet, quiet_step
from evhc.incidents import IncidentLimits, crossings, detect
from evhc.powerflow import LaneSolution, VoltageCollapseError, _solve_lanes
from evhc.trace import SimulationTrace, summarize
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


def _rebuilt(feeder, profiles, lane, day):
    """The trace ``_replay`` rebuilds from the lane's kernel ``day``, or the
    exception that ended it; an uncontrolled lane is rebuilt without it."""
    try:
        if lane.params is None:
            return _replay(feeder, profiles, lane)[1]
        return _replay(feeder, profiles, lane, _raised(day))[1]
    except (ValueError, VoltageCollapseError) as exc:
        return exc


def _assert_same_trace(got, want):
    for f in fields(SimulationTrace):
        _assert_equal(getattr(got, f.name), getattr(want, f.name))


def test_recorded_lanes_equal_the_reference_loop(feeder, profiles, batch):
    """Every lane's rebuilt day is the reference day, or ends in its error."""
    days = _simulate_lanes(feeder, profiles, batch, judge=IncidentLimits.from_feeder(feeder))
    kinds = set()
    for lane, day in zip(batch, days):
        expected = _reference(feeder, profiles, lane)
        rebuilt = _rebuilt(feeder, profiles, lane, day)
        if isinstance(expected, Exception):
            _assert_same_error(day, expected)
            _assert_same_error(rebuilt, expected)
            kinds.add(type(expected).__name__)
            continue
        trajectories, trace = expected
        assert day.sessions == [t.session for t in trajectories]
        _assert_equal(day.delivered_kwh, trace.delivered_kwh)
        _assert_same_trace(rebuilt, trace)
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


def test_a_network_aware_horizon_is_its_judged_lane_replayed(feeder, profiles, batch):
    """``network_aware_horizon`` returns the trace and trajectories that
    ``_replay`` rebuilds from its lane's judged kernel day, bit for bit, or
    raises the error that ended that day."""
    lanes = [lane for lane in batch if lane.params is not None]
    days = _simulate_lanes(feeder, profiles, lanes, judge=IncidentLimits.from_feeder(feeder))
    replayed = 0
    for lane, day in zip(lanes, days):
        try:
            got = network_aware_horizon(feeder, profiles, *lane[:3])
        except (ValueError, VoltageCollapseError) as exc:
            _assert_same_error(exc, day)
            continue
        trajectories, trace = _replay(feeder, profiles, day.lane, day)
        _assert_same_trace(got[1], trace)
        for a, b in zip(got[0], trajectories, strict=True):
            assert a.session == b.session and a.delivered_kwh == b.delivered_kwh
            _assert_equal(a.power_kw, b.power_kw)
        replayed += 1
    assert 0 < replayed < len(lanes)


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
        assert day.incidents == reference_detect(trace, limits)
        summary = reference_summarize(trace, feeder.compiled.ampacity_a)
        assert day.min_voltage_pu == summary.overall_min_voltage_pu
        assert day.max_slack_kva == summary.max_slack_kva
        _assert_equal(day.delivered_kwh, trace.delivered_kwh)
        _assert_same_trace(_rebuilt(feeder, profiles, lane, day), trace)
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
                if key is not None and f.name in ("clamp_voltage_pu", "fallback"):
                    assert getattr(got, f.name) is None  # a keyed lane is never rebuilt
                elif f.name == "lane":
                    assert got.lane == want.lane._replace(search=key)
                else:
                    _assert_equal(getattr(got, f.name), getattr(want, f.name))
    assert stopped == [8, 10, 11, 12, 14]


def test_judged_lanes_that_all_end_in_one_step_are_their_errors(feeder, profiles):
    """When every lane of a judged call ends in the same step, each is the
    collapse it hit, as in the reference loop."""
    burst = [EvSession(h, 40, 48, 30.0, 60.0) for h in feeder.household_ids]
    for lanes in ([Lane(burst, 60.0)], [Lane(burst, 60.0), Lane(burst, 60.0, DoeParams())]):
        judged = _simulate_lanes(feeder, profiles, lanes, judge=IncidentLimits.from_feeder(feeder))
        for got, lane in zip(judged, lanes):
            want = _reference(feeder, profiles, lane)
            assert isinstance(want, VoltageCollapseError)
            _assert_same_error(got, want)


def test_a_request_met_one_ulp_over_desires_nothing(feeder, profiles):
    """Energy summed step by step can land one ulp above the request while
    the EV is still connected (6.078136778867718 kWh of 6.078136778867717 on
    a generated feeder): it then desires 0 kW, not the tiny negative power
    that once ended its controlled lane with an error."""
    h = feeder.household_ids[0]
    lane = Lane([EvSession(h, 40, 48, 6.078136778867717, 22.0)], 7.0, DoeParams())
    rows = evhc.doe._start(feeder, profiles, [lane])[3]
    slot = feeder.compiled.household_slot[h]
    rows.delivered[0, slot] = np.nextafter(rows.requested[0, slot], np.inf)
    connected, desired = evhc.doe._demand(rows, np.array([44]), rows.delivered)
    assert connected[0, slot] and desired[0, slot] == 0.0


def test_an_uncontrolled_day_rebuilt_alone_ends_in_the_kernels_error(feeder, profiles):
    """Rebuilt without the kernel, an uncontrolled lane raises the collapse
    the kernel ends it with, bit for bit: the first in the lane's walk order
    from its quiet step 4, not the first in index order."""
    ids = feeder.household_ids
    late = [EvSession(h, 40, 48, 30.0, 60.0) for h in ids[:6]]
    early = [EvSession(h, 0, 4, 30.0, 60.0) for h in ids[6:]]  # before the quiet step
    lane = Lane([*late, *early], 60.0)
    assert quiet_step(lane.sessions) == 4
    limits = IncidentLimits.from_feeder(feeder)
    [alone] = _simulate_lanes(feeder, profiles, [lane._replace(sessions=early)], judge=limits)
    assert isinstance(alone, VoltageCollapseError) and alone.step == 0  # first in index order
    [day] = _simulate_lanes(feeder, profiles, [lane], judge=limits)
    assert isinstance(day, VoltageCollapseError) and day.step == 40
    _assert_same_error(_rebuilt(feeder, profiles, lane, None), day)


# --- rows shared within a solve ------------------------------------------------


def assert_step_contract(feeder, profiles, lanes) -> tuple[int, int, int]:
    """Run the kernel on ``lanes`` and check each ``_step`` call's contract
    for every lane it did not end in an error: the granted power is the
    clamp of the desired power to the envelope at the returned clamp
    voltages (the desired power itself when uncontrolled); the returned rows
    are ``_solve_lanes`` of baseline + granted, bit for bit; only a
    fixed-point lane falls back; and an uncontrolled or ``previous_step``
    lane, stepped alone, makes one one-row solve (none when its row is its
    step's baseline row, solved once per kernel call) and is granted what
    it was in the batch. Returns the fallback lane-steps, the lane-steps
    that ended in an error, and the lanes stepped alone."""
    calls, step, solve = [], evhc.doe._step, evhc.doe._solve_lanes

    def recorded(*args):
        calls.append((args, step(*args)))
        return calls[-1][1]

    solves = []

    def counted(feeder, p_kw, *args):
        solves.append(len(p_kw))
        return solve(feeder, p_kw, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evhc.doe, "_step", recorded)
        _simulate_lanes(feeder, profiles, lanes, judge=IncidentLimits.from_feeder(feeder))
    fallbacks = errors = alone = 0
    for (_, base, t, connected, desired, v_house, env), got in calls:
        ok = np.array([exc is None for exc in got.error])
        floor, cap, _ = _envelope(got.v_clamp, env.p_max, env)
        clamp = np.minimum(np.maximum(desired, np.minimum(floor, desired)), cap)  # with floor edge
        clamped = np.where(connected, clamp, 0.0)
        granted = np.where(env.controlled[:, np.newaxis], clamped, desired)
        assert np.array_equal(got.granted[ok], granted[ok])
        p_kw = base.p[t] + got.granted
        rows = _solve_lanes(feeder, p_kw[ok], base.q[t[ok]], t[ok].tolist())
        for name in LaneSolution._fields[:-1]:
            _assert_equal(getattr(got.solution, name)[ok], getattr(rows, name))
        assert not got.fallback[~env.fixed_point].any()
        for r in np.flatnonzero(ok & ~env.fixed_point):
            solves.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evhc.doe, "_solve_lanes", counted)
                one = step(feeder, base, t[[r]], connected[[r]], desired[[r]], v_house[[r]],
                           env.take([r]))
            assert solves == ([1] if (p_kw[r] != base.p[t[r]]).any() else [])
            assert np.array_equal(one.granted[0], got.granted[r])
            alone += 1
        fallbacks += int(got.fallback.sum())
        errors += int((~ok).sum())
    return fallbacks, errors, alone


def test_every_step_keeps_the_step_contract(feeder, profiles, batch):
    fallbacks, errors, alone = assert_step_contract(feeder, profiles, batch)
    assert fallbacks and errors and alone


def _solver_rows(monkeypatch) -> list:
    """The ``(steps, p_kw)`` of every ``_solve_lanes`` call the kernel makes
    from here on."""
    calls = []
    original = evhc.doe._solve_lanes

    def recording(feeder, p_kw, q_kvar, steps):
        calls.append((list(steps), p_kw.copy()))
        return original(feeder, p_kw, q_kvar, steps)

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
    limits = IncidentLimits.from_feeder(feeder)
    calls = _solver_rows(monkeypatch)
    _simulate_lanes(feeder, profiles, batch[:1], judge=limits)
    alone = _lane_solves(calls)
    calls.clear()
    days = _simulate_lanes(feeder, profiles, batch, judge=limits)
    assert _lane_solves(calls) == alone
    for lane, day in zip(batch, days):
        _, trace = _reference(feeder, profiles, lane)
        _assert_same_trace(_rebuilt(feeder, profiles, lane, day), trace)


def test_each_distinct_row_is_solved_once_per_solve(feeder, profiles, batch, monkeypatch):
    """The kernel first solves the baseline of every step; after that each
    solve call gets pairwise distinct ``(t, p_kw)`` rows, none of them its
    step's baseline. A batch doubled lane for lane costs no extra solve and
    simulates the same days."""
    baseline, limits = baseline_matrix(feeder, profiles), IncidentLimits.from_feeder(feeder)
    calls = _solver_rows(monkeypatch)
    single = _simulate_lanes(feeder, profiles, batch, judge=limits)
    alone = _lane_solves(calls)
    calls.clear()
    doubled = _simulate_lanes(feeder, profiles, batch + batch, judge=limits)
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
            for f in fields(LaneDay):
                _assert_equal(getattr(got, f.name), getattr(want, f.name))


def test_flows_are_derived_once_per_step_where_the_judge_reads_them(
    feeder, profiles, batch, monkeypatch
):
    """A solve returns the sweep's state; the kernel derives node voltages,
    branch currents and slack power (``_flows``) at most once per step, on
    the rows it judges, however many solves the step's fixed point makes."""
    derived, original = [], evhc.doe._flows

    def counted(feeder, v, i):
        derived.append(len(v))
        return original(feeder, v, i)

    monkeypatch.setattr(evhc.doe, "_flows", counted)
    calls = _solver_rows(monkeypatch)
    _simulate_lanes(feeder, profiles, batch, judge=IncidentLimits.from_feeder(feeder))
    assert 0 < len(derived) <= 96
    # a lane that ends early is judged no more
    assert sum(derived) < 96 * len(batch) < _lane_solves(calls)


def test_rows_that_only_share_a_key_are_solved_apart(feeder, profiles, monkeypatch):
    """Rows whose weighted keys coincide although they differ (by a residue
    the key rounds away) are not shared: each is solved, and every row gets
    its own row's solution, bit for bit. Exactly equal rows are shared, and
    a row equal to its step's baseline reads the baseline table."""
    baseline = baseline_matrix(feeder, profiles)
    q = baseline * 0.33
    base = SimpleNamespace(p=baseline, q=q, weights=np.sqrt(np.arange(2.0, baseline.shape[1] + 2)))
    base.key = np.arange(96) + 1j * np.einsum("ij,j->i", baseline, base.weights)
    base.solution = _solve_lanes(feeder, baseline, q, list(range(96)))
    t = np.array([50, 50, 50, 50, 50, 70])
    p_kw = baseline[t]
    p_kw[1, 0] += 1e-16  # a residue on the baseline
    p_kw[2:5, 3] += 2.0  # three equal EV rows ...
    p_kw[4, 5] += 1e-16  # ... of which one carries a residue
    key = t + 1j * np.einsum("ij,j->i", p_kw, base.weights)
    assert key[1] == base.key[50] and key[4] == key[2] and not (p_kw[1] == p_kw[0]).all()
    expected = _solve_lanes(feeder, p_kw, q[t], t.tolist())
    calls = _solver_rows(monkeypatch)
    got = evhc.doe._solve_distinct(feeder, p_kw, t, base)
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
    days = _simulate_lanes(feeder, profiles, lanes, judge=IncidentLimits.from_feeder(feeder))
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
def test_summarize_equals_the_whole_trace_reduction(case):
    """``summarize`` equals the whole-trace reduction; the overall minimum
    goes to the earliest step on a tie."""
    trace, _ = case
    ampacity = np.asarray(LIMITS.branch_ampacity_a)
    summary, expected = summarize(trace, ampacity), reference_summarize(trace, ampacity)
    for f in fields(summary):
        _assert_equal(getattr(summary, f.name), getattr(expected, f.name))

"""Dynamic operating envelopes and the network-aware charging simulation.

The envelope gives every EV, at every step, an admissible charging-power
interval derived from its own node voltage: full rated charging above the
permissible-band boundary (green), a fixed floor at or below the minimum
voltage threshold (red), and a linear ramp between the two (yellow). The
charger then draws the admissible power closest to what it wants.

The ramp divides by ((1 - delta_perm) - u_min), so the cap rises with
voltage: full power in the green zone, the floor in the red. The mirrored
sign sometimes seen for this rule contradicts the zones and is not used.

The day-long quasi-static simulation of both regimes lives here too. The
one kernel, ``_simulate_lanes``, steps many days ("lanes") through the
circular day together, each from a session-free step so wrapped sessions
are visited arrival-first, and keeps only what its callers read. ``_step``
grants and solves one step of the lanes: the only home of the envelope's
bound -> clamp -> solve fixed point, keeping each lane's last solve. Every
kernel call is judged. ``_replay`` rebuilds a day's trace from what its lane
kept, with no fixed point and no kernel call: ``network_aware_horizon`` is
one judged kernel lane, replayed; ``passive_horizon`` needs no kernel.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ev import ChargingTrajectory, EvSession, quiet_step
from .feeder import BaselineLoadProfile, FeederModel
from .incidents import Incident, IncidentLimits, crossings
from .powerflow import BASELINE_Q_PER_KW, LaneSolution, _collapse_error, _flows, _solve_lanes
from .trace import (
    STEP_HOURS,
    STEPS_PER_DAY,
    ZONE_GREEN,
    ZONE_LABELS,
    ZONE_NONE,
    ZONE_RED,
    ZONE_YELLOW,
    SimulationTrace,
    csv_table,
)

FIXED_POINT_TOL_KW = 0.01
FIXED_POINT_MAX_ITER = 20

VOLTAGE_SOURCES = ("fixed_point", "previous_step")
_SHAPE = ("factor", "u_min", "green_threshold", "degenerate")  # what _envelope reads of params


@dataclass(frozen=True)
class DoeParams:
    """Envelope shape parameters.

    delta_perm: permissible voltage band below 1.0 pu; the green zone starts
        at (1 - delta_perm).
    factor: envelope floor as a fraction of the EV's maximum power.
    u_min: red-zone threshold, per-unit (EN 50160 lower limit by default).
    voltage_source: where the local voltage fed to the envelope comes from —
        "fixed_point" iterates bound and power flow to self-consistency
        within the step, "previous_step" uses the last solved step (one-step
        measurement delay).
    """

    delta_perm: float = 0.05
    factor: float = 0.5
    u_min: float = 0.9
    voltage_source: str = "fixed_point"

    def __post_init__(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError("factor must lie in [0, 1]")
        if self.delta_perm < 0.0:
            raise ValueError("delta_perm must be >= 0")
        if not 0.0 < self.u_min < 1.0:
            raise ValueError("u_min must lie in (0, 1)")
        if self.voltage_source not in VOLTAGE_SOURCES:
            raise ValueError(f"voltage_source must be one of {VOLTAGE_SOURCES}")

    @property
    def green_threshold(self) -> float:
        return 1.0 - self.delta_perm

    @property
    def degenerate(self) -> bool:
        """True when the yellow band vanishes ((1 - delta_perm) <= u_min)."""
        return self.green_threshold <= self.u_min


@dataclass(frozen=True)
class EnvelopeBound:
    """Admissible charging-power interval for one EV at one step."""

    floor_kw: float
    cap_kw: float
    zone: str
    degenerate: bool = False


def envelope_bound(u_t: float, p_max_kw: float, params: DoeParams) -> EnvelopeBound:
    """Power interval admitted at local voltage ``u_t`` (per-unit)."""
    if u_t <= 0:
        raise ValueError("voltage must be > 0 pu")
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be > 0")
    floor, cap, zone = _envelope(np.float64(u_t), np.float64(p_max_kw), params)
    return EnvelopeBound(float(floor), float(cap), ZONE_LABELS[int(zone)], params.degenerate)


def _envelope(u: np.ndarray, p_max: np.ndarray, params) -> tuple[np.ndarray, ...]:
    """Floor, cap and zone code of the envelope at voltages ``u``, elementwise.

    ``params`` is a ``DoeParams`` or has its four shape attributes as
    (lanes, 1) columns, so lanes with and without a yellow band are shaped
    in one pass.
    """
    floor = params.factor * p_max
    red = u <= params.u_min
    green = u >= params.green_threshold
    # a degenerate band divides by zero or less here; its lanes take the step below
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = (p_max - floor) * (u - params.u_min) / (params.green_threshold - params.u_min)
        cap = np.minimum(np.maximum(floor + ramp, floor), p_max)
    cap = np.where(red, floor, np.where(green, p_max, cap))
    zone = np.where(red, ZONE_RED, np.where(green, ZONE_GREEN, ZONE_YELLOW))
    # no yellow band left: step function at u_min
    above = u >= params.u_min
    cap = np.where(params.degenerate, np.where(above, p_max, floor), cap)
    zone = np.where(params.degenerate, np.where(above, ZONE_GREEN, ZONE_RED), zone)
    return floor, cap, zone


def baseline_matrix(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
) -> np.ndarray:
    """Baseline demand as a (steps, households) array in feeder order; each
    profile is a day of finite powers >= 0 (``BaselineLoadProfile``)."""
    by_household = {p.household: p for p in profiles}
    missing = [h for h in feeder.household_ids if h not in by_household]
    if missing:
        raise ValueError(f"baseline profiles missing households: {missing}")
    mat = np.zeros((STEPS_PER_DAY, len(feeder.household_ids)))
    for j, h in enumerate(feeder.household_ids):
        mat[:, j] = by_household[h].power_kw
    return mat


def _sessions_in_feeder_order(
    feeder: FeederModel, sessions: list[EvSession]
) -> list[EvSession]:
    """Sessions sorted into feeder household order: the session rule, which
    an imported fleet file is checked against too. Sessions lie only on the
    feeder's households, at most one each; households without a session
    have no EV that day (used by the EV-count penetration sweep).
    """
    by_household = {s.household: s for s in sessions}
    unknown = sorted(set(by_household) - set(feeder.compiled.household_slot))
    if unknown:
        raise ValueError(f"households not on the feeder: {unknown}")
    if len(by_household) < len(sessions):
        named = [s.household for s in sessions]
        repeated = sorted({h for h in named if named.count(h) > 1})
        raise ValueError(f"more than one session for {repeated}")
    return [by_household[h] for h in feeder.household_ids if h in by_household]


class Lane(NamedTuple):
    """One day to simulate: the EV sessions, their charging power, the
    envelope that controls them (None: uncontrolled charging) and the key of
    the search it is a candidate of (None: it stands alone)."""

    sessions: list[EvSession]
    hc_power: float
    params: DoeParams | None = None
    search: Hashable | None = None


class _Stopped(Exception):
    """A judged lane stopped past an earlier failure of its search."""


@dataclass
class LaneDay:
    """What the kernel keeps of a lane: the lane itself, its energies, its
    ``incidents`` (ordered by step) and the two extrema a candidate reports.
    A controlled lane without a search key also keeps, per step, the
    household voltages its last clamp read and its fallback flag, from
    which ``_replay`` rebuilds its trace."""

    lane: Lane                   # the lane simulated
    sessions: list[EvSession]    # the lane's sessions in feeder order
    delivered_kwh: np.ndarray    # per session, summed arrival first
    uncontrolled_kwh: np.ndarray  # per session, summed alike but never clamped: QoS denominator
    fallback_steps: int
    incidents: list[Incident]
    min_voltage_pu: float        # the day's lowest node voltage
    max_slack_kva: float         # the day's largest slack apparent power
    clamp_voltage_pu: np.ndarray | None = None   # (steps, households), feeder slot order
    fallback: np.ndarray | None = None           # (steps,) bool, the fixed point hit its cap


def network_aware_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
    params: DoeParams,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """Simulate one day of envelope-controlled charging."""
    lane = Lane(sessions, hc_power, params)
    [day] = _simulate_lanes(feeder, profiles, [lane], judge=IncidentLimits.from_feeder(feeder))
    return _replay(feeder, profiles, lane, day)


def passive_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """Simulate one day of uncontrolled charging (no envelopes)."""
    return _replay(feeder, profiles, Lane(sessions, hc_power))


def _raised(result):
    """``result`` itself, unless it is the exception that ended a lane or a
    search: then that exception is raised."""
    if isinstance(result, Exception):
        raise result
    return result


class _Rows(SimpleNamespace):
    """Per-lane arrays of the lanes still running, one row per lane; the
    envelope parameters are (lanes, 1) columns named as in ``DoeParams``."""

    def take(self, lanes: np.ndarray, names=None) -> _Rows:  # of every array, or of ``names``
        return _Rows(**{name: getattr(self, name)[lanes] for name in names or vars(self)})


def _start(
    feeder: FeederModel, profiles: tuple[BaselineLoadProfile, ...], lanes: list[Lane]
) -> tuple[list, list[tuple[int, list[EvSession]]], np.ndarray | None, _Rows]:
    """The set-up the kernel and ``_replay`` share: each lane's ``ValueError``
    if it cannot start, else None; ``(lane index, sessions in feeder order)``
    of the others; the baseline; and their rows. EVs are indexed by household
    slot; a household without a session has an EV of duration 0. A lane
    starts only at a finite ``hc_power`` > 0, so its injections are >= 0."""
    comp = feeder.compiled
    n_house = len(comp.household_ids)
    out: list = [None] * len(lanes)
    try:
        baseline, baseline_error = baseline_matrix(feeder, profiles), None
    except ValueError as exc:
        baseline, baseline_error = None, exc
    started, first = [], []
    for j, lane in enumerate(lanes):
        try:
            if not 0 < lane.hc_power < np.inf:
                raise ValueError(f"hc_power must be finite and > 0, got {lane.hc_power}")
            ordered = _sessions_in_feeder_order(feeder, lane.sessions)
            if baseline_error is not None:
                raise baseline_error
            first.append(quiet_step(ordered))
            started.append((j, ordered))
        except ValueError as exc:
            out[j] = exc
    count = len(started)
    rows = _Rows(
        row=np.arange(count),
        start=np.array(first, dtype=int),
        arrival=np.zeros((count, n_house), dtype=int),
        duration=np.zeros((count, n_house), dtype=int),
        requested=np.zeros((count, n_house)),
        p_max=np.array([[lanes[j].hc_power] * n_house for j, _ in started], dtype=float),
        delivered=np.zeros((count, n_house)),
        uncontrolled=np.zeros((count, n_house)),
    )
    for r, (j, ordered) in enumerate(started):
        for s in ordered:
            h = comp.household_slot[s.household]
            rows.arrival[r, h] = s.arrival_step
            rows.duration[r, h] = s.duration_steps
            rows.requested[r, h] = s.requested_kwh
            rows.p_max[r, h] = min(lanes[j].hc_power, s.rated_kw)
    params = [lanes[j].params for j, _ in started]
    shapes = [p or DoeParams() for p in params]  # uncontrolled lanes never use theirs
    rows.controlled = np.array([p is not None for p in params], dtype=bool)
    fixed_point = [p.voltage_source == "fixed_point" for p in shapes]
    rows.fixed_point = rows.controlled & np.array(fixed_point, dtype=bool)
    for name in _SHAPE:
        setattr(rows, name, np.array([[getattr(p, name)] for p in shapes]))
    return out, started, baseline, rows


def _demand(rows: _Rows, t: np.ndarray, delivered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which EVs of each row are connected at its step ``t``, and the power
    each desires having ``delivered`` kWh so far: as fast as allowed until
    its request is met (or met one rounding over: the energy left is held
    at 0)."""
    connected = (t[:, np.newaxis] - rows.arrival) % STEPS_PER_DAY < rows.duration
    desired = np.minimum(rows.p_max, np.maximum(rows.requested - delivered, 0.0) / STEP_HOURS)
    return connected, np.where(connected, desired, 0.0)


def _step(feeder, base, t, connected, desired, v_house, env: _Rows) -> _Rows:
    """Grant and solve step ``t`` of every running lane, each as if alone.

    A lane brings its ``connected`` EVs, ``desired`` power, the household
    voltages ``v_house`` its first clamp reads and its envelope columns
    (``p_max``, ``_SHAPE``, ``controlled``, ``fixed_point``); ``base`` is the
    kernel's baseline table. A controlled lane clamps its connected EVs to
    the envelope at those voltages, any other lane is granted its desire,
    and each is solved; an uncontrolled or ``previous_step`` lane ends there.
    A ``fixed_point`` lane repeats bound -> clamp -> solve at its last
    solve's voltages while it moves: a clamp that did not move keeps the
    last solve, one that moved less than ``FIXED_POINT_TOL_KW`` this one,
    and one still moving after ``FIXED_POINT_MAX_ITER`` solves is a fallback.

    Returns, per lane: the ``granted`` power; the ``solution`` rows of its
    final solve (baseline + granted), each solve written over the rows of
    the step's first, which solves every lane; that solve's household
    voltages ``v_house``, which the next step's first clamp reads; the
    voltages ``v_clamp`` its last clamp read (``v_house`` if none); and its
    ``fallback`` flag. A lane's injections are finite and >= 0 (``_start``),
    so a collapse, recorded in its rows' ``collapse_pu``, is the only way a
    step fails; a lane stops iterating at its collapse.
    """
    clamped = env.controlled & connected.any(axis=1)
    granted, u, v_clamp, moved = desired.copy(), v_house.copy(), v_house.copy(), np.zeros(len(t))
    todo = np.arange(len(t))
    for it in range(FIXED_POINT_MAX_ITER):
        clamp = todo[clamped[todo]]
        if clamp.size:
            lanes = env.take(clamp, ("p_max", *_SHAPE))
            kw = _apply_envelope(desired[clamp], connected[clamp], u[clamp], lanes.p_max, lanes)[0]
            moved[clamp] = np.abs(kw - granted[clamp]).max(axis=1)
            granted[clamp], v_clamp[clamp] = kw, u[clamp]
        if it:  # a lane whose clamp did not move holds its last solve: it has settled
            todo = todo[moved[todo] > 0]
            if not todo.size:
                break
        sol = _solve_distinct(feeder, base.p[t[todo]] + granted[todo], t[todo], base)
        if it:
            for kept, new in zip(rows, sol):
                kept[todo] = new
        else:  # every lane, in arrays of its own: no view of base.solution
            rows = sol
        u[todo] = np.abs(sol.v[:, feeder.compiled.house_pos]) / feeder.base_voltage_v
        todo = todo[env.fixed_point[todo] & clamped[todo] & np.isnan(sol.collapse_pu)]
        if it:
            todo = todo[moved[todo] >= FIXED_POINT_TOL_KW]
        if not todo.size:
            break
    return _Rows(granted=granted, solution=rows, v_house=u, v_clamp=v_clamp,
                 fallback=np.isin(np.arange(len(t)), todo))  # still moving at the iteration cap


def _simulate_lanes(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    lanes: list[Lane],
    judge: IncidentLimits,
) -> list[LaneDay | Exception]:
    """Simulate many independent days together, one step of all at a time.

    Each lane walks the circular day from its own session-free step, so
    wrapped sessions are visited arrival-first, and ``_step`` grants and
    solves every step of all lanes, each lane as if alone.

    A lane that cannot start (``ValueError``, from ``_start``) or whose power
    flow collapses ends as that exception; the other lanes carry on. No lane records its
    trace: each keeps only what ``LaneDay`` lists, with ``judge`` folding in
    each step's limit crossings and the two extrema as it is solved, and
    its uncontrolled energy summed beside its delivered energy.

    Lanes with a ``search`` key are its candidates in candidate order.
    A step that ends with an incident or a collapse in one of them stops the
    later lanes of that search, which lie past a certain failure, as
    ``_Stopped``. A lane that cannot start stops no other lane.
    """
    steps, comp = STEPS_PER_DAY, feeder.compiled
    out, started, baseline, rows = _start(feeder, profiles, lanes)
    if not started:
        return out
    count, n_house = len(started), len(comp.household_ids)
    baseline_q = baseline * BASELINE_Q_PER_KW
    base = SimpleNamespace(p=baseline, q=baseline_q, weights=np.sqrt(np.arange(2.0, n_house + 2.0)))
    base.key = np.arange(steps) + 1j * np.einsum("ij,j->i", baseline, base.weights)
    base.solution = _solve_lanes(feeder, baseline, baseline_q)

    rows.v_house = np.ones((count, n_house))  # the voltages the next clamp reads, pu
    keys: dict = {None: -1}  # search key -> id; rows run in lane order
    rows.search = np.array([keys.setdefault(lanes[j].search, len(keys) - 1) for j, _ in started])
    keep = rows.controlled & (rows.search < 0)
    rows.kept = np.where(keep, keep.cumsum() - 1, -1)  # the lane's row of the kept arrays
    clamp_voltage = np.ones((np.count_nonzero(keep), steps, n_house))
    fallback = np.zeros((count, steps), dtype=bool)  # the step's fixed point hit its cap
    incidents: list[list[Incident]] = [[] for _ in range(count)]
    low_voltage, max_slack_kva = np.full(count, np.inf), np.full(count, -np.inf)

    def fail(r: int, exc: Exception) -> None:
        alive[r] = False
        out[started[rows.row[r]][0]] = exc

    for k in range(steps):
        t = (rows.start + k) % steps
        step = _step(feeder, base, t, *_demand(rows, t, rows.delivered), rows.v_house, rows)
        sol, rows.v_house = step.solution, step.v_house
        alive = np.ones(len(t), dtype=bool)
        for r in np.flatnonzero(~np.isnan(sol.collapse_pu)):  # each lane its own error
            fail(r, _collapse_error(sol, r, int(t[r])))
        rows.delivered += step.granted * STEP_HOURS
        rows.uncontrolled += _demand(rows, t, rows.uncontrolled)[1] * STEP_HOURS
        live = np.flatnonzero(alive)
        lane_rows, t_live = rows.row[live], t[live]
        fallback[lane_rows, t_live] = step.fallback[live]
        held = live[rows.kept[live] >= 0]
        clamp_voltage[rows.kept[held], t[held]] = step.v_clamp[held]
        voltage, current, slack_p, slack_q = _flows(feeder, sol.v[live], sol.i[live])
        kva = np.hypot(slack_p, slack_q)
        found = crossings(
            judge, comp.node_ids, comp.branch_labels, t_live[:, np.newaxis],
            voltage[:, np.newaxis], current[:, np.newaxis], kva[:, np.newaxis],
            sol.converged[live, np.newaxis], sol.residual_pu[live, np.newaxis],
        )
        for r, crossed in zip(lane_rows, found):
            incidents[r].extend(crossed)
        low_voltage[lane_rows] = np.minimum(low_voltage[lane_rows], voltage.min(axis=1))
        max_slack_kva[lane_rows] = np.maximum(max_slack_kva[lane_rows], kva)
        if len(keys) > 1:  # a search's first incident or collapse this step stops later lanes
            hit = ~alive
            hit[live] = [bool(crossed) for crossed in found]
            first = np.full(len(keys), count)  # id -1 holds the unkeyed lanes: no stop
            np.minimum.at(first, rows.search[hit], rows.row[hit])
            first[-1] = count
            for r in np.flatnonzero(alive & (rows.row > first[rows.search])):
                fail(r, _Stopped("lane stopped past an earlier failure of its search"))
        if not alive.all():
            rows = rows.take(alive)
            if not len(rows.row):
                break

    for r, lane in enumerate(rows.row):  # the lanes that ran their whole day
        j, ordered = started[lane]
        ev = rows.duration[r] > 0
        day = LaneDay(
            lanes[j], ordered, rows.delivered[r, ev], rows.uncontrolled[r, ev],
            int(fallback[lane].sum()), sorted(incidents[lane], key=lambda inc: inc.step),
            float(low_voltage[lane]), float(max_slack_kva[lane]),
        )
        if rows.kept[r] >= 0:
            day.clamp_voltage_pu = clamp_voltage[rows.kept[r]]
            day.fallback = fallback[lane]
        out[j] = day
    return out


def _replay(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    lane: Lane,
    day: LaneDay | None = None,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """The day of ``lane``, rebuilt with no fixed point: each step replays
    desired -> clamp at the voltages the kernel's last clamp read (kept in
    the controlled lane's kernel ``day``) -> grants, and the final rows of
    all steps are solved in one call. A row's solution depends on that row
    alone and the envelope is elementwise, so this is the kernel's trace,
    bit for bit. An uncontrolled lane needs no ``day`` and is granted its
    desired power; it raises the first collapse of its day in the lane's
    walk order, from its quiet step, as the kernel would."""
    steps, comp, controlled = STEPS_PER_DAY, feeder.compiled, lane.params is not None
    out, started, baseline, rows = _start(feeder, profiles, [lane])
    _raised(out[0])
    _raised(day)
    shape = (steps, len(comp.household_ids))
    granted, desired = np.zeros(shape), np.zeros(shape)
    floor, cap = np.full(shape, np.nan), np.full(shape, np.nan)
    zone = np.full(shape, ZONE_NONE, dtype=np.int8)
    order = (rows.start[0] + np.arange(steps)) % steps
    for t in order[:, np.newaxis]:
        connected, wanted = _demand(rows, t, rows.delivered)
        ev_kw = wanted
        if controlled:
            ev_kw, (floor[t], cap[t], zone[t]) = _apply_envelope(
                wanted, connected, day.clamp_voltage_pu[t], rows.p_max, rows
            )
        granted[t], desired[t] = ev_kw, wanted
        rows.delivered += ev_kw * STEP_HOURS
    sol = _solve_lanes(feeder, baseline + granted, baseline * BASELINE_Q_PER_KW)
    collapsed = order[~np.isnan(sol.collapse_pu[order])]
    if collapsed.size:
        raise _collapse_error(sol, collapsed[0], int(collapsed[0]))

    ev, sessions = rows.duration[0] > 0, started[0][1]
    trace = SimulationTrace(
        step_count=steps,
        step_hours=STEP_HOURS,
        node_ids=comp.node_ids,
        branch_labels=comp.branch_labels,
        household_ids=tuple(s.household for s in sessions),
        **_flows(feeder, sol.v, sol.i)._asdict(),
        converged=sol.converged,
        iterations=sol.iterations,
        residual_pu=sol.residual_pu,
        ev_power_kw=granted[:, ev],
        ev_desired_kw=desired[:, ev],
        envelope_floor_kw=floor[:, ev],
        envelope_cap_kw=cap[:, ev],
        envelope_zone=zone[:, ev],
        delivered_kwh=rows.delivered[0, ev],
        control_active=controlled,
        fixed_point_fallback=day.fallback if controlled else np.zeros(steps, dtype=bool),
    )
    trace.validate()
    trajectories = [
        ChargingTrajectory(s, trace.ev_power_kw[:, i].copy(), float(trace.delivered_kwh[i]))
        for i, s in enumerate(sessions)
    ]
    return trajectories, trace


def _apply_envelope(
    desired: np.ndarray,
    connected: np.ndarray,
    v_house: np.ndarray,
    p_max: np.ndarray,
    params,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Granted power of every connected EV and its envelope (floor, cap,
    zone) at ``v_house``; NaN and ZONE_NONE where no EV is connected."""
    floor, cap, zone = _envelope(v_house, p_max, params)
    ev_kw = np.where(connected, np.minimum(desired, cap), 0.0)  # min(floor, desired) never binds
    return ev_kw, (
        np.where(connected, floor, np.nan),
        np.where(connected, cap, np.nan),
        np.where(connected, zone, ZONE_NONE),
    )


def _solve_distinct(feeder, p_kw, t, base) -> LaneSolution:
    """``_solve_lanes`` of injection rows ``p_kw`` at steps ``t``, solving each
    distinct ``(t, p_kw)`` row once: rows keyed alike by ``base.weights`` are
    shared only when equal exactly, and a baseline row reads ``base.solution``.
    A solution depends on its row alone, so it is each lane's own to the bit."""
    key = t + 1j * np.einsum("ij,j->i", p_kw, base.weights)
    order = key.argsort()
    head = np.ones(len(t), dtype=bool)
    np.not_equal(key[order[1:]], key[order[:-1]], out=head[1:])
    first = order[head]  # a row of each key
    at_idle = key[first] == base.key[t[first]]
    if head.all() and not at_idle.any():
        return _solve_lanes(feeder, p_kw, base.q[t])
    group = (head.cumsum() - 1)[order.argsort()]  # each row's key, counted in key order
    alone = np.flatnonzero((p_kw[first[group]] != p_kw).any(axis=1))  # a weighting clash
    group[alone] = len(first) + np.arange(len(alone))
    first = np.concatenate((first, alone))
    at_idle = (p_kw[first] == base.p[t[first]]).all(axis=1)
    solve, known = first[~at_idle], base.solution
    source = np.where(at_idle, t[first], (~at_idle).cumsum() + (len(base.p) - 1))[group]
    if solve.size:
        sol = _solve_lanes(feeder, p_kw[solve], base.q[t[solve]])
        known = LaneSolution(*(np.concatenate(pair) for pair in zip(known, sol)))
    return LaneSolution(*(a[source] for a in known))


def export_envelope_csv(trace: SimulationTrace, feeder: FeederModel) -> str:
    """Per (step, EV) envelope record: local voltage, zone, bounds, powers."""
    comp = feeder.compiled
    vu = [comp.household_voltage[comp.household_slot[h]] for h in trace.household_ids]
    zone = [[ZONE_LABELS[z] for z in step] for step in trace.envelope_zone.tolist()]
    # a NaN bound (no EV connected or no control) is an empty cell
    floor, cap = (np.where(np.isnan(a), None, a).tolist()
                  for a in (trace.envelope_floor_kw, trace.envelope_cap_kw))
    steps = zip(trace.voltage_pu[:, vu].tolist(), zone, floor, cap, trace.ev_desired_kw.tolist(),
                trace.ev_power_kw.tolist())
    return csv_table(
        ("step", "household", "u_pu", "zone", "floor_kw", "cap_kw", "desired_kw", "granted_kw"),
        ((t, *cells) for t, step in enumerate(steps) for cells in zip(trace.household_ids, *step)),
    )

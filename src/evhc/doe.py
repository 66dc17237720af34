"""Dynamic operating envelopes and the network-aware charging simulation.

The envelope gives every EV, at every step, an admissible charging-power
interval derived from its own node voltage: full rated charging above the
permissible-band boundary (green), a fixed floor at or below the minimum
voltage threshold (red), and a linear ramp between the two (yellow). The
charger then draws the admissible power closest to what it wants.

Note on the ramp direction: the interpolation denominator is written as
((1 - delta_perm) - u_min), making the power cap increase with voltage so
that the green zone allows full power and the red zone the floor. The
mirrored denominator sign sometimes seen for this rule produces a ramp that
decreases with voltage, contradicting the zone semantics; it is deliberately
not used here.

This module also contains the day-long quasi-static simulation for both
regimes: ``network_aware_horizon`` (envelope active, voltage fed back) and
``passive_horizon`` (uncontrolled charging, same bookkeeping). Both walk the
circular day starting from a session-free step so wrapped sessions are
visited arrival-first. Both are the one-lane case of ``_simulate_lanes``,
which steps many days ("lanes") through the day together.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from math import acos, tan
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ev import ChargingTrajectory, EvSession, quiet_step
from .feeder import BaselineLoadProfile, FeederModel
from .incidents import Incident, IncidentLimits, crossings
from .powerflow import DEFAULT_BASELINE_POWER_FACTOR, PowerFlowOptions, _solve_lanes
from .trace import (
    STEP_HOURS,
    STEPS_PER_DAY,
    ZONE_GREEN,
    ZONE_LABELS,
    ZONE_NONE,
    ZONE_RED,
    ZONE_YELLOW,
    Extrema,
    SimulationTrace,
    TraceSummary,
    fmt,
)

FIXED_POINT_TOL_KW = 0.01
FIXED_POINT_MAX_ITER = 20

VOLTAGE_SOURCES = ("fixed_point", "previous_step")


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


def floor_power(p_max_kw: float, params: DoeParams) -> float:
    """Envelope floor: the red-zone charging power."""
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be > 0")
    return params.factor * p_max_kw


def envelope_bound(u_t: float, p_max_kw: float, params: DoeParams) -> EnvelopeBound:
    """Power interval admitted at local voltage ``u_t`` (per-unit)."""
    if u_t <= 0:
        raise ValueError("voltage must be > 0 pu")
    floor_power(p_max_kw, params)  # rejects p_max_kw <= 0
    floor, cap, zone = _envelope(np.float64(u_t), np.float64(p_max_kw), params)
    return EnvelopeBound(float(floor), float(cap), ZONE_LABELS[int(zone)], params.degenerate)


def clamp_to_envelope(p_desired_kw: float, bound: EnvelopeBound) -> float:
    """Admissible power closest to the desired one.

    The effective lower edge is min(floor, desired): an EV that needs less
    than the floor to finish its charge is never forced to draw more.
    """
    if p_desired_kw < 0:
        raise ValueError("desired power must be >= 0")
    return float(_clamp(np.float64(p_desired_kw), bound.floor_kw, bound.cap_kw))


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


def _clamp(desired: np.ndarray, floor: np.ndarray, cap: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(desired, np.minimum(floor, desired)), cap)


def baseline_matrix(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    steps: int = STEPS_PER_DAY,
) -> np.ndarray:
    """Baseline demand as a (steps, households) array in feeder order."""
    by_household = {p.household: p for p in profiles}
    missing = [h for h in feeder.household_ids if h not in by_household]
    if missing:
        raise ValueError(f"baseline profiles missing households: {missing}")
    mat = np.zeros((steps, len(feeder.household_ids)))
    for j, h in enumerate(feeder.household_ids):
        series = by_household[h].power_kw
        if len(series) != steps:
            raise ValueError(f"profile {h} has {len(series)} steps, expected {steps}")
        mat[:, j] = series
    return mat


def _sessions_in_feeder_order(
    feeder: FeederModel, sessions: list[EvSession]
) -> list[EvSession]:
    """Sessions sorted into feeder household order.

    At most one session per household; households without a session simply
    have no EV that day (used by the EV-count penetration sweep).
    """
    by_household = {s.household: s for s in sessions}
    if len(by_household) != len(sessions):
        raise ValueError("duplicate household in session list")
    extra = [h for h in by_household if h not in feeder.compiled.household_slot]
    if extra:
        raise ValueError(f"sessions reference unknown households: {extra}")
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
    """A simulated lane. A recorded lane carries its ``trace``; a judged lane
    carries its ``incidents`` (ordered by step) and trace ``summary``."""

    sessions: list[EvSession]    # the lane's sessions in feeder order
    delivered_kwh: np.ndarray    # per session, summed arrival first
    fallback_steps: int
    trace: SimulationTrace | None = None
    incidents: list[Incident] | None = None
    summary: TraceSummary | None = None


def network_aware_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
    params: DoeParams,
    pf_options: PowerFlowOptions = PowerFlowOptions(),
    baseline_power_factor: float = DEFAULT_BASELINE_POWER_FACTOR,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """Simulate one day of envelope-controlled charging."""
    lane = Lane(sessions, hc_power, params)
    return _one_day(feeder, profiles, lane, pf_options, baseline_power_factor)


def passive_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
    pf_options: PowerFlowOptions = PowerFlowOptions(),
    baseline_power_factor: float = DEFAULT_BASELINE_POWER_FACTOR,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """Simulate one day of uncontrolled charging (no envelopes)."""
    return _one_day(feeder, profiles, Lane(sessions, hc_power), pf_options, baseline_power_factor)


def _one_day(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    lane: Lane,
    pf_options: PowerFlowOptions,
    baseline_power_factor: float,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    day = _raised(_simulate_lanes(feeder, profiles, [lane], pf_options, baseline_power_factor)[0])
    trajectories = [
        ChargingTrajectory(s, day.trace.ev_power_kw[:, i].copy(), float(day.delivered_kwh[i]))
        for i, s in enumerate(day.sessions)
    ]
    return trajectories, day.trace


def _raised(outcome):
    """``outcome`` itself, unless it is the exception that ended a lane or a
    search: then that exception is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _Rows(SimpleNamespace):
    """Per-lane arrays of the lanes still running, one row per lane; the
    envelope parameters are (lanes, 1) columns named as in ``DoeParams``."""

    def keep(self, mask: np.ndarray) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def _simulate_lanes(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    lanes: list[Lane],
    pf_options: PowerFlowOptions = PowerFlowOptions(),
    baseline_power_factor: float = DEFAULT_BASELINE_POWER_FACTOR,
    judge: IncidentLimits | None = None,
) -> list[LaneDay | Exception]:
    """Simulate many independent days together, one step of all at a time.

    Each lane walks the circular day from its own session-free step, so
    wrapped sessions are visited arrival-first. A step clamps every
    controlled lane's EVs to their envelopes and solves all lanes in one
    batched power flow; a fixed-point lane repeats bound -> clamp -> solve
    until its EV powers move less than ``FIXED_POINT_TOL_KW`` (or the
    iteration cap, a fallback) while its batch-mates wait. Each lane does
    the arithmetic of a day simulated alone.

    A lane that cannot start (``ValueError``) or whose power flow collapses
    ends as that exception; the other lanes carry on. With ``judge``, lanes
    keep no whole-day arrays: each step's limit crossings and extrema are
    folded in as it is solved. Without it, every lane records its trace.

    Judged lanes with a ``search`` key are its candidates in candidate order.
    A step that ends with an incident or a collapse in one of them stops the
    later lanes of that search, which lie past a certain failure, as
    ``_Stopped``. A ``ValueError`` stops no other lane.
    """
    steps = STEPS_PER_DAY
    comp = feeder.compiled
    labels = tuple(f"{b.from_node}->{b.to_node}" for b in feeder.branches)
    n_house, n_node, n_branch = len(comp.household_ids), len(comp.node_ids), len(labels)
    out: list[LaneDay | Exception | None] = [None] * len(lanes)
    try:
        baseline, baseline_error = baseline_matrix(feeder, profiles, steps), None
    except ValueError as exc:
        baseline, baseline_error = None, exc

    started = []  # (lane index, sessions in feeder order, first step)
    for j, lane in enumerate(lanes):
        try:
            if lane.hc_power <= 0:
                raise ValueError("hc_power must be > 0")
            ordered = _sessions_in_feeder_order(feeder, lane.sessions)
            if baseline_error is not None:
                raise baseline_error
            started.append((j, ordered, quiet_step(ordered)))
        except ValueError as exc:
            out[j] = exc
    if not started:
        return out
    baseline_q = baseline * tan(acos(baseline_power_factor))

    # EVs are indexed by household slot; a household without a session has
    # an EV that is never connected
    count = len(started)
    rows = _Rows(
        row=np.arange(count),
        start=np.array([first for _, _, first in started]),
        arrival=np.zeros((count, n_house), dtype=int),
        duration=np.zeros((count, n_house), dtype=int),
        requested=np.zeros((count, n_house)),
        p_max=np.array([[lanes[j].hc_power] * n_house for j, _, _ in started], dtype=float),
        delivered=np.zeros((count, n_house)),
        v_house=np.ones((count, n_house)),  # previous-step voltages, pu
    )
    present = np.zeros((count, n_house), dtype=bool)
    for r, (j, ordered, _) in enumerate(started):
        for s in ordered:
            h = comp.household_slot[s.household]
            rows.arrival[r, h] = s.arrival_step
            rows.duration[r, h] = s.duration_steps
            rows.requested[r, h] = s.requested_kwh
            rows.p_max[r, h] = min(lanes[j].hc_power, s.rated_kw)
            present[r, h] = True
    params = [lanes[j].params for j, _, _ in started]
    shapes = [p or DoeParams() for p in params]  # uncontrolled lanes never use theirs
    rows.controlled = np.array([p is not None for p in params])
    rows.fixed_point = np.array(
        [p is not None and p.voltage_source == "fixed_point" for p in params]
    )
    for name in ("factor", "u_min", "green_threshold", "degenerate"):
        setattr(rows, name, np.array([[getattr(p, name)] for p in shapes]))
    keys: dict = {None: -1}  # search key -> id; rows run in lane order
    if judge is not None and any(lane.search is not None for lane in lanes):
        ids = [keys.setdefault(lanes[j].search, len(keys) - 1) for j, _, _ in started]
        rows.search = np.array(ids)

    fallback_steps = np.zeros(count, dtype=int)
    delivered = np.zeros((count, n_house))
    if judge is None:
        record = SimpleNamespace(
            voltage=np.zeros((count, steps, n_node)),
            current=np.zeros((count, steps, n_branch)),
            slack_p=np.zeros((count, steps)),
            slack_q=np.zeros((count, steps)),
            converged=np.zeros((count, steps), dtype=bool),
            iterations=np.zeros((count, steps), dtype=int),
            residual=np.zeros((count, steps)),
            granted=np.zeros((count, steps, n_house)),
            desired=np.zeros((count, steps, n_house)),
            floor=np.full((count, steps, n_house), np.nan),
            cap=np.full((count, steps, n_house), np.nan),
            zone=np.full((count, steps, n_house), ZONE_NONE, dtype=np.int8),
            fallback=np.zeros((count, steps), dtype=bool),
        )
    else:
        extrema = Extrema(count, n_node, n_branch)
        incidents: list[list[Incident]] = [[] for _ in range(count)]

    def fail(r: int, exc: Exception) -> None:
        alive[r] = False
        out[started[rows.row[r]][0]] = exc

    for k in range(steps):
        n = len(rows.row)
        t = (rows.start + k) % steps
        connected = (t[:, np.newaxis] - rows.arrival) % steps < rows.duration
        # an EV charges as fast as allowed until its request is met
        desired = np.where(
            connected, np.minimum(rows.p_max, (rows.requested - rows.delivered) / STEP_HOURS), 0.0
        )
        controlled = rows.controlled & connected.any(axis=1)
        alive = np.ones(n, dtype=bool)
        for r in np.flatnonzero(controlled & (desired < 0).any(axis=1)):
            fail(r, ValueError("desired power must be >= 0"))

        ev_kw = desired.copy()
        floor = np.full((n, n_house), np.nan)
        cap = np.full((n, n_house), np.nan)
        zone = np.full((n, n_house), ZONE_NONE, dtype=np.int8)
        voltage = np.zeros((n, n_node))
        current = np.zeros((n, n_branch))
        slack_p, slack_q, residual = np.zeros(n), np.zeros(n), np.zeros(n)
        converged = np.zeros(n, dtype=bool)
        iterations = np.zeros(n, dtype=int)
        todo = np.flatnonzero(alive)
        for it in range(FIXED_POINT_MAX_ITER):
            clamp = todo[controlled[todo]]
            if clamp.size:
                kw, envelope = _apply_envelope(desired, connected, rows.v_house, rows.p_max, rows)
                ev_kw[clamp] = kw[clamp]
                floor[clamp], cap[clamp], zone[clamp] = (e[clamp] for e in envelope)
            p_kw = baseline[t[todo]] + ev_kw[todo]
            negative = (p_kw < 0).any(axis=1)
            for r in todo[negative]:
                fail(r, ValueError("active injections must be >= 0 (loads only)"))
            solved = todo[~negative]
            sol = _solve_lanes(
                feeder, p_kw[~negative], baseline_q[t[solved]], pf_options, t[solved].tolist()
            )
            if any(sol.collapse):
                for r, exc in zip(solved, sol.collapse):
                    if exc is not None:
                        fail(r, exc)
            voltage[solved], current[solved] = sol.voltage_pu, sol.branch_current_a
            slack_p[solved], slack_q[solved] = sol.slack_p_kw, sol.slack_q_kvar
            converged[solved], iterations[solved] = sol.converged, sol.iterations
            residual[solved] = sol.residual_pu
            rows.v_house[solved] = sol.voltage_pu[:, comp.household_voltage]
            iterating = solved[rows.fixed_point[solved] & controlled[solved] & alive[solved]]
            if it:
                moved = np.max(np.abs(ev_kw[iterating] - previous[iterating]), axis=1)
                iterating = iterating[moved >= FIXED_POINT_TOL_KW]
            previous = ev_kw.copy()
            todo = iterating
            if not todo.size:
                break
        fallback = np.zeros(n, dtype=bool)
        fallback[todo] = True  # still moving at the iteration cap
        rows.delivered += ev_kw * STEP_HOURS

        live = np.flatnonzero(alive)
        lane_rows, t_live = rows.row[live], t[live]
        if judge is None:
            for name, value in (
                ("voltage", voltage), ("current", current), ("slack_p", slack_p),
                ("slack_q", slack_q), ("converged", converged), ("iterations", iterations),
                ("residual", residual), ("granted", ev_kw), ("desired", desired),
                ("floor", floor), ("cap", cap), ("zone", zone), ("fallback", fallback),
            ):
                getattr(record, name)[lane_rows, t_live] = value[live]
        else:
            block = (
                t_live[:, np.newaxis],
                voltage[live, np.newaxis],
                current[live, np.newaxis],
                np.hypot(slack_p, slack_q)[live, np.newaxis],
                converged[live, np.newaxis],
            )
            found = crossings(judge, comp.node_ids, labels, *block, residual[live, np.newaxis])
            for r, crossed in zip(lane_rows, found):
                incidents[r].extend(crossed)
            extrema.add(lane_rows, *block)
        fallback_steps[lane_rows] += fallback[live]
        if len(keys) > 1:  # a search's first incident or collapse this step stops later lanes
            hit, ended = np.zeros(n, dtype=bool), np.flatnonzero(~alive)
            hit[live] = [bool(crossed) for crossed in found]
            hit[ended] = [not isinstance(out[started[i][0]], ValueError) for i in rows.row[ended]]
            first = np.full(len(keys), count)  # id -1 holds the unkeyed lanes: no stop
            np.minimum.at(first, rows.search[hit], rows.row[hit])
            first[-1] = count
            for r in np.flatnonzero(alive & (rows.row > first[rows.search])):
                fail(r, _Stopped("lane stopped past an earlier failure of its search"))
        if not alive.all():
            rows.keep(alive)
            if not len(rows.row):
                break
    delivered[rows.row] = rows.delivered

    for r, (j, ordered, _) in enumerate(started):
        if out[j] is not None:
            continue
        ev = present[r]
        day = LaneDay(ordered, delivered[r, ev], int(fallback_steps[r]))
        if judge is None:
            day.trace = SimulationTrace(
                step_count=steps,
                step_hours=STEP_HOURS,
                node_ids=comp.node_ids,
                branch_labels=labels,
                household_ids=tuple(s.household for s in ordered),
                voltage_pu=record.voltage[r],
                branch_current_a=record.current[r],
                slack_p_kw=record.slack_p[r],
                slack_q_kvar=record.slack_q[r],
                converged=record.converged[r],
                iterations=record.iterations[r],
                residual_pu=record.residual[r],
                ev_power_kw=record.granted[r][:, ev],
                ev_desired_kw=record.desired[r][:, ev],
                envelope_floor_kw=record.floor[r][:, ev],
                envelope_cap_kw=record.cap[r][:, ev],
                envelope_zone=record.zone[r][:, ev],
                delivered_kwh=day.delivered_kwh,
                control_active=lanes[j].params is not None,
                fixed_point_fallback=record.fallback[r],
            )
            day.trace.validate()
        else:
            day.incidents = sorted(incidents[r], key=lambda inc: inc.step)
            day.summary = extrema.summary(r, comp.node_ids, comp.ampacity_a, day.delivered_kwh)
        out[j] = day
    return out


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
    ev_kw = np.where(connected, _clamp(desired, floor, cap), 0.0)
    return ev_kw, (
        np.where(connected, floor, np.nan),
        np.where(connected, cap, np.nan),
        np.where(connected, zone, ZONE_NONE),
    )


def export_envelope_csv(trace: SimulationTrace, feeder: FeederModel) -> str:
    """Per (step, EV) envelope record: local voltage, zone, bounds, powers."""
    comp = feeder.compiled
    vu = [comp.household_voltage[comp.household_slot[h]] for h in trace.household_ids]
    lines = ["step,household,u_pu,zone,floor_kw,cap_kw,desired_kw,granted_kw"]
    for t in range(trace.step_count):
        for e, household in enumerate(trace.household_ids):
            u = trace.voltage_pu[t, vu[e]]
            zone = ZONE_LABELS[int(trace.envelope_zone[t, e])]
            floor = trace.envelope_floor_kw[t, e]
            cap = trace.envelope_cap_kw[t, e]
            lines.append(
                f"{t},{household},{fmt(u)},{zone},"
                f"{'' if np.isnan(floor) else fmt(floor)},"
                f"{'' if np.isnan(cap) else fmt(cap)},"
                f"{fmt(trace.ev_desired_kw[t, e])},{fmt(trace.ev_power_kw[t, e])}"
            )
    return "\n".join(lines) + "\n"

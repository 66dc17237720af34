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
visited arrival-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, tan

import numpy as np

from .ev import ChargingTrajectory, EvSession, quiet_step
from .feeder import BaselineLoadProfile, FeederModel
from .powerflow import (
    DEFAULT_BASELINE_POWER_FACTOR,
    InjectionSet,
    PowerFlowOptions,
    PowerFlowSolution,
    solve,
)
from .trace import (
    STEP_HOURS,
    STEPS_PER_DAY,
    ZONE_GREEN,
    ZONE_LABELS,
    ZONE_NONE,
    ZONE_RED,
    ZONE_YELLOW,
    SimulationTrace,
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


def _envelope(u: np.ndarray, p_max: np.ndarray, params: DoeParams) -> tuple[np.ndarray, ...]:
    """Floor, cap and zone code of the envelope at voltages ``u``, elementwise."""
    floor = params.factor * p_max
    if params.degenerate:
        # no yellow band left: step function at u_min
        green = u >= params.u_min
        return floor, np.where(green, p_max, floor), np.where(green, ZONE_GREEN, ZONE_RED)
    red = u <= params.u_min
    green = u >= params.green_threshold
    ramp = (p_max - floor) * (u - params.u_min) / (params.green_threshold - params.u_min)
    cap = np.minimum(np.maximum(floor + ramp, floor), p_max)
    cap = np.where(red, floor, np.where(green, p_max, cap))
    zone = np.where(red, ZONE_RED, np.where(green, ZONE_GREEN, ZONE_YELLOW))
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
    return _simulate_horizon(
        feeder, profiles, sessions, hc_power, params, pf_options, baseline_power_factor
    )


def passive_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
    pf_options: PowerFlowOptions = PowerFlowOptions(),
    baseline_power_factor: float = DEFAULT_BASELINE_POWER_FACTOR,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    """Simulate one day of uncontrolled charging (no envelopes)."""
    return _simulate_horizon(
        feeder, profiles, sessions, hc_power, None, pf_options, baseline_power_factor
    )


def _simulate_horizon(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    sessions: list[EvSession],
    hc_power: float,
    params: DoeParams | None,
    pf_options: PowerFlowOptions,
    baseline_power_factor: float,
) -> tuple[list[ChargingTrajectory], SimulationTrace]:
    if hc_power <= 0:
        raise ValueError("hc_power must be > 0")
    steps = STEPS_PER_DAY
    ordered = _sessions_in_feeder_order(feeder, sessions)
    baseline = baseline_matrix(feeder, profiles, steps)
    baseline_q = baseline * tan(acos(baseline_power_factor))
    comp = feeder.compiled
    ev_households = tuple(s.household for s in ordered)
    ev_house = np.array([comp.household_slot[h] for h in ev_households], dtype=int)
    house_idx = comp.household_voltage[ev_house]  # EV -> voltage index
    n_ev = len(ordered)
    arrival = np.array([s.arrival_step for s in ordered], dtype=int)
    duration = np.array([s.duration_steps for s in ordered], dtype=int)
    requested = np.array([s.requested_kwh for s in ordered])
    p_max = np.array([min(hc_power, s.rated_kw) for s in ordered])

    voltage = np.zeros((steps, len(comp.node_ids)))
    current = np.zeros((steps, len(feeder.branches)))
    slack_p = np.zeros(steps)
    slack_q = np.zeros(steps)
    converged = np.zeros(steps, dtype=bool)
    iterations = np.zeros(steps, dtype=int)
    residual = np.zeros(steps)
    granted = np.zeros((steps, n_ev))
    desired_rec = np.zeros((steps, n_ev))
    env_floor = np.full((steps, n_ev), np.nan)
    env_cap = np.full((steps, n_ev), np.nan)
    env_zone = np.full((steps, n_ev), ZONE_NONE, dtype=np.int8)
    fallback = np.zeros(steps, dtype=bool)
    delivered = np.zeros(n_ev)

    start = quiet_step(ordered)
    v_house = np.ones(n_ev)  # warm start / previous-step voltages, pu

    def _solve_step(t: int, ev_kw: np.ndarray) -> PowerFlowSolution:
        per_household = np.zeros(len(comp.household_ids))
        per_household[ev_house] = ev_kw
        inj = InjectionSet(comp.household_ids, baseline[t] + per_household, baseline_q[t])
        return solve(feeder, inj, pf_options, _step=t)

    for k in range(steps):
        t = (start + k) % steps
        connected = (t - arrival) % steps < duration
        # an EV charges as fast as allowed until its request is met
        desired = np.where(connected, np.minimum(p_max, (requested - delivered) / STEP_HOURS), 0.0)
        desired_rec[t] = desired

        if params is None or not connected.any():
            ev_kw = desired
            sol = _solve_step(t, ev_kw)
        elif params.voltage_source == "previous_step":
            ev_kw, envelope = _apply_envelope(desired, connected, v_house, p_max, params)
            sol = _solve_step(t, ev_kw)
            env_floor[t], env_cap[t], env_zone[t] = envelope
        else:
            ev_kw, sol, ok, envelope = _fixed_point_step(
                desired, connected, v_house, p_max, params, _solve_step, house_idx, t
            )
            fallback[t] = not ok
            env_floor[t], env_cap[t], env_zone[t] = envelope

        v_house = sol.voltage_pu[house_idx]
        granted[t] = ev_kw
        delivered += ev_kw * STEP_HOURS
        voltage[t] = sol.voltage_pu
        current[t] = sol.branch_current_a
        slack_p[t] = sol.slack_p_kw
        slack_q[t] = sol.slack_q_kvar
        converged[t] = sol.converged
        iterations[t] = sol.iterations
        residual[t] = sol.residual_pu

    # the day starts on a quiet step, so each running total was summed in
    # session order, arrival first
    trajectories = [
        ChargingTrajectory(s, granted[:, i].copy(), float(delivered[i]))
        for i, s in enumerate(ordered)
    ]

    trace = SimulationTrace(
        step_count=steps,
        step_hours=STEP_HOURS,
        node_ids=feeder.node_ids,
        branch_labels=tuple(f"{b.from_node}->{b.to_node}" for b in feeder.branches),
        household_ids=ev_households,
        voltage_pu=voltage,
        branch_current_a=current,
        slack_p_kw=slack_p,
        slack_q_kvar=slack_q,
        converged=converged,
        iterations=iterations,
        residual_pu=residual,
        ev_power_kw=granted,
        ev_desired_kw=desired_rec,
        envelope_floor_kw=env_floor,
        envelope_cap_kw=env_cap,
        envelope_zone=env_zone,
        delivered_kwh=delivered,
        control_active=params is not None,
        fixed_point_fallback=fallback,
    )
    trace.validate()
    return trajectories, trace


def _apply_envelope(
    desired: np.ndarray,
    connected: np.ndarray,
    v_house: np.ndarray,
    p_max: np.ndarray,
    params: DoeParams,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Granted power of every connected EV and its envelope (floor, cap,
    zone) at ``v_house``; NaN and ZONE_NONE where no EV is connected."""
    if np.any(desired < 0):
        raise ValueError("desired power must be >= 0")
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


def _fixed_point_step(
    desired: np.ndarray,
    connected: np.ndarray,
    v_start: np.ndarray,
    p_max: np.ndarray,
    params: DoeParams,
    solve_step,
    house_idx: np.ndarray,
    t: int,
) -> tuple[np.ndarray, PowerFlowSolution, bool, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Iterate bound -> clamp -> solve until EV powers stop moving."""
    house_voltage = v_start
    previous = None
    for _ in range(FIXED_POINT_MAX_ITER):
        ev_kw, envelope = _apply_envelope(desired, connected, house_voltage, p_max, params)
        sol = solve_step(t, ev_kw)
        house_voltage = sol.voltage_pu[house_idx]
        if previous is not None and np.max(np.abs(ev_kw - previous)) < FIXED_POINT_TOL_KW:
            return ev_kw, sol, True, envelope
        previous = ev_kw
    return ev_kw, sol, False, envelope

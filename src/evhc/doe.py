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

import numpy as np

from .ev import ChargingTrajectory, EvSession, charging_power, quiet_step
from .feeder import BaselineLoadProfile, FeederModel
from .powerflow import (
    DEFAULT_BASELINE_POWER_FACTOR,
    PowerFlowOptions,
    PowerFlowSolution,
    household_voltage_index,
    injections_from_loads,
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
    p_min = floor_power(p_max_kw, params)
    if params.degenerate:
        # no yellow band left: step function at u_min
        if u_t >= params.u_min:
            return EnvelopeBound(p_min, p_max_kw, "green", degenerate=True)
        return EnvelopeBound(p_min, p_min, "red", degenerate=True)
    if u_t <= params.u_min:
        return EnvelopeBound(p_min, p_min, "red")
    if u_t >= params.green_threshold:
        return EnvelopeBound(p_min, p_max_kw, "green")
    ramp = (p_max_kw - p_min) * (u_t - params.u_min) / (params.green_threshold - params.u_min)
    cap = min(max(p_min + ramp, p_min), p_max_kw)
    return EnvelopeBound(p_min, cap, "yellow")


def clamp_to_envelope(p_desired_kw: float, bound: EnvelopeBound) -> float:
    """Admissible power closest to the desired one.

    The effective lower edge is min(floor, desired): an EV that needs less
    than the floor to finish its charge is never forced to draw more.
    """
    if p_desired_kw < 0:
        raise ValueError("desired power must be >= 0")
    lo = min(bound.floor_kw, p_desired_kw)
    return min(max(p_desired_kw, lo), bound.cap_kw)


_ZONE_CODE = {"green": ZONE_GREEN, "yellow": ZONE_YELLOW, "red": ZONE_RED}


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
    extra = [h for h in by_household if h not in feeder.household_ids]
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
    ev_households = tuple(s.household for s in ordered)
    house_slot = {h: j for j, h in enumerate(feeder.household_ids)}
    ev_house = np.array([house_slot[h] for h in ev_households], dtype=int)
    house_idx = household_voltage_index(feeder)[ev_house]  # EV -> voltage index
    n_ev = len(ordered)
    n_house = len(feeder.household_ids)
    n_nodes = len(feeder.node_ids)
    n_branches = len(feeder.branches)
    p_max = np.array([min(hc_power, s.rated_kw) for s in ordered])

    voltage = np.zeros((steps, n_nodes))
    current = np.zeros((steps, n_branches))
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
        per_household = np.zeros(n_house)
        per_household[ev_house] = ev_kw
        inj = injections_from_loads(
            feeder.household_ids, baseline[t], per_household, baseline_power_factor
        )
        return solve(feeder, inj, pf_options, _step=t)

    for k in range(steps):
        t = (start + k) % steps
        connected = np.array([s.is_connected(t) for s in ordered], dtype=bool)
        desired = np.zeros(n_ev)
        for i in np.flatnonzero(connected):
            desired[i] = charging_power(p_max[i], ordered[i].requested_kwh - delivered[i])
        desired_rec[t] = desired

        if params is None or not connected.any():
            ev_kw = desired.copy()
            sol = _solve_step(t, ev_kw)
        elif params.voltage_source == "previous_step":
            ev_kw, bounds = _apply_envelope(desired, connected, v_house, p_max, params)
            sol = _solve_step(t, ev_kw)
            _record_bounds(t, bounds, env_floor, env_cap, env_zone)
        else:
            ev_kw, sol, ok, bounds = _fixed_point_step(
                desired, connected, v_house, p_max, params, _solve_step, house_idx, t
            )
            fallback[t] = not ok
            _record_bounds(t, bounds, env_floor, env_cap, env_zone)

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

    trajectories = []
    for i, s in enumerate(ordered):
        cumulative = np.zeros(steps)
        running = 0.0
        for t in s.window_steps():
            running += granted[t, i] * STEP_HOURS
            cumulative[t] = running
        trajectories.append(
            ChargingTrajectory(
                session=s,
                power_kw=granted[:, i].copy(),
                cumulative_kwh=cumulative,
                delivered_kwh=running,
            )
        )
    # re-derive delivered in session order so trajectory and trace agree bitwise
    delivered = np.array([traj.delivered_kwh for traj in trajectories])

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
) -> tuple[np.ndarray, dict[int, EnvelopeBound]]:
    ev_kw = np.zeros_like(desired)
    bounds: dict[int, EnvelopeBound] = {}
    for i in np.flatnonzero(connected):
        bound = envelope_bound(float(v_house[i]), float(p_max[i]), params)
        bounds[i] = bound
        ev_kw[i] = clamp_to_envelope(float(desired[i]), bound)
    return ev_kw, bounds


def export_envelope_csv(trace: SimulationTrace, feeder: FeederModel) -> str:
    """Per (step, EV) envelope record: local voltage, zone, bounds, powers."""
    idx = {h: j for j, h in enumerate(feeder.household_ids)}
    vu = household_voltage_index(feeder)
    lines = ["step,household,u_pu,zone,floor_kw,cap_kw,desired_kw,granted_kw"]
    for t in range(trace.step_count):
        for e, household in enumerate(trace.household_ids):
            u = trace.voltage_pu[t, vu[idx[household]]]
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


def _record_bounds(
    t: int,
    bounds: dict[int, EnvelopeBound],
    env_floor: np.ndarray,
    env_cap: np.ndarray,
    env_zone: np.ndarray,
) -> None:
    for i, bound in bounds.items():
        env_floor[t, i] = bound.floor_kw
        env_cap[t, i] = bound.cap_kw
        env_zone[t, i] = _ZONE_CODE[bound.zone]


def _fixed_point_step(
    desired: np.ndarray,
    connected: np.ndarray,
    v_start: np.ndarray,
    p_max: np.ndarray,
    params: DoeParams,
    solve_step,
    house_idx: np.ndarray,
    t: int,
) -> tuple[np.ndarray, PowerFlowSolution, bool, dict[int, EnvelopeBound]]:
    """Iterate bound -> clamp -> solve until EV powers stop moving."""
    house_voltage = v_start
    previous = None
    sol = None
    bounds: dict[int, EnvelopeBound] = {}
    ev_kw = np.zeros_like(desired)
    for _ in range(FIXED_POINT_MAX_ITER):
        ev_kw, bounds = _apply_envelope(desired, connected, house_voltage, p_max, params)
        sol = solve_step(t, ev_kw)
        house_voltage = sol.voltage_pu[house_idx]
        if previous is not None and np.max(np.abs(ev_kw - previous)) < FIXED_POINT_TOL_KW:
            return ev_kw, sol, True, bounds
        previous = ev_kw
    return ev_kw, sol, False, bounds

"""The one-day loop the lane kernel replaced, kept as the reference.

Every function here is the sequential form of a batched one: a scalar
backward/forward-sweep solve, one day stepped one solve at a time with the
envelope fixed point iterated per step, per-step incident detection and the
whole-trace summary. The lane kernel must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from evhc.doe import FIXED_POINT_MAX_ITER, FIXED_POINT_TOL_KW, baseline_matrix
from evhc.ev import ChargingTrajectory, quiet_step
from evhc.incidents import (
    KIND_BRANCH_THERMAL,
    KIND_DIAGNOSTIC,
    KIND_OVERVOLTAGE,
    KIND_TRANSFORMER_OVERLOAD,
    KIND_UNDERVOLTAGE,
    Incident,
)
from evhc.powerflow import (
    BASELINE_Q_PER_KW,
    COLLAPSE_FLOOR_PU,
    MAX_ITERATIONS,
    TOLERANCE_PU,
    PowerFlowSolution,
    VoltageCollapseError,
)
from evhc.trace import (
    STEP_HOURS,
    STEPS_PER_DAY,
    ZONE_GREEN,
    ZONE_NONE,
    ZONE_RED,
    ZONE_YELLOW,
    SimulationTrace,
    TraceSummary,
)


def scalar_solve(feeder, p_kw, q_kvar, step=None):
    """One step, one sweep at a time."""
    comp = feeder.compiled
    v_base = feeder.base_voltage_v
    m = comp.impedance.shape[0]
    s_node = np.zeros(m, dtype=complex)
    np.add.at(s_node, comp.house_pos, (p_kw + 1j * q_kvar) * (1000.0 / 3.0))
    v0 = complex(v_base, 0.0)
    v = np.full(m, v0, dtype=complex)
    converged = m == 0
    iterations = 0
    residual = 0.0 if m == 0 else np.inf
    i_node = np.zeros(m, dtype=complex)
    for it in range(1, (MAX_ITERATIONS if m else 0) + 1):
        i_node = np.conj(s_node / v)
        v_new = v0 - comp.impedance @ i_node
        residual = float(np.max(np.abs(v_new - v))) / v_base
        v = v_new
        iterations = it
        low = float(np.min(np.abs(v))) / v_base
        if low < COLLAPSE_FLOOR_PU:
            raise VoltageCollapseError(low, it, step=step)
        if residual <= TOLERANCE_PU:
            converged = True
            break
    i_branch = comp.branch_path @ i_node
    s_slack_phase = v0 * np.conj(np.sum(i_node))
    voltage_pu = np.ones(len(comp.node_ids))
    voltage_pu[comp.voltage_slot] = np.abs(v) / v_base
    return PowerFlowSolution(
        node_ids=comp.node_ids,
        voltage_pu=voltage_pu,
        branch_current_a=np.abs(i_branch)[comp.branch_of_child],
        slack_p_kw=3.0 * s_slack_phase.real / 1000.0,
        slack_q_kvar=3.0 * s_slack_phase.imag / 1000.0,
        converged=converged,
        iterations=iterations,
        residual_pu=residual,
    )


def _envelope(u, p_max, params):
    floor = params.factor * p_max
    if params.degenerate:
        green = u >= params.u_min
        return floor, np.where(green, p_max, floor), np.where(green, ZONE_GREEN, ZONE_RED)
    red = u <= params.u_min
    green = u >= params.green_threshold
    ramp = (p_max - floor) * (u - params.u_min) / (params.green_threshold - params.u_min)
    cap = np.minimum(np.maximum(floor + ramp, floor), p_max)
    cap = np.where(red, floor, np.where(green, p_max, cap))
    zone = np.where(red, ZONE_RED, np.where(green, ZONE_GREEN, ZONE_YELLOW))
    return floor, cap, zone


def _apply_envelope(desired, connected, v_house, p_max, params):
    floor, cap, zone = _envelope(v_house, p_max, params)
    clamped = np.minimum(np.maximum(desired, np.minimum(floor, desired)), cap)
    ev_kw = np.where(connected, clamped, 0.0)
    return ev_kw, (
        np.where(connected, floor, np.nan),
        np.where(connected, cap, np.nan),
        np.where(connected, zone, ZONE_NONE),
    )


def reference_day(feeder, profiles, sessions, hc_power, params=None):
    """(trajectories, trace) of one day; ``params`` None is uncontrolled."""
    steps = STEPS_PER_DAY
    comp = feeder.compiled
    ordered = [s for h in feeder.household_ids for s in sessions if s.household == h]
    baseline = baseline_matrix(feeder, profiles)
    baseline_q = baseline * BASELINE_Q_PER_KW
    ev_house = np.array([comp.household_slot[s.household] for s in ordered], dtype=int)
    house_idx = comp.household_voltage[ev_house]
    n_ev = len(ordered)
    arrival = np.array([s.arrival_step for s in ordered], dtype=int)
    duration = np.array([s.duration_steps for s in ordered], dtype=int)
    requested = np.array([s.requested_kwh for s in ordered])
    p_max = np.array([min(hc_power, s.rated_kw) for s in ordered])

    voltage = np.zeros((steps, len(comp.node_ids)))
    current = np.zeros((steps, len(feeder.branches)))
    slack_p, slack_q, residual = np.zeros(steps), np.zeros(steps), np.zeros(steps)
    converged = np.zeros(steps, dtype=bool)
    iterations = np.zeros(steps, dtype=int)
    granted = np.zeros((steps, n_ev))
    desired_rec = np.zeros((steps, n_ev))
    env_floor = np.full((steps, n_ev), np.nan)
    env_cap = np.full((steps, n_ev), np.nan)
    env_zone = np.full((steps, n_ev), ZONE_NONE, dtype=np.int8)
    fallback = np.zeros(steps, dtype=bool)
    delivered = np.zeros(n_ev)
    start = quiet_step(ordered)
    v_house = np.ones(n_ev)

    def solve_step(t, ev_kw):
        per_household = np.zeros(len(comp.household_ids))
        per_household[ev_house] = ev_kw
        return scalar_solve(feeder, baseline[t] + per_household, baseline_q[t], t)

    for k in range(steps):
        t = (start + k) % steps
        connected = (t - arrival) % steps < duration
        left = np.maximum(requested - delivered, 0.0)
        desired = np.where(connected, np.minimum(p_max, left / STEP_HOURS), 0.0)
        desired_rec[t] = desired
        if params is None or not connected.any():
            ev_kw = desired
            sol = solve_step(t, ev_kw)
        elif params.voltage_source == "previous_step":
            ev_kw, envelope = _apply_envelope(desired, connected, v_house, p_max, params)
            sol = solve_step(t, ev_kw)
            env_floor[t], env_cap[t], env_zone[t] = envelope
        else:
            house_voltage, previous, ok = v_house, None, False
            for _ in range(FIXED_POINT_MAX_ITER):
                ev_kw, envelope = _apply_envelope(desired, connected, house_voltage, p_max, params)
                sol = solve_step(t, ev_kw)
                house_voltage = sol.voltage_pu[house_idx]
                if previous is not None and np.max(np.abs(ev_kw - previous)) < FIXED_POINT_TOL_KW:
                    ok = True
                    break
                previous = ev_kw
            fallback[t] = not ok
            env_floor[t], env_cap[t], env_zone[t] = envelope
        v_house = sol.voltage_pu[house_idx]
        granted[t] = ev_kw
        delivered += ev_kw * STEP_HOURS
        voltage[t] = sol.voltage_pu
        current[t] = sol.branch_current_a
        slack_p[t], slack_q[t] = sol.slack_p_kw, sol.slack_q_kvar
        converged[t], iterations[t], residual[t] = sol.converged, sol.iterations, sol.residual_pu

    trajectories = [
        ChargingTrajectory(s, granted[:, i].copy(), float(delivered[i]))
        for i, s in enumerate(ordered)
    ]
    trace = SimulationTrace(
        step_count=steps,
        step_hours=STEP_HOURS,
        node_ids=feeder.node_ids,
        branch_labels=tuple(f"{b.from_node}->{b.to_node}" for b in feeder.branches),
        household_ids=tuple(s.household for s in ordered),
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
    return trajectories, trace


def reference_detect(trace, limits):
    """Limit crossings found one step at a time."""
    found = []
    ampacity = np.asarray(limits.branch_ampacity_a, dtype=float)
    slack_kva = trace.slack_kva
    for t in range(trace.step_count):
        if not trace.converged[t]:
            found.append(Incident(KIND_DIAGNOSTIC, t, "power-flow", float(trace.residual_pu[t])))
        v = trace.voltage_pu[t]
        for n in np.flatnonzero(v < limits.v_lower_pu):
            found.append(
                Incident(KIND_UNDERVOLTAGE, t, trace.node_ids[n], float(limits.v_lower_pu - v[n]))
            )
        for n in np.flatnonzero(v > limits.v_upper_pu):
            found.append(
                Incident(KIND_OVERVOLTAGE, t, trace.node_ids[n], float(v[n] - limits.v_upper_pu))
            )
        i = trace.branch_current_a[t]
        for b in np.flatnonzero(i > ampacity):
            found.append(
                Incident(
                    KIND_BRANCH_THERMAL, t, trace.branch_labels[b],
                    float((i[b] / ampacity[b] - 1.0) * 100.0),
                )
            )
        if slack_kva[t] > limits.transformer_kva:
            found.append(
                Incident(
                    KIND_TRANSFORMER_OVERLOAD, t, "transformer",
                    float((slack_kva[t] / limits.transformer_kva - 1.0) * 100.0),
                )
            )
    return found


def reference_summarize(trace, branch_ampacity_a=None):
    """Extrema of the whole recorded day."""
    max_i = trace.branch_current_a.max(axis=0)
    if branch_ampacity_a is None:
        loading = np.full_like(max_i, np.nan)
    else:
        loading = max_i / np.asarray(branch_ampacity_a, dtype=float)
    step, node = divmod(int(np.argmin(trace.voltage_pu)), len(trace.node_ids))
    return TraceSummary(
        min_voltage_pu=trace.voltage_pu.min(axis=0),
        max_voltage_pu=trace.voltage_pu.max(axis=0),
        max_branch_current_a=max_i,
        max_branch_loading=loading,
        max_slack_kva=float(trace.slack_kva.max()),
        ev_energy_kwh=trace.delivered_kwh.copy(),
        all_converged=bool(trace.converged.all()),
        overall_min_voltage_pu=float(trace.voltage_pu.min()),
        overall_min_voltage_node=trace.node_ids[node],
        overall_min_voltage_step=step,
    )

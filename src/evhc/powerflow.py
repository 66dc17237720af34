"""Radial power-flow solver for one quasi-static time step.

The solver is the current-summation backward/forward sweep written in its
compact matrix form. For a radial network the two sweeps collapse to one
fixed-point iteration

    I = conj(S / V)          (backward: load currents at present voltages)
    V = V0 - M @ I           (forward: slack voltage minus path voltage drops)

where M[i, j] is the impedance shared by the slack paths of nodes i and j.
Loads are constant power. Voltages are phase quantities per-unit on the
feeder base voltage; currents are per-phase amperes; household power is
divided over the three phases of the balanced equivalent. The iteration
runs on many independent steps ("lanes") at once; ``solve`` is one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, tan
from typing import NamedTuple

import numpy as np

from .feeder import FeederModel

# Fixed modelling constants: LV feeders at 15-minute resolution.
TOLERANCE_PU = 1e-8       # a lane converges when no node voltage moves more between sweeps
MAX_ITERATIONS = 50       # sweeps before a lane is reported unconverged
COLLAPSE_FLOOR_PU = 0.5   # a node magnitude below this is a voltage collapse

DEFAULT_BASELINE_POWER_FACTOR = 0.95
BASELINE_Q_PER_KW = tan(acos(DEFAULT_BASELINE_POWER_FACTOR))  # kvar per kW of baseline demand


class VoltageCollapseError(RuntimeError):
    """Any node magnitude fell below the collapse floor during iteration."""

    def __init__(self, min_voltage_pu: float, iteration: int, step: int | None = None):
        self.min_voltage_pu = min_voltage_pu
        self.iteration = iteration
        self.step = step
        at_step = f" at step {step}" if step is not None else ""
        super().__init__(
            f"voltage collapse{at_step}: |V| reached {min_voltage_pu:.3f} pu "
            f"in iteration {iteration}"
        )


@dataclass
class InjectionSet:
    """Per-household power draw for one step (baseline plus EV charging).

    Active power must be non-negative: the model covers loads only.
    Reactive power defaults to zero.
    """

    households: tuple[str, ...]
    p_kw: np.ndarray
    q_kvar: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.p_kw = np.asarray(self.p_kw, dtype=float)
        if self.q_kvar is None:
            self.q_kvar = np.zeros_like(self.p_kw)
        self.q_kvar = np.asarray(self.q_kvar, dtype=float)
        if self.p_kw.shape != (len(self.households),) or self.q_kvar.shape != (
            len(self.households),
        ):
            raise ValueError("injection arrays must have one entry per household")
        if np.any(self.p_kw < 0):
            raise ValueError("active injections must be >= 0 (loads only)")


def injections_from_loads(
    households: tuple[str, ...],
    baseline_kw: np.ndarray,
    ev_kw: np.ndarray,
) -> InjectionSet:
    """Combine baseline demand (at a fixed lagging power factor) with EV
    charging (unity power factor) into one injection set."""
    baseline_kw = np.asarray(baseline_kw, dtype=float)
    ev_kw = np.asarray(ev_kw, dtype=float)
    q = baseline_kw * BASELINE_Q_PER_KW
    return InjectionSet(households=households, p_kw=baseline_kw + ev_kw, q_kvar=q)


@dataclass
class PowerFlowSolution:
    """Solved state of the feeder for one step.

    Attributes:
        node_ids: node order for ``voltage_pu`` (same as the feeder).
        voltage_pu: voltage magnitude per node, slack pinned at 1.0.
        branch_current_a: per-phase current magnitude per branch, in the
            feeder's branch order.
        slack_p_kw / slack_q_kvar: three-phase power supplied at the slack.
        converged: False when the sweep hit the iteration cap.
        iterations: sweeps performed.
        residual_pu: last max per-node voltage change between sweeps.
    """

    node_ids: tuple[str, ...]
    voltage_pu: np.ndarray
    branch_current_a: np.ndarray
    slack_p_kw: float
    slack_q_kvar: float
    converged: bool
    iterations: int
    residual_pu: float

    @property
    def slack_kva(self) -> float:
        return float(np.hypot(self.slack_p_kw, self.slack_q_kvar))

    def voltage_of(self, node_id: str) -> float:
        return float(self.voltage_pu[self.node_ids.index(node_id)])


def solve(
    feeder: FeederModel,
    injections: InjectionSet,
    *,
    _step: int | None = None,
) -> PowerFlowSolution:
    """Solve one step. Non-convergence is reported in the solution, voltage
    collapse below the floor raises ``VoltageCollapseError``."""
    comp = feeder.compiled
    if injections.households != comp.household_ids:
        raise ValueError("injections must cover the feeder households in order")
    sol = _solve_lanes(
        feeder, injections.p_kw[np.newaxis], injections.q_kvar[np.newaxis], [_step]
    )
    if sol.collapse[0] is not None:
        raise sol.collapse[0]
    return PowerFlowSolution(
        node_ids=comp.node_ids,
        voltage_pu=sol.voltage_pu[0],
        branch_current_a=sol.branch_current_a[0],
        slack_p_kw=float(sol.slack_p_kw[0]),
        slack_q_kvar=float(sol.slack_q_kvar[0]),
        converged=bool(sol.converged[0]),
        iterations=int(sol.iterations[0]),
        residual_pu=float(sol.residual_pu[0]),
    )


class LaneSolution(NamedTuple):
    """Solved states of many independent steps ("lanes"), one row per lane.

    ``collapse[l]`` is the ``VoltageCollapseError`` of a lane that collapsed
    (its other rows are then meaningless), else None.
    """

    voltage_pu: np.ndarray        # (L, N)
    branch_current_a: np.ndarray  # (L, B)
    slack_p_kw: np.ndarray        # (L,)
    slack_q_kvar: np.ndarray      # (L,)
    converged: np.ndarray         # (L,) bool
    iterations: np.ndarray        # (L,) int
    residual_pu: np.ndarray       # (L,)
    collapse: list[VoltageCollapseError | None]


def _solve_lanes(
    feeder: FeederModel,
    p_kw: np.ndarray,
    q_kvar: np.ndarray,
    steps,
) -> LaneSolution:
    """Solve (lanes, households) injections, each lane on its own.

    A lane leaves the sweep when it converges or collapses, so every lane
    does exactly the arithmetic of a one-lane solve: the stacked matvecs
    ``matmul(Z, I[..., None])`` round like ``Z @ i`` for each lane, which
    ``I @ Z.T`` does not. ``steps`` (one per lane, or None) only labels
    collapse errors.
    """
    comp = feeder.compiled
    v_base = feeder.base_voltage_v
    lanes, m = len(p_kw), comp.impedance.shape[0]

    # per-phase complex power per node, VA
    s_node = np.zeros((lanes, m), dtype=complex)
    np.add.at(s_node, (slice(None), comp.house_pos), (p_kw + 1j * q_kvar) * (1000.0 / 3.0))

    v0 = complex(v_base, 0.0)
    v_out = np.full((lanes, m), v0, dtype=complex)
    i_out = np.zeros((lanes, m), dtype=complex)
    converged = np.full(lanes, m == 0)
    iterations = np.zeros(lanes, dtype=int)
    residual = np.full(lanes, 0.0 if m == 0 else np.inf)
    collapse: list[VoltageCollapseError | None] = [None] * lanes
    # the lanes still iterating, and their working arrays
    active, s_act, v = np.arange(lanes), s_node, v_out
    for it in range(1, (MAX_ITERATIONS if m else 0) + 1):
        i_act = (s_act / v).conj()
        v_new = v0 - np.matmul(comp.impedance, i_act[:, :, np.newaxis])[:, :, 0]
        res = np.abs(v_new - v).max(axis=1) / v_base
        v = v_new
        low = np.abs(v).min(axis=1) / v_base
        collapsed = low < COLLAPSE_FLOOR_PU
        done = collapsed | (res <= TOLERANCE_PU)
        last = it == MAX_ITERATIONS
        if last or np.count_nonzero(done):
            leave = done | last
            lane = active[leave]
            v_out[lane], i_out[lane] = v[leave], i_act[leave]
            residual[lane], iterations[lane] = res[leave], it
            converged[active[done & ~collapsed]] = True
            for k in np.flatnonzero(collapsed):
                collapse[active[k]] = VoltageCollapseError(float(low[k]), it, step=steps[active[k]])
            stay = ~leave
            active, s_act, v = active[stay], s_act[stay], v[stay]
            if not active.size:
                break

    i_branch = np.matmul(comp.branch_path, i_out[:, :, np.newaxis])[:, :, 0]
    s_slack_phase = v0 * np.conj(np.sum(i_out, axis=1))
    voltage_pu = np.ones((lanes, len(comp.node_ids)))
    voltage_pu[:, comp.voltage_slot] = np.abs(v_out) / v_base
    return LaneSolution(
        voltage_pu=voltage_pu,
        branch_current_a=np.abs(i_branch)[:, comp.branch_of_child],
        slack_p_kw=3.0 * s_slack_phase.real / 1000.0,
        slack_q_kvar=3.0 * s_slack_phase.imag / 1000.0,
        converged=converged,
        iterations=iterations,
        residual_pu=residual,
        collapse=collapse,
    )


"""Per-run simulation trace and derived summaries.

One SimulationTrace holds everything a day-long quasi-static run produced:
solved network state per step, per-EV granted charging power, and (for
network-aware runs) the envelope that was applied. Incident detection and
QoS accounting both read from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEPS_PER_DAY = 96
STEP_HOURS = 0.25

ZONE_NONE = -1
ZONE_GREEN = 0
ZONE_YELLOW = 1
ZONE_RED = 2
ZONE_LABELS = {ZONE_NONE: "-", ZONE_GREEN: "green", ZONE_YELLOW: "yellow", ZONE_RED: "red"}


@dataclass
class SimulationTrace:
    """Stacked per-step records of one simulation run.

    Arrays are indexed [step] or [step, entity]. Envelope fields hold NaN
    (zone: ZONE_NONE) where no EV is connected or no control is active.
    """

    step_count: int
    step_hours: float
    node_ids: tuple[str, ...]
    branch_labels: tuple[str, ...]
    household_ids: tuple[str, ...]
    voltage_pu: np.ndarray          # (S, N)
    branch_current_a: np.ndarray    # (S, B)
    slack_p_kw: np.ndarray          # (S,)
    slack_q_kvar: np.ndarray        # (S,)
    converged: np.ndarray           # (S,) bool
    iterations: np.ndarray          # (S,) int
    residual_pu: np.ndarray         # (S,)
    ev_power_kw: np.ndarray         # (S, E) granted charging power
    ev_desired_kw: np.ndarray       # (S, E)
    envelope_floor_kw: np.ndarray   # (S, E)
    envelope_cap_kw: np.ndarray     # (S, E)
    envelope_zone: np.ndarray       # (S, E) int8 zone codes
    delivered_kwh: np.ndarray       # (E,) final energy per EV
    control_active: bool
    fixed_point_fallback: np.ndarray  # (S,) bool, fixed point hit its cap

    @property
    def slack_kva(self) -> np.ndarray:
        return np.hypot(self.slack_p_kw, self.slack_q_kvar)

    def validate(self) -> None:
        s, n = self.step_count, len(self.node_ids)
        b, e = len(self.branch_labels), len(self.household_ids)
        expect = {
            "voltage_pu": (s, n),
            "branch_current_a": (s, b),
            "slack_p_kw": (s,),
            "slack_q_kvar": (s,),
            "converged": (s,),
            "iterations": (s,),
            "residual_pu": (s,),
            "ev_power_kw": (s, e),
            "ev_desired_kw": (s, e),
            "envelope_floor_kw": (s, e),
            "envelope_cap_kw": (s, e),
            "envelope_zone": (s, e),
            "fixed_point_fallback": (s,),
            "delivered_kwh": (e,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"trace field {name} has shape {got}, expected {shape}")
        if np.any(np.isnan(self.ev_power_kw)):
            raise ValueError("granted EV power must be recorded at every (step, EV)")


@dataclass(frozen=True)
class TraceSummary:
    """Extrema and totals of one trace; what sweeps keep instead of traces."""

    min_voltage_pu: np.ndarray       # (N,)
    max_voltage_pu: np.ndarray       # (N,)
    max_branch_current_a: np.ndarray  # (B,)
    max_branch_loading: np.ndarray   # (B,) fraction of ampacity
    max_slack_kva: float
    ev_energy_kwh: np.ndarray        # (E,)
    all_converged: bool
    overall_min_voltage_pu: float
    overall_min_voltage_node: str
    overall_min_voltage_step: int


def summarize(trace: SimulationTrace, branch_ampacity_a: np.ndarray | None = None) -> TraceSummary:
    """Reduce a trace to per-element extrema and per-EV energy totals."""
    extrema = Extrema(1, len(trace.node_ids), len(trace.branch_labels))
    extrema.add(
        np.zeros(1, dtype=int),
        np.arange(trace.step_count)[np.newaxis],
        trace.voltage_pu[np.newaxis],
        trace.branch_current_a[np.newaxis],
        trace.slack_kva[np.newaxis],
        trace.converged[np.newaxis],
    )
    return extrema.summary(0, trace.node_ids, branch_ampacity_a, trace.delivered_kwh)


class Extrema:
    """Running extrema of many lanes' solved steps, folded block by block:
    what ``summarize`` keeps of a trace, without keeping the trace. The
    overall minimum voltage goes to the earliest step on a tie, whatever
    order the steps arrive in."""

    def __init__(self, lanes: int, n_nodes: int, n_branches: int):
        self.min_voltage = np.full((lanes, n_nodes), np.inf)
        self.max_voltage = np.full((lanes, n_nodes), -np.inf)
        self.max_current = np.full((lanes, n_branches), -np.inf)
        self.max_slack_kva = np.full(lanes, -np.inf)
        self.all_converged = np.ones(lanes, dtype=bool)
        self.low_voltage = np.full(lanes, np.inf)
        self.low_node = np.zeros(lanes, dtype=int)
        self.low_step = np.zeros(lanes, dtype=int)

    def add(
        self,
        lanes: np.ndarray,
        steps: np.ndarray,
        voltage_pu: np.ndarray,
        branch_current_a: np.ndarray,
        slack_kva: np.ndarray,
        converged: np.ndarray,
    ) -> None:
        """Fold in a block: row r belongs to lane ``lanes[r]`` and its arrays
        are indexed [r, k] or [r, k, element], ``steps[r, k]`` the step."""
        self.min_voltage[lanes] = np.minimum(self.min_voltage[lanes], voltage_pu.min(axis=1))
        self.max_voltage[lanes] = np.maximum(self.max_voltage[lanes], voltage_pu.max(axis=1))
        self.max_current[lanes] = np.maximum(
            self.max_current[lanes], branch_current_a.max(axis=1)
        )
        self.max_slack_kva[lanes] = np.maximum(self.max_slack_kva[lanes], slack_kva.max(axis=1))
        self.all_converged[lanes] &= converged.all(axis=1)
        rows = np.arange(len(lanes))
        flat = voltage_pu.reshape(len(lanes), -1)
        at = flat.argmin(axis=1)  # first in [k, node] order
        low = flat[rows, at]
        k, node = np.divmod(at, voltage_pu.shape[2])
        step = steps[rows, k]
        held = self.low_voltage[lanes]
        better = (low < held) | ((low == held) & (step < self.low_step[lanes]))
        won = lanes[better]
        self.low_voltage[won] = low[better]
        self.low_node[won] = node[better]
        self.low_step[won] = step[better]

    def summary(
        self,
        lane: int,
        node_ids: tuple[str, ...],
        branch_ampacity_a: np.ndarray | None,
        delivered_kwh: np.ndarray,
    ) -> TraceSummary:
        max_i = self.max_current[lane]
        if branch_ampacity_a is None:
            loading = np.full_like(max_i, np.nan)
        else:
            loading = max_i / np.asarray(branch_ampacity_a, dtype=float)
        return TraceSummary(
            min_voltage_pu=self.min_voltage[lane],
            max_voltage_pu=self.max_voltage[lane],
            max_branch_current_a=max_i,
            max_branch_loading=loading,
            max_slack_kva=float(self.max_slack_kva[lane]),
            ev_energy_kwh=delivered_kwh.copy(),
            all_converged=bool(self.all_converged[lane]),
            overall_min_voltage_pu=float(self.low_voltage[lane]),
            overall_min_voltage_node=node_ids[self.low_node[lane]],
            overall_min_voltage_step=int(self.low_step[lane]),
        )


def fmt(x: float | None) -> str:
    """The number format of every result table; None is an empty cell."""
    return "" if x is None else format(float(x), ".10g")

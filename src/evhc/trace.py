"""Per-run simulation trace and derived summaries.

One SimulationTrace holds everything a day-long quasi-static run produced:
solved network state per step, per-EV granted charging power, and (for
network-aware runs) the envelope that was applied. Incident detection and
QoS accounting both read from here.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from types import SimpleNamespace

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
    """Extrema and totals of one trace."""

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
    """Reduce a trace to per-element extrema and per-EV energy totals. The
    overall minimum voltage goes to the earliest step on a tie."""
    max_i = trace.branch_current_a.max(axis=0)
    if branch_ampacity_a is None:
        loading = np.full_like(max_i, np.nan)
    else:
        loading = max_i / np.asarray(branch_ampacity_a, dtype=float)
    step, node = divmod(int(np.argmin(trace.voltage_pu)), len(trace.node_ids))  # [step, node] order
    return TraceSummary(
        min_voltage_pu=trace.voltage_pu.min(axis=0),
        max_voltage_pu=trace.voltage_pu.max(axis=0),
        max_branch_current_a=max_i,
        max_branch_loading=loading,
        max_slack_kva=float(trace.slack_kva.max()),
        ev_energy_kwh=trace.delivered_kwh.copy(),
        all_converged=bool(trace.converged.all()),
        overall_min_voltage_pu=float(trace.voltage_pu[step, node]),
        overall_min_voltage_node=trace.node_ids[node],
        overall_min_voltage_step=step,
    )


def fmt(x: float | None) -> str:
    """The number format of every result table; None is an empty cell."""
    return "" if x is None else format(float(x), ".10g")


def csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The writer of every result table: a float cell goes through ``fmt``,
    None is an empty cell, a cell is quoted only when it holds a comma, a
    double quote, a line feed or a carriage return, and rows end in a line
    feed."""
    lines: list[str] = []
    # the writer quotes only the characters of its terminator, so it writes "\r\n" rows
    out = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    out.writerow(header)
    out.writerows([fmt(x) if isinstance(x, float) else x for x in row] for row in rows)
    return "".join(line[:-2] + "\n" for line in lines)

"""Distribution-network incident detection over a simulation trace.

An incident is any per-step limit crossing: node voltage outside the
permitted band, branch current above ampacity, or transformer apparent
power above rating. Steps where the power flow failed to converge are
reported as incidents of kind "diagnostic" so capacity searches terminate
cleanly under extreme load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import FeederModel
from .trace import SimulationTrace, csv_table

KIND_UNDERVOLTAGE = "undervoltage"
KIND_OVERVOLTAGE = "overvoltage"
KIND_BRANCH_THERMAL = "branch_thermal"
KIND_TRANSFORMER_OVERLOAD = "transformer_overload"
KIND_DIAGNOSTIC = "diagnostic"


@dataclass(frozen=True)
class IncidentLimits:
    """Operating limits checked against a trace.

    Voltage limits are per-unit; ampacities (feeder branch order) and the
    transformer rating come from the feeder model.
    """

    v_lower_pu: float
    v_upper_pu: float
    branch_ampacity_a: tuple[float, ...] | np.ndarray
    transformer_kva: float

    def __post_init__(self) -> None:
        if not 0.0 < self.v_lower_pu < 1.0 < self.v_upper_pu:
            raise ValueError("voltage limits must straddle 1.0 pu, the lower one above 0")

    @classmethod
    def from_feeder(
        cls, feeder: FeederModel, v_lower_pu: float = 0.9, v_upper_pu: float = 1.1
    ) -> "IncidentLimits":
        return cls(
            v_lower_pu=v_lower_pu,
            v_upper_pu=v_upper_pu,
            branch_ampacity_a=feeder.compiled.ampacity_a,
            transformer_kva=feeder.transformer_kva,
        )


@dataclass(frozen=True)
class Incident:
    """One limit crossing.

    ``magnitude`` is the pu deviation past the limit for voltage incidents
    and the percent overload for thermal and transformer incidents; for
    diagnostic incidents it is the unconverged residual.
    """

    kind: str
    step: int
    element: str
    magnitude: float


def detect(trace: SimulationTrace, limits: IncidentLimits) -> list[Incident]:
    """All limit crossings in the trace, ordered by step then element.

    Pure function: identical inputs give identical output lists. An empty
    list means the network ran the whole day without an incident.
    """
    if len(limits.branch_ampacity_a) != len(trace.branch_labels):
        raise ValueError("limits do not match the trace branch set")
    return crossings(
        limits,
        trace.node_ids,
        trace.branch_labels,
        np.arange(trace.step_count)[np.newaxis],
        trace.voltage_pu[np.newaxis],
        trace.branch_current_a[np.newaxis],
        trace.slack_kva[np.newaxis],
        trace.converged[np.newaxis],
        trace.residual_pu[np.newaxis],
    )[0]


def crossings(
    limits: IncidentLimits,
    node_ids: tuple[str, ...],
    branch_labels: tuple[str, ...],
    steps: np.ndarray,
    voltage_pu: np.ndarray,
    branch_current_a: np.ndarray,
    slack_kva: np.ndarray,
    converged: np.ndarray,
    residual_pu: np.ndarray,
) -> list[list[Incident]]:
    """The limit crossings of a block of solved steps, one list per lane.

    Arrays are indexed [lane, k] or [lane, k, element], and ``steps[lane, k]``
    is the step that row solved. Each lane's list runs in block order, and
    within a row by kind (diagnostic, under-, overvoltage, thermal,
    transformer), then element.
    """
    ampacity = np.asarray(limits.branch_ampacity_a, dtype=float)
    lane, k = np.nonzero(~converged)
    found = [(lane, k, np.zeros_like(k), KIND_DIAGNOSTIC, ("power-flow",), residual_pu[lane, k])]
    lane, k, n = np.nonzero(voltage_pu < limits.v_lower_pu)
    deficit = limits.v_lower_pu - voltage_pu[lane, k, n]
    found.append((lane, k, n, KIND_UNDERVOLTAGE, node_ids, deficit))
    lane, k, n = np.nonzero(voltage_pu > limits.v_upper_pu)
    excess = voltage_pu[lane, k, n] - limits.v_upper_pu
    found.append((lane, k, n, KIND_OVERVOLTAGE, node_ids, excess))
    lane, k, b = np.nonzero(branch_current_a > ampacity)
    load = (branch_current_a[lane, k, b] / ampacity[b] - 1.0) * 100.0
    found.append((lane, k, b, KIND_BRANCH_THERMAL, branch_labels, load))
    lane, k = np.nonzero(slack_kva > limits.transformer_kva)
    load = (slack_kva[lane, k] / limits.transformer_kva - 1.0) * 100.0
    found.append((lane, k, np.zeros_like(k), KIND_TRANSFORMER_OVERLOAD, ("transformer",), load))

    rows = [
        (lane_at, k_at, kind, names[e], magnitude)
        for lane, k, element, kind, names, mag in found
        for lane_at, k_at, e, magnitude in zip(
            lane.tolist(), k.tolist(), element.tolist(), mag.tolist()
        )
    ]
    rows.sort(key=lambda r: r[:2])  # stable, so a row's kinds keep their order
    lanes: list[list[Incident]] = [[] for _ in range(len(steps))]
    for lane, k, kind, element, magnitude in rows:
        lanes[lane].append(Incident(kind, int(steps[lane, k]), element, magnitude))
    return lanes


def export_incidents_csv(incidents: list[Incident]) -> str:
    return csv_table(("step", "kind", "element", "magnitude"),
                     ((inc.step, inc.kind, inc.element, inc.magnitude) for inc in incidents))

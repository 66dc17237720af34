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
from .trace import SimulationTrace, fmt

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
        if not self.v_lower_pu < 1.0 < self.v_upper_pu:
            raise ValueError("voltage limits must straddle 1.0 pu")

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
    found: list[Incident] = []
    ampacity = np.asarray(limits.branch_ampacity_a, dtype=float)
    slack_kva = trace.slack_kva
    for t in range(trace.step_count):
        if not trace.converged[t]:
            found.append(
                Incident(KIND_DIAGNOSTIC, t, "power-flow", float(trace.residual_pu[t]))
            )
        v = trace.voltage_pu[t]
        for n in np.flatnonzero(v < limits.v_lower_pu):
            found.append(
                Incident(
                    KIND_UNDERVOLTAGE,
                    t,
                    trace.node_ids[n],
                    float(limits.v_lower_pu - v[n]),
                )
            )
        for n in np.flatnonzero(v > limits.v_upper_pu):
            found.append(
                Incident(
                    KIND_OVERVOLTAGE,
                    t,
                    trace.node_ids[n],
                    float(v[n] - limits.v_upper_pu),
                )
            )
        i = trace.branch_current_a[t]
        for b in np.flatnonzero(i > ampacity):
            found.append(
                Incident(
                    KIND_BRANCH_THERMAL,
                    t,
                    trace.branch_labels[b],
                    float((i[b] / ampacity[b] - 1.0) * 100.0),
                )
            )
        if slack_kva[t] > limits.transformer_kva:
            found.append(
                Incident(
                    KIND_TRANSFORMER_OVERLOAD,
                    t,
                    "transformer",
                    float((slack_kva[t] / limits.transformer_kva - 1.0) * 100.0),
                )
            )
    return found


def export_incidents_csv(incidents: list[Incident]) -> str:
    lines = ["step,kind,element,magnitude"]
    for inc in incidents:
        lines.append(f"{inc.step},{inc.kind},{inc.element},{fmt(inc.magnitude)}")
    return "\n".join(lines) + "\n"

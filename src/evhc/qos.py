"""Energy-based quality-of-service accounting.

A customer's QoS is the network-aware charging energy it actually received
divided by what the uncontrolled (baseline) trajectory would have delivered
at the same charging power: 1.0 means curtailment cost it nothing, 0.0
means it got nothing. The fleet-level figure aggregates energies first, so
it is exactly the baseline-energy-weighted mean of the individual values.
Customers whose baseline energy is zero carry no information and are
excluded from both sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import csv_table

_REL_SLACK = 1e-9


class QosError(ValueError):
    """Raised when QoS is undefined for the given energies."""


def qos_individual(e_baseline_kwh: float, e_network_aware_kwh: float) -> float:
    """Per-customer QoS in [0, 1]."""
    if e_baseline_kwh <= 0:
        raise QosError("individual QoS needs a positive baseline energy")
    if e_network_aware_kwh < 0:
        raise QosError("network-aware energy must be >= 0")
    if e_network_aware_kwh > e_baseline_kwh * (1 + _REL_SLACK):
        raise QosError(
            f"network-aware energy {e_network_aware_kwh} exceeds baseline "
            f"{e_baseline_kwh}; curtailment cannot add energy"
        )
    return min(1.0, e_network_aware_kwh / e_baseline_kwh)


def qos_aggregated(pairs: list[tuple[float, float]]) -> float:
    """Fleet QoS: ratio of summed delivered to summed baseline energy.

    Zero-baseline customers are skipped; if every baseline is zero the
    aggregate is undefined and a QosError is raised.
    """
    e_total = 0.0
    na_total = 0.0
    for e_baseline, e_na in pairs:
        if e_baseline <= 0:
            continue
        if e_na > e_baseline * (1 + _REL_SLACK):
            raise QosError("network-aware energy exceeds baseline")
        e_total += e_baseline
        na_total += e_na
    if e_total <= 0:
        raise QosError("aggregated QoS undefined: every baseline energy is zero")
    return min(1.0, na_total / e_total)


@dataclass(frozen=True)
class QosReport:
    """Per-customer and fleet QoS for one run."""

    households: tuple[str, ...]          # customers with baseline energy > 0
    e_baseline_kwh: np.ndarray
    e_network_aware_kwh: np.ndarray
    individual: np.ndarray
    aggregated: float
    minimum: float
    minimum_household: str
    excluded: tuple[str, ...]            # zero-baseline customers


def build_report(
    households: tuple[str, ...] | list[str],
    e_baseline_kwh: np.ndarray,
    e_network_aware_kwh: np.ndarray,
) -> QosReport:
    e_base = np.asarray(e_baseline_kwh, dtype=float)
    e_na = np.asarray(e_network_aware_kwh, dtype=float)
    if not len(households) == len(e_base) == len(e_na):
        raise QosError("energy arrays must align with the household list")
    keep = e_base > 0
    kept = tuple(h for h, k in zip(households, keep) if k)
    dropped = tuple(h for h, k in zip(households, keep) if not k)
    e_base_k = e_base[keep]
    e_na_k = e_na[keep]
    individual = np.array(
        [qos_individual(b, n) for b, n in zip(e_base_k, e_na_k)]
    )
    aggregated = qos_aggregated(list(zip(e_base_k, e_na_k)))  # raises when none is kept
    at_min = int(np.argmin(individual))
    return QosReport(
        households=kept,
        e_baseline_kwh=e_base_k,
        e_network_aware_kwh=e_na_k,
        individual=individual,
        aggregated=aggregated,
        minimum=float(individual[at_min]),
        minimum_household=kept[at_min],
        excluded=dropped,
    )


def export_qos_csv(report: QosReport, node_of: dict[str, str] | None = None) -> str:
    """Per-customer table plus a TOTAL row carrying the aggregate."""
    nodes = [(node_of or {}).get(h, "") for h in report.households]
    base, na = report.e_baseline_kwh, report.e_network_aware_kwh
    return csv_table(
        ("customer", "node", "e_baseline_kwh", "e_network_aware_kwh", "qos"),
        [*zip(report.households, nodes, base.tolist(), na.tolist(), report.individual.tolist()),
         ("TOTAL", "", base.sum(), na.sum(), report.aggregated)],
    )

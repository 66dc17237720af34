"""Hosting-capacity searches and parameter sweeps.

Passive hosting capacity: raise the per-EV charging power along a candidate
grid until the first network incident; the capacity is the last clean
candidate. Network-aware hosting capacity: same sweep with envelopes
active, where a candidate also fails when the fleet-aggregated QoS drops
below the threshold. When an incident and a QoS breach coincide, the
incident is reported as the limiting factor (grid safety outranks service
quality) and the QoS breach is still visible in the candidate detail.

Every candidate is simulated independently of the others. A search is the
first-failure reduction of the lazily evaluated candidate stream, so it
returns exactly what an exhaustive per-candidate scan returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .doe import DoeParams, network_aware_horizon, passive_horizon
from .ev import (
    DEFAULT_RATED_POWER_KW,
    DEFAULT_SCENARIOS,
    EnergyScenario,
    EvSession,
    baseline_trajectory,
    generate_fleet,
)
from .feeder import BaselineLoadProfile, FeederModel
from .incidents import Incident, IncidentLimits, KIND_DIAGNOSTIC, detect
from .powerflow import PowerFlowOptions, VoltageCollapseError
from .qos import QosReport, build_report
from .trace import TraceSummary, fmt, summarize

LIMIT_AGGREGATED_QOS = "aggregated_qos"

SWEEP_POWER = "power"
SWEEP_EV_COUNT = "ev_count"


@dataclass(frozen=True)
class HcSearchConfig:
    """Search settings: candidate grid, QoS threshold, envelope and limits."""

    power_grid_kw: tuple[float, ...] = tuple(float(k) for k in range(1, 21))
    qos_threshold: float = 0.8
    doe: DoeParams = DoeParams()
    scenario: str = "low"
    seed: int = 1
    rated_power_kw: float = DEFAULT_RATED_POWER_KW
    v_lower_pu: float = 0.9
    v_upper_pu: float = 1.1
    sweep_dimension: str = SWEEP_POWER
    count_mode_power_kw: float = 7.4
    pf_options: PowerFlowOptions = PowerFlowOptions()

    def __post_init__(self) -> None:
        if not self.power_grid_kw:
            raise ValueError("power grid must be non-empty")
        if any(b <= a for a, b in zip(self.power_grid_kw, self.power_grid_kw[1:])):
            raise ValueError("power grid must be strictly increasing")
        if not 0.0 < self.qos_threshold <= 1.0:
            raise ValueError("qos_threshold must lie in (0, 1]")
        if self.sweep_dimension not in (SWEEP_POWER, SWEEP_EV_COUNT):
            raise ValueError(f"unknown sweep dimension {self.sweep_dimension}")
        if self.count_mode_power_kw <= 0:
            raise ValueError("count_mode_power_kw must be > 0")


@dataclass
class CandidateResult:
    """Outcome of simulating one candidate (a power level or an EV count)."""

    candidate: float
    incidents: list[Incident]
    qos: QosReport | None
    summary: TraceSummary | None
    qos_breach: bool = False
    failure: str | None = None     # None when the candidate passed
    fixed_point_fallback_steps: int = 0
    error: str | None = None


@dataclass
class HcReport:
    """Result of one hosting-capacity search."""

    mode: str                      # "passive" | "network_aware"
    dimension: str                 # "power" (kW per EV) | "ev_count"
    scenario: str
    hc: float | None               # None: even the smallest candidate failed
    limiting_factor: str | None    # None: unconstrained within the grid
    unconstrained: bool
    qos_threshold: float
    candidates: list[CandidateResult] = field(default_factory=list)

    @property
    def qos_at_hc(self) -> float | None:
        for c in self.candidates:
            if c.candidate == self.hc and c.qos is not None:
                return c.qos.aggregated
        return None

    @property
    def min_qos_at_hc(self) -> float | None:
        for c in self.candidates:
            if c.candidate == self.hc and c.qos is not None:
                return c.qos.minimum
        return None


def _failure(result: CandidateResult, qos_threshold: float) -> CandidateResult:
    """The one failure rule: ``result`` judged at ``qos_threshold``.

    A candidate fails on its first incident, else on an aggregated-QoS
    breach. The breach flag is set either way, so a breach that coincides
    with an incident stays visible.
    """
    breach = result.qos is not None and result.qos.aggregated < qos_threshold
    if result.incidents:
        failure = result.incidents[0].kind
    else:
        failure = LIMIT_AGGREGATED_QOS if breach else None
    return replace(result, qos_breach=breach, failure=failure)


def _evaluate(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    hc_power: float,
    config: HcSearchConfig,
    mode: str,
) -> CandidateResult:
    """Simulate one candidate day in either regime and judge it."""
    try:
        if mode == "passive":
            trajectories, trace = passive_horizon(
                feeder, profiles, fleet, hc_power, config.pf_options
            )
        else:
            trajectories, trace = network_aware_horizon(
                feeder, profiles, fleet, hc_power, config.doe, config.pf_options
            )
    except VoltageCollapseError as exc:
        incident = Incident(
            KIND_DIAGNOSTIC, exc.step or 0, "power-flow", float(exc.min_voltage_pu)
        )
        result = CandidateResult(hc_power, [incident], qos=None, summary=None, error=str(exc))
        return _failure(result, config.qos_threshold)
    qos = None
    if mode != "passive":
        e_baseline = np.array([baseline_trajectory(s, hc_power).delivered_kwh for s in fleet])
        e_na = np.array([t.delivered_kwh for t in trajectories])
        qos = build_report(tuple(s.household for s in fleet), e_baseline, e_na)
    result = CandidateResult(
        candidate=hc_power,
        incidents=detect(
            trace, IncidentLimits.from_feeder(feeder, config.v_lower_pu, config.v_upper_pu)
        ),
        qos=qos,
        summary=summarize(trace, feeder.compiled.ampacity_a),
        fixed_point_fallback_steps=int(trace.fixed_point_fallback.sum()),
    )
    return _failure(result, config.qos_threshold)


def evaluate_passive_candidate(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    hc_power: float,
    config: HcSearchConfig,
) -> CandidateResult:
    """Simulate uncontrolled charging at one candidate power."""
    return _evaluate(feeder, profiles, fleet, hc_power, config, "passive")


def evaluate_network_aware_candidate(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    hc_power: float,
    config: HcSearchConfig,
) -> CandidateResult:
    """Simulate envelope-controlled charging at one candidate power."""
    return _evaluate(feeder, profiles, fleet, hc_power, config, "network_aware")


def _candidates(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
    mode: str,
) -> Iterator[CandidateResult]:
    """Evaluate the candidates of the config's dimension in order, lazily.

    A power candidate charges the whole fleet at that power; an EV-count
    candidate k charges the first k sessions at ``count_mode_power_kw``.
    """
    if config.sweep_dimension == SWEEP_EV_COUNT:
        points = [
            (float(k), fleet[:k], config.count_mode_power_kw) for k in range(1, len(fleet) + 1)
        ]
    else:
        points = [(p, fleet, p) for p in config.power_grid_kw]
    for candidate, sessions, power in points:
        result = _evaluate(feeder, profiles, sessions, power, config, mode)
        result.candidate = candidate
        yield result


def reduce_candidates(
    results: Iterable[CandidateResult],
    qos_threshold: float,
    mode: str,
    scenario: str = "",
    dimension: str = SWEEP_POWER,
) -> HcReport:
    """First-failure reduction of a candidate stream.

    The capacity is the last candidate before the first failure. Results are
    pulled only up to that failure, so reducing the lazy candidate stream is
    the sequential search. Candidate results are threshold-independent, so
    one evaluated grid can also be reduced at many thresholds.
    """
    hc: float | None = None
    limiting: str | None = None
    kept: list[CandidateResult] = []
    for r in results:
        judged = _failure(r, qos_threshold)
        kept.append(judged)
        if judged.failure is not None:
            limiting = judged.failure
            break
        hc = judged.candidate
    return HcReport(
        mode=mode,
        dimension=dimension,
        scenario=scenario,
        hc=hc,
        limiting_factor=limiting,
        unconstrained=limiting is None,
        qos_threshold=qos_threshold,
        candidates=kept,
    )


def passive_hc(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
) -> HcReport:
    """Uncontrolled hosting capacity: stop at the first network incident."""
    return reduce_candidates(
        _candidates(feeder, profiles, fleet, config, "passive"),
        config.qos_threshold, "passive", config.scenario, config.sweep_dimension,
    )


def network_aware_hc(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
) -> HcReport:
    """Envelope-controlled hosting capacity: stop at the first unavoided
    incident or aggregated-QoS breach."""
    return reduce_candidates(
        _candidates(feeder, profiles, fleet, config, "network_aware"),
        config.qos_threshold, "network_aware", config.scenario, config.sweep_dimension,
    )


def network_aware_grid(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
) -> list[CandidateResult]:
    """Evaluate every candidate power regardless of failures (for threshold
    sweeps and locational QoS tables)."""
    power = replace(config, sweep_dimension=SWEEP_POWER)
    return list(_candidates(feeder, profiles, fleet, power, "network_aware"))


@dataclass
class SweepCell:
    """One (scenario, delta_perm, factor) cell of the sensitivity sweep."""

    scenario: str
    delta_perm: float
    factor: float
    hc: float | None = None
    limiting_factor: str | None = None
    unconstrained: bool = False
    qos_at_hc: float | None = None
    min_qos_at_hc: float | None = None
    error: str | None = None


def fleet_for_scenario(
    feeder: FeederModel,
    scenario: EnergyScenario,
    config: HcSearchConfig,
) -> list[EvSession]:
    """The generated fleet of one scenario, seeded by ``[seed, scenario index]``."""
    index = list(DEFAULT_SCENARIOS).index(scenario.label) if scenario.label in DEFAULT_SCENARIOS else 0
    return generate_fleet(
        scenario,
        feeder.household_ids,
        seed=[config.seed, index],
        rated_power_kw=config.rated_power_kw,
    )


def _evaluate_cell(args) -> SweepCell:
    feeder, profiles, scenario, delta_perm, factor, config = args
    cell = SweepCell(scenario=scenario.label, delta_perm=delta_perm, factor=factor)
    try:
        doe = replace(config.doe, delta_perm=delta_perm, factor=factor)
        cell_config = replace(config, doe=doe, scenario=scenario.label)
        fleet = fleet_for_scenario(feeder, scenario, cell_config)
        report = network_aware_hc(feeder, profiles, fleet, cell_config)
        cell.hc = report.hc
        cell.limiting_factor = report.limiting_factor
        cell.unconstrained = report.unconstrained
        cell.qos_at_hc = report.qos_at_hc
        cell.min_qos_at_hc = report.min_qos_at_hc
    except Exception as exc:  # cell failures stay in-cell, the sweep continues
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def sensitivity_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    delta_perm_grid: list[float],
    factor_values: list[float],
    config: HcSearchConfig,
    workers: int = 1,
) -> list[SweepCell]:
    """Network-aware HC over the (delta_perm, factor) grid per scenario."""
    if not delta_perm_grid or not factor_values or not scenarios:
        raise ValueError("sweep grids must be non-empty")
    jobs = [
        (feeder, profiles, scenario, float(d), float(f), config)
        for scenario in scenarios
        for d in delta_perm_grid
        for f in factor_values
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_evaluate_cell, jobs))
    return [_evaluate_cell(job) for job in jobs]


@dataclass
class ThresholdPoint:
    """Network-aware HC at one aggregated-QoS threshold."""

    scenario: str
    qos_threshold: float
    hc: float | None
    limiting_factor: str | None
    qos_at_hc: float | None
    min_qos_at_hc: float | None


def threshold_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    thresholds: list[float],
    config: HcSearchConfig,
) -> list[ThresholdPoint]:
    """NAHC versus aggregated-QoS threshold; one grid evaluation per
    scenario reused across thresholds."""
    points = []
    for scenario in scenarios:
        cfg = replace(config, scenario=scenario.label)
        fleet = fleet_for_scenario(feeder, scenario, cfg)
        grid = network_aware_grid(feeder, profiles, fleet, cfg)
        for threshold in thresholds:
            report = reduce_candidates(grid, threshold, "network_aware", scenario.label)
            points.append(
                ThresholdPoint(
                    scenario=scenario.label,
                    qos_threshold=float(threshold),
                    hc=report.hc,
                    limiting_factor=report.limiting_factor,
                    qos_at_hc=report.qos_at_hc,
                    min_qos_at_hc=report.min_qos_at_hc,
                )
            )
    return points


def export_sweep_csv(cells: list[SweepCell]) -> str:
    lines = ["scenario,delta_perm,factor,nahc_kw,limiting_factor,qos_agg,min_qos,error"]
    for c in cells:
        lines.append(
            f"{c.scenario},{fmt(c.delta_perm)},{fmt(c.factor)},{fmt(c.hc)},"
            f"{'unconstrained' if c.unconstrained else (c.limiting_factor or '')},"
            f"{fmt(c.qos_at_hc)},{fmt(c.min_qos_at_hc)},{c.error or ''}"
        )
    return "\n".join(lines) + "\n"

"""Hosting-capacity searches and parameter sweeps.

Passive hosting capacity: raise the per-EV charging power along a candidate
grid until the first network incident; the capacity is the last clean
candidate. Network-aware hosting capacity: same sweep with envelopes
active, where a candidate also fails when the fleet-aggregated QoS drops
below the threshold. When an incident and a QoS breach coincide, the
incident is reported as the limiting factor (grid safety outranks service
quality) and the QoS breach is still visible in the candidate detail.

Every candidate is simulated independently of the others. A search is the
first-failure reduction of its candidates, so it returns exactly what an
exhaustive per-candidate scan returns. Searches run in candidate rounds:
round k simulates candidate k of every search still running, all in one
batched kernel call (``doe._simulate_lanes``).
"""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .doe import DoeParams, Lane, LaneDay, _raised, _simulate_lanes
from .ev import (
    DEFAULT_RATED_POWER_KW,
    DEFAULT_SCENARIOS,
    EnergyScenario,
    EvSession,
    baseline_trajectory,
    generate_fleet,
)
from .feeder import BaselineLoadProfile, FeederModel
from .incidents import Incident, IncidentLimits, KIND_DIAGNOSTIC
from .powerflow import PowerFlowOptions, VoltageCollapseError
from .qos import QosError, QosReport, build_report
from .trace import TraceSummary, fmt

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
    jobs: list[tuple[tuple[float, list[EvSession], float], HcSearchConfig, str]],
) -> list[CandidateResult | Exception]:
    """Simulate candidate days in one kernel call and judge each.

    A job is a candidate point ``(candidate, sessions, power)``, its search
    config and mode. The jobs share the first config's limits and solver
    options. A candidate whose day cannot be simulated or judged is the
    exception that stopped it; a collapse is a diagnostic incident.
    """
    config = jobs[0][1]
    lanes = [
        Lane(sessions, power, None if mode == "passive" else cfg.doe)
        for (_, sessions, power), cfg, mode in jobs
    ]
    days = _simulate_lanes(
        feeder, profiles, lanes, config.pf_options,
        judge=IncidentLimits.from_feeder(feeder, config.v_lower_pu, config.v_upper_pu),
    )
    return [_judge(day, *job) for day, job in zip(days, jobs)]


def _judge(
    day: LaneDay | Exception,
    point: tuple[float, list[EvSession], float],
    config: HcSearchConfig,
    mode: str,
) -> CandidateResult | Exception:
    candidate, sessions, power = point
    if isinstance(day, VoltageCollapseError):
        incident = Incident(KIND_DIAGNOSTIC, day.step or 0, "power-flow", float(day.min_voltage_pu))
        result = CandidateResult(candidate, [incident], qos=None, summary=None, error=str(day))
        return _failure(result, config.qos_threshold)
    if isinstance(day, Exception):
        return day
    qos = None
    if mode != "passive":
        e_baseline = np.array([baseline_trajectory(s, power).delivered_kwh for s in sessions])
        try:
            qos = build_report(tuple(s.household for s in sessions), e_baseline, day.delivered_kwh)
        except QosError as exc:
            return exc
    result = CandidateResult(
        candidate=candidate,
        incidents=day.incidents,
        qos=qos,
        summary=day.summary,
        fixed_point_fallback_steps=day.fallback_steps,
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
    jobs = [((hc_power, fleet, hc_power), config, "passive")]
    return _raised(_evaluate(feeder, profiles, jobs)[0])


def evaluate_network_aware_candidate(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    hc_power: float,
    config: HcSearchConfig,
) -> CandidateResult:
    """Simulate envelope-controlled charging at one candidate power."""
    jobs = [((hc_power, fleet, hc_power), config, "network_aware")]
    return _raised(_evaluate(feeder, profiles, jobs)[0])


def _points(
    fleet: list[EvSession], config: HcSearchConfig
) -> list[tuple[float, list[EvSession], float]]:
    """The candidate points ``(candidate, sessions, power)`` of the config's
    dimension, in search order.

    A power candidate charges the whole fleet at that power; an EV-count
    candidate k charges the first k sessions at ``count_mode_power_kw``.
    """
    if config.sweep_dimension == SWEEP_EV_COUNT:
        return [(float(k), fleet[:k], config.count_mode_power_kw) for k in range(1, len(fleet) + 1)]
    return [(p, fleet, p) for p in config.power_grid_kw]


def reduce_searches(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    searches: list[tuple[list[EvSession], HcSearchConfig, str]],
) -> list[HcReport | Exception]:
    """Many ``(fleet, config, mode)`` searches, each a first-failure reduction,
    evaluated in candidate rounds.

    Round k simulates candidate k of every search that has not yet failed,
    in one kernel call, so exactly the candidates of the sequential searches
    are simulated. A search that hits an error ends as that exception. The
    searches share the first config's limits and solver options.
    """
    points = [_points(fleet, config) for fleet, config, _ in searches]
    evaluated: list[list[CandidateResult]] = [[] for _ in searches]
    errors: dict[int, Exception] = {}
    k, running = 0, [j for j, p in enumerate(points) if p]
    while running:
        jobs = [(points[j][k], *searches[j][1:]) for j in running]
        for j, result in zip(running, _evaluate(feeder, profiles, jobs)):
            if isinstance(result, Exception):
                errors[j] = result
            else:
                evaluated[j].append(result)
        k += 1
        running = [
            j for j in running
            if j not in errors and evaluated[j][-1].failure is None and k < len(points[j])
        ]
    return [
        errors.get(j)
        or reduce_candidates(
            evaluated[j], config.qos_threshold, mode, config.scenario, config.sweep_dimension
        )
        for j, (_, config, mode) in enumerate(searches)
    ]


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
    return _raised(reduce_searches(feeder, profiles, [(fleet, config, "passive")])[0])


def network_aware_hc(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
) -> HcReport:
    """Envelope-controlled hosting capacity: stop at the first unavoided
    incident or aggregated-QoS breach."""
    return _raised(reduce_searches(feeder, profiles, [(fleet, config, "network_aware")])[0])


def network_aware_grid(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    config: HcSearchConfig,
) -> list[CandidateResult]:
    """Evaluate every candidate power regardless of failures (for threshold
    sweeps and locational QoS tables), in one kernel call."""
    power = replace(config, sweep_dimension=SWEEP_POWER)
    jobs = [(point, power, "network_aware") for point in _points(fleet, power)]
    return [_raised(result) for result in _evaluate(feeder, profiles, jobs)]


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


def _sweep_cells(args) -> list[SweepCell]:
    """Network-aware HC of every (delta_perm, factor) cell of some scenarios,
    their searches reduced together. A cell's error stays in its cell."""
    feeder, profiles, scenarios, grid, config = args
    cells, searches, searching = [], [], []
    for scenario in scenarios:
        try:
            fleet = fleet_for_scenario(feeder, scenario, config)
        except Exception as exc:  # every cell of the scenario carries it
            fleet = exc
        for delta_perm, factor in grid:
            cell = SweepCell(scenario=scenario.label, delta_perm=delta_perm, factor=factor)
            cells.append(cell)
            try:
                doe = replace(config.doe, delta_perm=delta_perm, factor=factor)
                if isinstance(fleet, Exception):
                    raise fleet
            except Exception as exc:  # cell failures stay in-cell, the sweep continues
                cell.error = f"{type(exc).__name__}: {exc}"
                continue
            cell_config = replace(config, doe=doe, scenario=scenario.label)
            searches.append((fleet, cell_config, "network_aware"))
            searching.append(cell)
    for cell, report in zip(searching, reduce_searches(feeder, profiles, searches)):
        if isinstance(report, Exception):
            cell.error = f"{type(report).__name__}: {report}"
            continue
        cell.hc = report.hc
        cell.limiting_factor = report.limiting_factor
        cell.unconstrained = report.unconstrained
        cell.qos_at_hc = report.qos_at_hc
        cell.min_qos_at_hc = report.min_qos_at_hc
    return cells


def sensitivity_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    delta_perm_grid: list[float],
    factor_values: list[float],
    config: HcSearchConfig,
    workers: int = 1,
) -> list[SweepCell]:
    """Network-aware HC over the (delta_perm, factor) grid per scenario.

    One worker reduces every cell's search in the same candidate rounds;
    more workers take one scenario (whose cells share a fleet) each.
    """
    if not delta_perm_grid or not factor_values or not scenarios:
        raise ValueError("sweep grids must be non-empty")
    grid = [(float(d), float(f)) for d in delta_perm_grid for f in factor_values]
    if workers > 1:
        jobs = [(feeder, profiles, [scenario], grid, config) for scenario in scenarios]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [cell for part in pool.map(_sweep_cells, jobs) for cell in part]
    return _sweep_cells((feeder, profiles, scenarios, grid, config))


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

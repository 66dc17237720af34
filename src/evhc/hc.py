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
each round simulates the next four (``ROUND_WIDTH``) candidates of every
search still running, all in one batched kernel call, each search under
its own key; the kernel (``doe._simulate_lanes``) solves a row its lanes
share once. At most three candidates past a search's first failure are
simulated, and none is read. The QoS-threshold sweep instead judges every
scenario's whole power grid in one kernel call, each scenario one search
whose candidates stop past its first incident. Every search and sweep
runs in the calling process.
"""

from __future__ import annotations

from collections.abc import Iterable
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
from .trace import fmt

LIMIT_AGGREGATED_QOS = "aggregated_qos"

SWEEP_POWER = "power"
SWEEP_EV_COUNT = "ev_count"

ROUND_WIDTH = 4  # candidates of each running search simulated per round


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
    overall_min_voltage_pu: float | None = None  # the day's lowest node voltage; None: no day
    max_slack_kva: float | None = None           # the day's largest slack apparent power
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
    searches: list | None = None,
) -> list[CandidateResult | Exception]:
    """Simulate candidate days in one kernel call and judge each.

    A job is a candidate point ``(candidate, sessions, power)``, its search
    config and mode. The jobs share the first config's limits and solver
    options. A candidate whose day cannot be simulated or judged is the
    exception that stopped it; a collapse is a diagnostic incident.
    ``searches`` gives each job's search key: a search's jobs, passed in
    candidate order, stop past its first incident (``doe._simulate_lanes``).
    """
    config = jobs[0][1]
    lanes = [
        Lane(sessions, power, None if mode == "passive" else cfg.doe, key)
        for ((_, sessions, power), cfg, mode), key in zip(jobs, searches or [None] * len(jobs))
    ]
    days = _simulate_lanes(
        feeder, profiles, lanes, config.pf_options,
        judge=IncidentLimits.from_feeder(feeder, config.v_lower_pu, config.v_upper_pu),
    )
    energy: dict = {}  # (session, power) -> its uncontrolled energy, shared by the jobs
    return [_judge(day, *job, energy) for day, job in zip(days, jobs)]


def _judge(
    day: LaneDay | Exception,
    point: tuple[float, list[EvSession], float],
    config: HcSearchConfig,
    mode: str,
    energy: dict,
) -> CandidateResult | Exception:
    candidate, _, power = point
    if isinstance(day, VoltageCollapseError):
        incident = Incident(KIND_DIAGNOSTIC, day.step or 0, "power-flow", float(day.min_voltage_pu))
        result = CandidateResult(candidate, [incident], qos=None, error=str(day))
        return _failure(result, config.qos_threshold)
    if isinstance(day, Exception):
        return day
    qos = None
    if mode != "passive":
        sessions = day.sessions  # feeder order, as are its delivered energies
        keys = [(s, power) for s in sessions]
        energy.update({k: baseline_trajectory(*k).delivered_kwh for k in keys if k not in energy})
        e_baseline = np.array([energy[k] for k in keys])
        try:
            qos = build_report(tuple(s.household for s in sessions), e_baseline, day.delivered_kwh)
        except QosError as exc:
            return exc
    result = CandidateResult(
        candidate=candidate,
        incidents=day.incidents,
        qos=qos,
        overall_min_voltage_pu=day.summary.overall_min_voltage_pu,
        max_slack_kva=day.summary.max_slack_kva,
        fixed_point_fallback_steps=day.fallback_steps,
    )
    return _failure(result, config.qos_threshold)


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

    Each round simulates the next ``ROUND_WIDTH`` candidates of every search
    that has not yet failed, in one kernel call, each search under its own
    key, so a lane past an incident of its search stops there. A search
    stops running once one of its outcomes has not passed, after
    ceil(n / ``ROUND_WIDTH``) rounds if that is candidate n: the up to
    ``ROUND_WIDTH - 1`` candidates simulated past it are never read. A
    search that hits an error ends as that exception. The searches share
    the first config's limits and solver options.
    """
    points = [_points(fleet, config) for fleet, config, _ in searches]
    evaluated: list[list[CandidateResult | Exception]] = [[] for _ in searches]
    running = [j for j, p in enumerate(points) if p]
    while running:
        window = [(j, p) for j in running for p in points[j][len(evaluated[j]):][:ROUND_WIDTH]]
        jobs = [(point, *searches[j][1:]) for j, point in window]
        keys = [j for j, _ in window]
        for j, result in zip(keys, _evaluate(feeder, profiles, jobs, keys)):
            evaluated[j].append(result)
        running = [
            j for j in running
            if len(evaluated[j]) < len(points[j]) and all(map(_passed, evaluated[j]))
        ]
    return [
        _reduce_search(evaluated[j], config, mode) for j, (_, config, mode) in enumerate(searches)
    ]


def _passed(outcome: CandidateResult | Exception) -> bool:
    return not isinstance(outcome, Exception) and outcome.failure is None


def _reduce_search(
    outcomes: list[CandidateResult | Exception], config: HcSearchConfig, mode: str
) -> HcReport | Exception:
    """A search from its candidates' outcomes in search order: the exception
    that ended it when one comes before the first failure, else the
    first-failure reduction (outcomes after the failure are never read)."""
    stop = next((o for o in outcomes if not _passed(o)), None)
    if isinstance(stop, Exception):
        return stop
    return reduce_candidates(
        outcomes, config.qos_threshold, mode, config.scenario, config.sweep_dimension
    )


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
    """Evaluate every candidate power regardless of failures, in one kernel
    call: the whole grid, as a per-customer QoS table needs it."""
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


def sensitivity_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    delta_perm_grid: list[float],
    factor_values: list[float],
    config: HcSearchConfig,
) -> list[SweepCell]:
    """Network-aware HC over the (delta_perm, factor) grid per scenario.

    Every cell's search is reduced in the same candidate rounds, in this
    process. A cell's error stays in its cell.
    """
    if not delta_perm_grid or not factor_values or not scenarios:
        raise ValueError("sweep grids must be non-empty")
    grid = [(float(d), float(f)) for d in delta_perm_grid for f in factor_values]
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
    """NAHC versus aggregated-QoS threshold.

    Every scenario's power grid is judged in one kernel call and reduced at
    each threshold. Incidents do not depend on the threshold, so no
    reduction reads a candidate past a scenario's first incident, and those
    candidates stop there. An error at or before that incident is raised.
    """
    power = replace(config, sweep_dimension=SWEEP_POWER)
    jobs, searches = [], []
    for i, scenario in enumerate(scenarios):
        cfg = replace(power, scenario=scenario.label)
        for point in _points(fleet_for_scenario(feeder, scenario, cfg), cfg):
            jobs.append((point, cfg, "network_aware"))
            searches.append(i)
    outcomes = _evaluate(feeder, profiles, jobs, searches) if jobs else []
    size, points = len(power.power_grid_kw), []
    for i, scenario in enumerate(scenarios):
        grid = outcomes[i * size:(i + 1) * size]
        _raised(next((o for o in grid if isinstance(o, Exception) or o.incidents), None))
        for threshold in thresholds:
            report = reduce_candidates(grid, threshold, "network_aware", scenario.label)
            points.append(ThresholdPoint(
                scenario.label, float(threshold), report.hc, report.limiting_factor,
                report.qos_at_hc, report.min_qos_at_hc,
            ))
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

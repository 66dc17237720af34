"""Hosting-capacity searches and parameter sweeps.

Passive hosting capacity: raise the per-EV charging power along a candidate
grid until the first network incident; the capacity is the last clean
candidate. Network-aware hosting capacity: same sweep with envelopes
active, where a candidate also fails when the fleet-aggregated QoS drops
below the threshold. When an incident and a QoS breach coincide, the
incident is reported as the limiting factor (grid safety outranks service
quality) and the QoS breach is still visible in the candidate detail.

Every candidate is simulated independently of the others. A search is its
candidates' first-failure reduction, ``reduce_candidates``: its report, or
the error before its first failure, exactly what an exhaustive per-
candidate scan returns; ``CandidateResult.failure_at`` is its one failure
rule. The capacity is the last candidate before the failure (``at_hc``).
Every batch reaches the kernel (``doe._simulate_lanes``) as candidate
grids through ``_evaluate_days``: one kernel call, one list of results per
grid, and the lanes of a stopping grid stop past its first incident.
Searches run in candidate rounds: each round passes the next four
(``ROUND_WIDTH``) candidates of every search still running, each a
stopping grid. At most three candidates past a search's first failure are
simulated, and none is read. The QoS-threshold sweep passes every
scenario's whole power grid in one call, each a stopping grid. Both sweeps
build their power-grid searches in ``_sweep_searches``, one fleet draw per
scenario. Every search and sweep runs in the calling process.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .doe import DoeParams, Lane, LaneDay, _raised, _simulate_lanes
from .ev import (
    DEFAULT_RATED_POWER_KW,
    DEFAULT_SCENARIOS,
    EnergyScenario,
    EvSession,
    generate_fleet,
)
from .feeder import BaselineLoadProfile, FeederModel
from .incidents import Incident, IncidentLimits, KIND_DIAGNOSTIC
from .powerflow import VoltageCollapseError
from .qos import QosError, QosReport, build_report
from .trace import csv_table

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

    def __post_init__(self) -> None:
        if not self.power_grid_kw:
            raise ValueError("power grid must be non-empty")
        for kw in self.power_grid_kw:
            if not 0 < kw < math.inf:
                raise ValueError(f"power grid entries must be finite and > 0, got {kw}")
        if any(b <= a for a, b in zip(self.power_grid_kw, self.power_grid_kw[1:])):
            raise ValueError("power grid must be strictly increasing")
        if not 0.0 < self.qos_threshold <= 1.0:
            raise ValueError("qos_threshold must lie in (0, 1]")
        if self.sweep_dimension not in (SWEEP_POWER, SWEEP_EV_COUNT):
            raise ValueError(f"unknown sweep dimension {self.sweep_dimension}")
        if not 0 < self.count_mode_power_kw < math.inf:
            raise ValueError(
                f"count_mode_power_kw must be finite and > 0, got {self.count_mode_power_kw}"
            )


@dataclass
class CandidateResult:
    """Outcome of simulating one candidate (a power level or an EV count)."""

    candidate: float
    incidents: list[Incident]
    qos: QosReport | None
    error: str | None = None
    day: LaneDay | None = field(default=None, compare=False, repr=False)  # None: a collapse

    def failure_at(self, qos_threshold: float) -> str | None:
        """The one failure rule: the kind of the first incident, else an
        aggregated-QoS breach of ``qos_threshold``, else None (passed). A
        breach that coincides with an incident stays visible in ``qos``."""
        if self.incidents:
            return self.incidents[0].kind
        if self.qos is not None and self.qos.aggregated < qos_threshold:
            return LIMIT_AGGREGATED_QOS
        return None


@dataclass
class HcReport:
    """Result of one hosting-capacity search: its candidates in order, up to
    and including the first that fails at ``qos_threshold``. The capacity,
    its limit and ``unconstrained`` derive from them by ``failure_at``."""

    mode: str                      # "passive" | "network_aware"
    dimension: str                 # "power" (kW per EV) | "ev_count"
    scenario: str
    qos_threshold: float
    candidates: list[CandidateResult] = field(default_factory=list)

    @property
    def limiting_factor(self) -> str | None:
        """The last candidate's failure; None: unconstrained within the grid."""
        return self.candidates[-1].failure_at(self.qos_threshold) if self.candidates else None

    @property
    def unconstrained(self) -> bool:
        return self.limiting_factor is None

    @property
    def at_hc(self) -> CandidateResult | None:
        """The capacity's candidate, by position: the last before the failure, or None."""
        passed = self.candidates[:len(self.candidates) - (not self.unconstrained)]
        return passed[-1] if passed else None

    @property
    def hc(self) -> float | None:  # None: even the smallest candidate failed
        return None if self.at_hc is None else self.at_hc.candidate

    @property
    def qos_at_hc(self) -> float | None:
        return self.at_hc and self.at_hc.qos and self.at_hc.qos.aggregated

    @property
    def min_qos_at_hc(self) -> float | None:
        return self.at_hc and self.at_hc.qos and self.at_hc.qos.minimum


_Point = tuple[float, list[EvSession], float]  # (candidate, sessions, power)


def _evaluate_days(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    grids: list[tuple[list[_Point], HcSearchConfig, str, bool]],
) -> list[list[CandidateResult | Exception]]:
    """Judge candidate grids in one kernel call: per grid, its candidates'
    results in order, each carrying its day as the kernel keeps it.

    A grid is ``(points, config, mode, stop)``: its candidate points, its
    search config and mode, and whether its lanes stop past its first
    incident (one search key of ``doe._simulate_lanes``). All grids must
    share one pair of voltage limits, as one kernel call judges them all; a
    batch that mixes them is a ``ValueError``. A candidate whose day cannot
    be simulated or judged is the exception that stopped it; a collapse is a
    diagnostic incident. A batch without points makes no kernel call.
    """
    lanes = [
        Lane(sessions, power, None if mode == "passive" else cfg.doe, g if stop else None)
        for g, (points, cfg, mode, stop) in enumerate(grids) for _, sessions, power in points
    ]
    if not lanes:
        return [[] for _ in grids]
    limits = list(dict.fromkeys(
        (cfg.v_lower_pu, cfg.v_upper_pu) for points, cfg, *_ in grids if points))
    if len(limits) > 1:
        raise ValueError(f"batched searches must share (v_lower_pu, v_upper_pu), got {limits}")
    [(v_lower, v_upper)] = limits
    days = iter(_simulate_lanes(
        feeder, profiles, lanes,
        judge=IncidentLimits.from_feeder(feeder, v_lower, v_upper),
    ))
    return [[_judge(next(days), candidate) for candidate, *_ in points] for points, *_ in grids]


def _judge(day: LaneDay | Exception, candidate: float) -> CandidateResult | Exception:
    """The result of one candidate's day, threshold-free: its incidents, a
    collapse as a diagnostic incident, and a QoS report when the lane has an
    envelope; an error that stopped the day, or its QoS, as it is."""
    if isinstance(day, VoltageCollapseError):
        incident = Incident(KIND_DIAGNOSTIC, day.step or 0, "power-flow", float(day.min_voltage_pu))
        return CandidateResult(candidate, [incident], qos=None, error=str(day))
    if isinstance(day, Exception):
        return day
    qos = None
    if day.lane.params is not None:  # the day's sessions are in feeder order, as are its energies
        households = tuple(s.household for s in day.sessions)
        try:
            qos = build_report(households, day.uncontrolled_kwh, day.delivered_kwh)
        except QosError as exc:
            return exc
    return CandidateResult(candidate, day.incidents, qos, day=day)


def evaluate_network_aware_candidate(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    fleet: list[EvSession],
    hc_power: float,
    config: HcSearchConfig,
) -> CandidateResult:
    """Simulate envelope-controlled charging at one candidate power; a fleet
    without sessions is the searches' ``ValueError``."""
    _points(fleet, config)
    grid = ([(hc_power, fleet, hc_power)], config, "network_aware", False)
    return _raised(_evaluate_days(feeder, profiles, [grid])[0][0])


def _points(fleet: list[EvSession], config: HcSearchConfig) -> list[_Point]:
    """The candidate points ``(candidate, sessions, power)`` of the config's
    dimension, in search order.

    A power candidate charges the whole fleet at that power; an EV-count
    candidate k charges the first k sessions at ``count_mode_power_kw``. A
    fleet without sessions has no capacity to find: a ``ValueError``.
    """
    if not fleet:
        raise ValueError("a search needs at least one EV session")
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
    that has not yet failed, in one kernel call, each a stopping grid, so a
    lane past an incident of its search stops there. A search stops running
    once one of its outcomes has not passed, after ceil(n / ``ROUND_WIDTH``)
    rounds if that is candidate n: the up to ``ROUND_WIDTH - 1`` candidates
    simulated past it are never read. A search that hits an error ends as
    that exception. The searches must share one pair of voltage limits
    (``_evaluate_days``).
    """
    points = [_points(fleet, config) for fleet, config, _ in searches]
    evaluated: list[list[CandidateResult | Exception]] = [[] for _ in searches]
    running = list(range(len(searches)))
    while running:
        windows = [(points[j][len(evaluated[j]):][:ROUND_WIDTH], *searches[j][1:], True)
                   for j in running]
        for j, results in zip(running, _evaluate_days(feeder, profiles, windows)):
            evaluated[j] += results
        running = [j for j in running if len(evaluated[j]) < len(points[j]) and not any(
            isinstance(o, Exception) or o.failure_at(searches[j][1].qos_threshold) is not None
            for o in evaluated[j])]
    return [
        reduce_candidates(outcomes, cfg.qos_threshold, mode, cfg.scenario, cfg.sweep_dimension)
        for outcomes, (_, cfg, mode) in zip(evaluated, searches)
    ]


def reduce_candidates(
    results: Iterable[CandidateResult | Exception],
    qos_threshold: float,
    mode: str,
    scenario: str = "",
    dimension: str = SWEEP_POWER,
) -> HcReport | Exception:
    """First-failure reduction of a candidate stream: the search's report,
    its results as they are up to and including the first that fails at
    ``qos_threshold``, or the exception that ended it when one comes before.

    Results are pulled only up to that failure, so reducing the lazy
    candidate stream is the sequential search. Candidate results are
    threshold-independent, so one evaluated grid can also be reduced at
    many thresholds.
    """
    kept: list[CandidateResult] = []
    for r in results:
        if isinstance(r, Exception):
            return r
        kept.append(r)
        if r.failure_at(qos_threshold) is not None:
            break
    return HcReport(mode, dimension, scenario, qos_threshold, kept)


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
    grid = (_points(fleet, power), power, "network_aware", False)
    return [_raised(result) for result in _evaluate_days(feeder, profiles, [grid])[0]]


@dataclass
class SweepCell:
    """One (scenario, delta_perm, factor) cell of the sensitivity sweep: a report or an error."""

    scenario: str
    delta_perm: float
    factor: float
    report: HcReport | None = None
    error: str | None = None

    @property
    def limiting_factor(self) -> str | None:
        return self.report and self.report.limiting_factor


def fleet_for_scenario(
    feeder: FeederModel,
    scenario: EnergyScenario,
    config: HcSearchConfig,
) -> list[EvSession]:
    """The generated fleet of one scenario. A default label is seeded by
    ``[seed, i]``, i its index in ``DEFAULT_SCENARIOS``; any other label by
    ``[seed, 3, n, b1, ..., bn]``, its n UTF-8 bytes: a stream of its own."""
    if scenario.label in DEFAULT_SCENARIOS:
        stream = [list(DEFAULT_SCENARIOS).index(scenario.label)]
    else:
        text = scenario.label.encode()
        stream = [len(DEFAULT_SCENARIOS), len(text), *text]
    return generate_fleet(
        scenario,
        feeder.household_ids,
        seed=[config.seed, *stream],
        rated_power_kw=config.rated_power_kw,
    )


def _sweep_searches(feeder, scenarios, envelopes, config):
    """Every search of a sweep, scenario by scenario: ``(label, delta_perm,
    factor, search)`` per ``(delta_perm, factor)`` envelope, the search being
    the network-aware power-grid search ``(fleet, config, mode)``, or else the
    error of its envelope, or of its fleet, which is drawn once per scenario."""
    for scenario in scenarios:
        cfg = replace(config, sweep_dimension=SWEEP_POWER, scenario=scenario.label)
        try:
            fleet = fleet_for_scenario(feeder, scenario, cfg)
        except Exception as exc:  # every search of the scenario carries it
            fleet = exc
        for delta_perm, factor in envelopes:
            try:
                doe = replace(cfg.doe, delta_perm=delta_perm, factor=factor)
                search = (_raised(fleet), replace(cfg, doe=doe), "network_aware")
            except Exception as exc:
                search = exc
            yield scenario.label, delta_perm, factor, search


def sensitivity_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    delta_perm_grid: list[float],
    factor_values: list[float],
    config: HcSearchConfig,
) -> list[SweepCell]:
    """Network-aware HC over the (delta_perm, factor) grid per scenario.

    Every cell searches the power grid, as ``threshold_sweep`` does; all
    are reduced in the same candidate rounds, in this process. A cell's
    error stays in its cell.
    """
    if not delta_perm_grid or not factor_values or not scenarios:
        raise ValueError("sweep grids must be non-empty")
    envelopes = [(float(d), float(f)) for d in delta_perm_grid for f in factor_values]
    built = list(_sweep_searches(feeder, scenarios, envelopes, config))
    reports = iter(reduce_searches(
        feeder, profiles, [s for *_, s in built if not isinstance(s, Exception)]))
    outcomes = [s if isinstance(s, Exception) else next(reports) for *_, s in built]
    return [  # a cell's failure stays in its cell, and the sweep continues
        SweepCell(label, d, f, report=o) if isinstance(o, HcReport)
        else SweepCell(label, d, f, error=f"{type(o).__name__}: {o}")
        for (label, d, f, _), o in zip(built, outcomes)
    ]


def threshold_sweep(
    feeder: FeederModel,
    profiles: tuple[BaselineLoadProfile, ...],
    scenarios: list[EnergyScenario],
    thresholds: list[float],
    config: HcSearchConfig,
) -> list[HcReport]:
    """NAHC versus aggregated-QoS threshold: the report of each (scenario,
    threshold) reduction, scenario by scenario.

    Every scenario's power grid is judged in one kernel call and reduced at
    each threshold. Incidents do not depend on the threshold, so no
    reduction reads a candidate past a scenario's first incident, and those
    candidates stop there. A fleet error is raised before that call, and an
    error at or before a first incident, which the reduction at threshold 0
    (where only incidents fail) ends as, after it. Each threshold is checked
    as ``HcSearchConfig.qos_threshold`` is.
    """
    if not thresholds or not scenarios:
        raise ValueError("sweep grids must be non-empty")
    thresholds = [replace(config, qos_threshold=float(t)).qos_threshold for t in thresholds]
    envelope = [(config.doe.delta_perm, config.doe.factor)]
    searches = (_raised(s) for *_, s in _sweep_searches(feeder, scenarios, envelope, config))
    grids = [(_points(fleet, cfg), cfg, mode, True) for fleet, cfg, mode in searches]
    reports = []
    for (_, cfg, mode, _), grid in zip(grids, _evaluate_days(feeder, profiles, grids)):
        _raised(reduce_candidates(grid, 0.0, mode, cfg.scenario))
        reports += [reduce_candidates(grid, threshold, mode, cfg.scenario)
                    for threshold in thresholds]
    return reports


def summary_cells(report: HcReport | None) -> tuple:
    """The trailing cells of every summary row: the capacity, what limits it
    (``unconstrained`` within the grid), and the aggregated and minimum QoS
    at it. An error cell (no report) has none of them."""
    if report is None:
        return None, None, None, None
    limiting = "unconstrained" if report.unconstrained else report.limiting_factor
    return report.hc, limiting, report.qos_at_hc, report.min_qos_at_hc


def export_sweep_csv(cells: list[SweepCell]) -> str:
    return csv_table(
        ("scenario", "delta_perm", "factor", "nahc_kw", "limiting_factor", "qos_agg", "min_qos",
         "error"),
        ((c.scenario, c.delta_perm, c.factor, *summary_cells(c.report), c.error) for c in cells),
    )

"""Scenario-file-driven batch front-end.

One YAML scenario file describes a study: which feeder and baseline
profiles, how the fleet is obtained, the envelope parameters, limits, the
candidate grid, and the run mode. The CLI executes it and writes delimited
result tables plus a JSON summary; reruns with the same file and seed are
byte-identical.

Verbs: run, sweep, emit-plots, validate, init-example.
Exit codes: 0 success, 1 configuration error, 2 simulation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import yaml

from . import __version__
from .doe import DoeParams, Lane, _raised, _simulate_lanes, export_envelope_csv
from .ev import (
    DEFAULT_RATED_POWER_KW,
    DEFAULT_SCENARIOS,
    EnergyScenario,
    HourDistribution,
    load_fleet,
    validate_scenario_set,
)
from .feeder import (
    FeederError,
    FeederModel,
    bundled_baseline_profiles,
    bundled_feeder,
    load_baseline_profiles,
    load_feeder,
)
from .hc import (
    HcReport,
    HcSearchConfig,
    SWEEP_EV_COUNT,
    SWEEP_POWER,
    export_sweep_csv,
    fleet_for_scenario,
    network_aware_grid,
    reduce_searches,
    sensitivity_sweep,
    threshold_sweep,
)
from .incidents import export_incidents_csv
from .qos import export_qos_csv
from .trace import fmt

MODES = ("passive", "network_aware", "compare", "sweep_doe", "sweep_qos_threshold")

DELTA_PERM_RANGE = (0.0, 0.1)


class ConfigError(ValueError):
    """Scenario-file problem: missing path, bad schema, out-of-range value."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario file."""

    mode: str
    feeder_path: str            # "builtin" or a file path
    profiles_path: str
    output_dir: str
    seed: int
    scenario_labels: tuple[str, ...]
    fleet_source: str           # "generate" | "import"
    fleet_file: str | None
    rated_power_kw: float
    doe: DoeParams
    v_lower_pu: float
    v_upper_pu: float
    power_grid_kw: tuple[float, ...]
    qos_threshold: float
    dimension: str
    count_mode_power_kw: float
    delta_perm_grid: tuple[float, ...]
    factor_values: tuple[float, ...]
    qos_thresholds: tuple[float, ...]
    workers: int
    timestamp: bool
    scenario_definitions: dict[str, EnergyScenario]


EXAMPLE_SCENARIO = """\
# Study definition. All values shown are the defaults.
mode: compare            # passive | network_aware | compare | sweep_doe | sweep_qos_threshold
feeder: builtin          # builtin 19-node example, or path to a feeder YAML
baseline_profiles: builtin
output_dir: results
seed: 1
scenarios: [low, medium, high]

fleet:
  source: generate       # generate | import
  rated_power_kw: 22.0
  # fleet_file: sessions.csv   # required when source is import

doe:
  delta_perm: 0.05       # permissible voltage band, green zone starts at 1 - delta_perm
  factor: 0.5            # envelope floor as fraction of maximum power
  u_min: 0.9             # red-zone threshold (EN 50160 lower limit)
  voltage_source: fixed_point   # fixed_point | previous_step

limits:
  v_lower_pu: 0.9
  v_upper_pu: 1.1

search:
  power_min_kw: 1.0
  power_max_kw: 20.0
  power_step_kw: 1.0
  qos_threshold: 0.8
  dimension: power       # power | ev_count
  count_mode_power_kw: 7.4

sweep:
  delta_perm_min: 0.0
  delta_perm_max: 0.1
  delta_perm_step: 0.01
  factor_values: [0.0, 0.2, 0.5]
  qos_thresholds: [0.6, 0.7, 0.8, 0.9]

workers: 1
timestamp: false         # when true the manifest carries a wall-clock stamp
"""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping")
    return value


def _number(section: dict, field: str, default, kind=float):
    """Dotted ``field`` (or ``default``) through ``kind``; failures name the field."""
    try:
        return kind(section.get(field.rpartition(".")[2], default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _hour_dist(raw: dict, context: str) -> HourDistribution:
    try:
        return HourDistribution(
            mean_h=float(raw["mean_h"]),
            sd_h=float(raw["sd_h"]),
            lo_h=float(raw["lo_h"]),
            hi_h=float(raw["hi_h"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: bad hour distribution ({exc})") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping")
    return parse_scenario(raw, base_dir=path.parent)


def parse_scenario(raw: dict, base_dir: Path = Path(".")) -> ScenarioConfig:
    mode = str(raw.get("mode", "compare"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got '{mode}'")

    def _resolve(value: str, what: str) -> str:
        if value == "builtin":
            return value
        p = Path(value)
        if not p.is_absolute():
            p = base_dir / p
        if not p.exists():
            raise ConfigError(f"{what} file not found: {p}")
        return str(p)

    feeder_path = _resolve(str(raw.get("feeder", "builtin")), "feeder")
    profiles_path = _resolve(str(raw.get("baseline_profiles", "builtin")), "baseline profiles")

    labels = raw.get("scenarios", ["low", "medium", "high"])
    if not isinstance(labels, list) or not labels:
        raise ConfigError("scenarios must be a non-empty list of labels")

    definitions = dict(DEFAULT_SCENARIOS)
    for label, body in _section(raw, "scenario_definitions").items():
        context = f"scenario_definitions.{label}"
        try:
            definitions[str(label)] = EnergyScenario(
                label=str(label),
                energy_min_kwh=float(_require(body, "energy_min_kwh", context)),
                energy_max_kwh=float(_require(body, "energy_max_kwh", context)),
                arrival=_hour_dist(_require(body, "arrival", context), context),
                duration=_hour_dist(_require(body, "duration", context), context),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    if set(definitions) >= {"low", "medium", "high"}:
        try:
            validate_scenario_set(definitions)
        except ValueError as exc:
            raise ConfigError(str(exc))
    for label in labels:
        if label not in definitions:
            raise ConfigError(f"unknown scenario label '{label}'")

    # the inputs must fit each other: profiles for every household, sessions
    # only on the feeder's households and at most one per household
    try:
        feeder, profiles = _load_inputs(feeder_path, profiles_path)
    except FeederError as exc:
        raise ConfigError(str(exc)) from exc
    missing = sorted(set(feeder.household_ids) - {p.household for p in profiles})
    if missing:
        raise ConfigError(f"baseline profiles missing feeder households: {missing}")

    fleet = _section(raw, "fleet")
    source = str(fleet.get("source", "generate"))
    if source not in ("generate", "import"):
        raise ConfigError("fleet.source must be 'generate' or 'import'")
    fleet_file = fleet.get("fleet_file")
    if source == "import":
        if not fleet_file:
            raise ConfigError("fleet.source=import requires fleet.fleet_file")
        fleet_file = _resolve(str(fleet_file), "fleet")
        try:
            sessions = Counter(s.household for s in load_fleet(fleet_file))
        except ValueError as exc:
            raise ConfigError(f"fleet file {fleet_file}: {exc}")
        unknown = sorted(h for h in sessions if h not in feeder.compiled.household_slot)
        if unknown:
            raise ConfigError(f"fleet file {fleet_file}: households not on the feeder: {unknown}")
        repeated = sorted(h for h, n in sessions.items() if n > 1)
        if repeated:
            raise ConfigError(f"fleet file {fleet_file}: more than one session for {repeated}")
    rated_power_kw = _number(fleet, "fleet.rated_power_kw", DEFAULT_RATED_POWER_KW)
    if rated_power_kw <= 0:
        raise ConfigError("fleet.rated_power_kw must be > 0")

    doe_raw = _section(raw, "doe")
    delta_perm = _number(doe_raw, "doe.delta_perm", 0.05)
    if not DELTA_PERM_RANGE[0] <= delta_perm <= DELTA_PERM_RANGE[1]:
        raise ConfigError(
            f"doe.delta_perm = {delta_perm} outside the valid range "
            f"[{DELTA_PERM_RANGE[0]}, {DELTA_PERM_RANGE[1]}]"
        )
    factor = _number(doe_raw, "doe.factor", 0.5)
    u_min = _number(doe_raw, "doe.u_min", 0.9)
    try:
        doe = DoeParams(
            delta_perm=delta_perm,
            factor=factor,
            u_min=u_min,
            voltage_source=str(doe_raw.get("voltage_source", "fixed_point")),
        )
    except ValueError as exc:
        raise ConfigError(f"doe: {exc}")

    limits = _section(raw, "limits")
    v_lower = _number(limits, "limits.v_lower_pu", 0.9)
    v_upper = _number(limits, "limits.v_upper_pu", 1.1)
    if not v_lower < 1.0 < v_upper:
        raise ConfigError("limits: v_lower_pu < 1.0 < v_upper_pu required")

    search = _section(raw, "search")
    p_min = _number(search, "search.power_min_kw", 1.0)
    p_max = _number(search, "search.power_max_kw", 20.0)
    p_step = _number(search, "search.power_step_kw", 1.0)
    if p_min <= 0 or p_max < p_min or p_step <= 0:
        raise ConfigError("search: need 0 < power_min_kw <= power_max_kw and step > 0")
    grid = []
    p = p_min
    while p <= p_max + 1e-9:
        grid.append(round(p, 9))
        p += p_step
    qos_threshold = _number(search, "search.qos_threshold", 0.8)
    if not 0.0 < qos_threshold <= 1.0:
        raise ConfigError("search.qos_threshold must lie in (0, 1]")
    dimension = str(search.get("dimension", SWEEP_POWER))
    if dimension not in (SWEEP_POWER, SWEEP_EV_COUNT):
        raise ConfigError(f"search.dimension must be '{SWEEP_POWER}' or '{SWEEP_EV_COUNT}'")
    count_mode_power_kw = _number(search, "search.count_mode_power_kw", 7.4)
    if count_mode_power_kw <= 0:
        raise ConfigError("search.count_mode_power_kw must be > 0")

    sweep = _section(raw, "sweep")
    d_min = _number(sweep, "sweep.delta_perm_min", 0.0)
    d_max = _number(sweep, "sweep.delta_perm_max", 0.1)
    d_step = _number(sweep, "sweep.delta_perm_step", 0.01)
    if not (DELTA_PERM_RANGE[0] <= d_min <= d_max <= DELTA_PERM_RANGE[1]) or d_step <= 0:
        raise ConfigError(
            f"sweep: delta_perm grid must stay within "
            f"[{DELTA_PERM_RANGE[0]}, {DELTA_PERM_RANGE[1]}] with step > 0"
        )
    d_grid = []
    d = d_min
    while d <= d_max + 1e-9:
        d_grid.append(round(d, 9))
        d += d_step
    factor_values = _number(sweep, "sweep.factor_values", [0.0, 0.2, 0.5], _floats)
    if any(not 0.0 <= f <= 1.0 for f in factor_values):
        raise ConfigError("sweep.factor_values must lie in [0, 1]")
    qos_thresholds = _number(sweep, "sweep.qos_thresholds", [0.6, 0.7, 0.8, 0.9], _floats)
    if any(not 0.0 < q <= 1.0 for q in qos_thresholds):
        raise ConfigError("sweep.qos_thresholds must lie in (0, 1]")

    workers = _number(raw, "workers", 1, int)
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    return ScenarioConfig(
        mode=mode,
        feeder_path=feeder_path,
        profiles_path=profiles_path,
        output_dir=str(raw.get("output_dir", "results")),
        seed=_number(raw, "seed", 1, int),
        scenario_labels=tuple(str(s) for s in labels),
        fleet_source=source,
        fleet_file=fleet_file,
        rated_power_kw=rated_power_kw,
        doe=doe,
        v_lower_pu=v_lower,
        v_upper_pu=v_upper,
        power_grid_kw=tuple(grid),
        qos_threshold=qos_threshold,
        dimension=dimension,
        count_mode_power_kw=count_mode_power_kw,
        delta_perm_grid=tuple(d_grid),
        factor_values=factor_values,
        qos_thresholds=qos_thresholds,
        workers=workers,
        timestamp=bool(raw.get("timestamp", False)),
        scenario_definitions=definitions,
    )


def _config_hash(config: ScenarioConfig) -> str:
    blob = json.dumps(
        {k: v for k, v in sorted(config.__dict__.items())},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_inputs(feeder_path: str, profiles_path: str):
    feeder = bundled_feeder() if feeder_path == "builtin" else load_feeder(feeder_path)
    profiles = (
        bundled_baseline_profiles()
        if profiles_path == "builtin"
        else load_baseline_profiles(profiles_path)
    )
    return feeder, profiles


def _fleet(config: ScenarioConfig, feeder: FeederModel, search: HcSearchConfig):
    if config.fleet_source == "import":
        return load_fleet(config.fleet_file)
    return fleet_for_scenario(feeder, config.scenario_definitions[search.scenario], search)


def _search_config(config: ScenarioConfig, label: str) -> HcSearchConfig:
    return HcSearchConfig(
        power_grid_kw=config.power_grid_kw,
        qos_threshold=config.qos_threshold,
        doe=config.doe,
        scenario=label,
        seed=config.seed,
        rated_power_kw=config.rated_power_kw,
        v_lower_pu=config.v_lower_pu,
        v_upper_pu=config.v_upper_pu,
        sweep_dimension=config.dimension,
        count_mode_power_kw=config.count_mode_power_kw,
    )


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _report_json(report: HcReport) -> str:
    return json.dumps(
        {
            "mode": report.mode,
            "dimension": report.dimension,
            "scenario": report.scenario,
            "hc": report.hc,
            "limiting_factor": report.limiting_factor,
            "unconstrained": report.unconstrained,
            "qos_threshold": report.qos_threshold,
            "qos_at_hc": report.qos_at_hc,
            "min_qos_at_hc": report.min_qos_at_hc,
            "candidates_evaluated": [c.candidate for c in report.candidates],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


def _candidates_csv(report: HcReport) -> str:
    lines = [
        "candidate,passed,failure,n_incidents,first_incident_kind,"
        "qos_agg,min_qos,min_voltage_pu,max_slack_kva,fallback_steps,error"
    ]
    for c in report.candidates:
        first_kind = c.incidents[0].kind if c.incidents else ""
        min_v = "" if c.summary is None else fmt(c.summary.overall_min_voltage_pu)
        max_s = "" if c.summary is None else fmt(c.summary.max_slack_kva)
        lines.append(
            f"{fmt(c.candidate)},{c.failure is None},{c.failure or ''},"
            f"{len(c.incidents)},{first_kind},"
            f"{fmt(c.qos.aggregated) if c.qos else ''},"
            f"{fmt(c.qos.minimum) if c.qos else ''},"
            f"{min_v},{max_s},{c.fixed_point_fallback_steps},{c.error or ''}"
        )
    return "\n".join(lines) + "\n"


def _write_search_outputs(
    out: Path,
    report: HcReport,
    feeder: FeederModel,
    profiles,
    fleet,
    config: ScenarioConfig,
) -> None:
    _write(out / "report.json", _report_json(report))
    _write(out / "candidates.csv", _candidates_csv(report))
    failing = report.candidates[-1] if report.candidates and not report.unconstrained else None
    if failing is not None:
        _write(out / "incidents_next.csv", export_incidents_csv(failing.incidents))
    if report.mode != "network_aware" or report.hc is None:
        return

    # trace exports at the hosting-capacity candidate
    hc_power = report.hc if config.dimension == SWEEP_POWER else config.count_mode_power_kw
    sub_fleet = fleet if config.dimension == SWEEP_POWER else fleet[: int(report.hc)]
    lanes = [Lane(sub_fleet, hc_power, config.doe), Lane(sub_fleet, hc_power)]
    na_trace, base_trace = (_raised(day).trace for day in _simulate_lanes(feeder, profiles, lanes))

    comp = feeder.compiled
    at_hc = next((c for c in report.candidates if c.candidate == report.hc), None)
    if at_hc is not None and at_hc.qos is not None:
        _write(out / "qos_at_hc.csv", export_qos_csv(at_hc.qos, comp.household_node))

    _write(out / "envelope_trace.csv", export_envelope_csv(na_trace, feeder))

    power_lines = ["step,household,baseline_kw,network_aware_kw"]
    for t in range(na_trace.step_count):
        for e, h in enumerate(na_trace.household_ids):
            power_lines.append(
                f"{t},{h},{fmt(base_trace.ev_power_kw[t, e])},{fmt(na_trace.ev_power_kw[t, e])}"
            )
    _write(out / "profiles_power.csv", "\n".join(power_lines) + "\n")

    vu = [comp.household_voltage[comp.household_slot[h]] for h in na_trace.household_ids]
    volt_lines = ["step,household,baseline_pu,network_aware_pu"]
    for t in range(na_trace.step_count):
        for h, n in zip(na_trace.household_ids, vu):
            volt_lines.append(
                f"{t},{h},{fmt(base_trace.voltage_pu[t, n])},{fmt(na_trace.voltage_pu[t, n])}"
            )
    _write(out / "profiles_voltage.csv", "\n".join(volt_lines) + "\n")

    # per-customer QoS across the whole candidate power grid (locational
    # analysis): a power search's own candidates, then the grid after them
    search = _search_config(config, report.scenario)
    grid_results = list(report.candidates) if config.dimension == SWEEP_POWER else []
    rest = search.power_grid_kw[len(grid_results):]
    if rest:
        grid_results += network_aware_grid(
            feeder, profiles, fleet, replace(search, power_grid_kw=rest)
        )
    qos_lines = ["candidate_kw,household,node,e_baseline_kwh,e_network_aware_kwh,qos"]
    for result in grid_results:
        if result.qos is None:
            continue
        for i, h in enumerate(result.qos.households):
            qos_lines.append(
                f"{fmt(result.candidate)},{h},{comp.household_node[h]},"
                f"{fmt(result.qos.e_baseline_kwh[i])},"
                f"{fmt(result.qos.e_network_aware_kwh[i])},"
                f"{fmt(result.qos.individual[i])}"
            )
    _write(out / "qos_by_power.csv", "\n".join(qos_lines) + "\n")


def run_scenario(config: ScenarioConfig, out_dir: Path) -> None:
    feeder, profiles = _load_inputs(config.feeder_path, config.profiles_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "version": __version__,
        "config_sha256": _config_hash(config),
        "seed": config.seed,
        "mode": config.mode,
        "scenarios": list(config.scenario_labels),
    }
    if config.timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    if config.mode in ("passive", "network_aware", "compare"):
        modes = [m for m in ("passive", "network_aware") if config.mode in (m, "compare")]
        searches = []
        for label in config.scenario_labels:
            search = _search_config(config, label)
            fleet = _fleet(config, feeder, search)
            searches += [(fleet, search, mode) for mode in modes]
        table = ["scenario,mode,hc,limiting_factor,qos_at_hc,min_qos_at_hc"]
        reports = reduce_searches(feeder, profiles, searches)
        for (fleet, search, mode), report in zip(searches, map(_raised, reports)):
            label = search.scenario
            _write_search_outputs(
                out_dir / f"{mode}_{label}", report, feeder, profiles, fleet, config
            )
            limiting = "unconstrained" if report.unconstrained else report.limiting_factor
            if mode == "passive":
                table.append(f"{label},passive,{fmt(report.hc)},{limiting},,")
            else:
                table.append(
                    f"{label},network_aware,{fmt(report.hc)},{limiting},"
                    f"{fmt(report.qos_at_hc)},{fmt(report.min_qos_at_hc)}"
                )
        if config.mode == "compare":
            _write(out_dir / "table1.csv", "\n".join(table) + "\n")

    elif config.mode == "sweep_doe":
        scenarios = [config.scenario_definitions[s] for s in config.scenario_labels]
        cells = sensitivity_sweep(
            feeder,
            profiles,
            scenarios,
            list(config.delta_perm_grid),
            list(config.factor_values),
            _search_config(config, config.scenario_labels[0]),
            workers=config.workers,
        )
        _write(out_dir / "sweep_doe.csv", export_sweep_csv(cells))

    elif config.mode == "sweep_qos_threshold":
        scenarios = [config.scenario_definitions[s] for s in config.scenario_labels]
        points = threshold_sweep(
            feeder,
            profiles,
            scenarios,
            list(config.qos_thresholds),
            _search_config(config, config.scenario_labels[0]),
        )
        lines = ["scenario,qos_threshold,nahc_kw,limiting_factor,qos_at_hc,min_qos_at_hc"]
        for p in points:
            lines.append(
                f"{p.scenario},{fmt(p.qos_threshold)},{fmt(p.hc)},"
                f"{p.limiting_factor or 'unconstrained'},{fmt(p.qos_at_hc)},{fmt(p.min_qos_at_hc)}"
            )
        _write(out_dir / "threshold_sweep.csv", "\n".join(lines) + "\n")


def emit_plot_data(results_dir: Path, out_dir: Path) -> list[str]:
    """Derive tidy plot-ready tables from a finished run's result files."""
    written: list[str] = []
    out_dir.mkdir(parents=True, exist_ok=True)

    sweep = results_dir / "sweep_doe.csv"
    if sweep.exists():
        rows = sweep.read_text(encoding="utf-8").splitlines()
        head = "scenario,delta_perm,factor,nahc_kw,qos_agg,limiting_factor"
        out = [head]
        for line in rows[1:]:
            parts = line.split(",")
            out.append(
                f"{parts[0]},{parts[1]},{parts[2]},{parts[3]},{parts[5]},{parts[4]}"
            )
        _write(out_dir / "fig_sensitivity.csv", "\n".join(out) + "\n")
        written.append("fig_sensitivity.csv")

    threshold = results_dir / "threshold_sweep.csv"
    if threshold.exists():
        rows = threshold.read_text(encoding="utf-8").splitlines()
        out = ["scenario,qos_threshold,nahc_kw,min_qos"]
        for line in rows[1:]:
            parts = line.split(",")
            out.append(f"{parts[0]},{parts[1]},{parts[2]},{parts[5]}")
        _write(out_dir / "fig_threshold.csv", "\n".join(out) + "\n")
        written.append("fig_threshold.csv")

    for sub in sorted(results_dir.glob("network_aware_*")):
        label = sub.name.removeprefix("network_aware_")
        qbp = sub / "qos_by_power.csv"
        if qbp.exists():
            rows = qbp.read_text(encoding="utf-8").splitlines()
            out = ["scenario,candidate_kw,household,node,qos"]
            for line in rows[1:]:
                parts = line.split(",")
                out.append(f"{label},{parts[0]},{parts[1]},{parts[2]},{parts[5]}")
            _write(out_dir / f"fig_customer_qos_{label}.csv", "\n".join(out) + "\n")
            written.append(f"fig_customer_qos_{label}.csv")
        for stem in ("profiles_power", "profiles_voltage"):
            src = sub / f"{stem}.csv"
            if src.exists():
                _write(out_dir / f"fig_{stem}_{label}.csv", src.read_text(encoding="utf-8"))
                written.append(f"fig_{stem}_{label}.csv")

    if not written:
        raise ConfigError(f"no result files found under {results_dir}")
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="evhc",
        description="EV hosting-capacity studies on radial LV feeders",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute the scenario file's run mode")
    run_p.add_argument("scenario", help="path to the scenario YAML")
    run_p.add_argument("--output-dir", help="override the file's output_dir")
    run_p.add_argument("--seed", type=int, help="override the file's seed")
    run_p.add_argument("--mode", choices=MODES, help="override the file's run mode")
    run_p.add_argument("--workers", type=int, help="override the worker count")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep from the scenario file")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument(
        "--which", choices=("doe", "qos-threshold"), default="doe",
        help="doe: (delta_perm, factor) grid; qos-threshold: QoS threshold grid",
    )
    sweep_p.add_argument("--output-dir")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--workers", type=int)

    plots_p = sub.add_parser("emit-plots", help="derive plot-ready tables from results")
    plots_p.add_argument("results_dir")
    plots_p.add_argument("--output-dir", help="defaults to RESULTS_DIR/plots")

    val_p = sub.add_parser("validate", help="check a scenario file and exit")
    val_p.add_argument("scenario")

    init_p = sub.add_parser("init-example", help="write a documented example scenario file")
    init_p.add_argument("--output", default="scenario.yaml")

    args = parser.parse_args(argv)

    try:
        if args.verb == "init-example":
            Path(args.output).write_text(EXAMPLE_SCENARIO, encoding="utf-8")
            print(f"wrote {args.output}")
            return 0

        if args.verb == "validate":
            load_scenario(args.scenario)
            print("scenario file is valid")
            return 0

        if args.verb == "emit-plots":
            results = Path(args.results_dir)
            if not results.is_dir():
                raise ConfigError(f"results directory not found: {results}")
            out = Path(args.output_dir) if args.output_dir else results / "plots"
            for name in emit_plot_data(results, out):
                print(f"wrote {out / name}")
            return 0

        config = load_scenario(args.scenario)
        if args.verb == "sweep":
            mode = "sweep_doe" if args.which == "doe" else "sweep_qos_threshold"
            config = replace(config, mode=mode)
        elif args.mode:
            config = replace(config, mode=args.mode)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        workers = getattr(args, "workers", None)
        if workers is not None:
            if workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {workers}")
            config = replace(config, workers=workers)
        out_dir = Path(args.output_dir) if args.output_dir else Path(config.output_dir)

        try:
            run_scenario(config, out_dir)
        except (ConfigError, FeederError):
            raise
        except Exception as exc:
            print(f"simulation error: {exc}", file=sys.stderr)
            return 2
        print(f"results written to {out_dir}")
        return 0

    except (ConfigError, FeederError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

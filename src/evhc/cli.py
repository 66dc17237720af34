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
import csv
import hashlib
import json
import math
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import yaml

from . import __version__
from .doe import VOLTAGE_SOURCES, DoeParams, Lane, _raised, _replay, export_envelope_csv
from .ev import (
    DEFAULT_RATED_POWER_KW,
    DEFAULT_SCENARIOS,
    EnergyScenario,
    EvSession,
    HourDistribution,
    load_fleet,
    validate_scenario_set,
)
from .feeder import (
    BaselineLoadProfile,
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
    _evaluate_days,
    _points,
    _reduce_search,
    export_sweep_csv,
    fleet_for_scenario,
    sensitivity_sweep,
    threshold_sweep,
)
from .incidents import export_incidents_csv
from .qos import export_qos_csv
from .trace import SimulationTrace, csv_table

MODES = ("passive", "network_aware", "compare", "sweep_doe", "sweep_qos_threshold")

DELTA_PERM_RANGE = (0.0, 0.1)

# Every point of a grid is a lane of one kernel call; more is a mistyped step.
MAX_GRID_POINTS = 1000

_BUILTIN = "builtin"


class ConfigError(ValueError):
    """Scenario-file problem: missing path, bad schema, out-of-range value."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario file, with the inputs loaded to check it;
    those take no part in equality or in the manifest's config hash."""

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
    workers: int                # hashed into the manifest; no effect on the run
    timestamp: bool
    scenario_definitions: dict[str, EnergyScenario]
    feeder: FeederModel = field(compare=False, repr=False)
    profiles: tuple[BaselineLoadProfile, ...] = field(compare=False, repr=False)
    fleet: list[EvSession] | None = field(compare=False, repr=False)  # an imported fleet


def _one_of(*choices):
    return lambda v: None if v in choices else f"must be one of {choices}, got {v!r}"


def _above(bound):
    return lambda v: None if v > bound else f"must be > {bound}, got {v}"


def _below(bound):
    return lambda v: None if v < bound else f"must be < {bound}, got {v}"


def _within(lo, hi):
    return lambda v: None if lo <= v <= hi else f"{v} outside the valid range [{lo}, {hi}]"


def _by(cls, name: str):
    """The check the dataclass ``cls`` makes of its field ``name``, on a value
    or on each value of a list."""
    def check(value):
        try:
            for v in value if isinstance(value, tuple) else (value,):
                cls(**{name: v})
        except ValueError as exc:
            return str(exc)
    return check


class _Field(NamedTuple):
    path: str                   # dotted YAML path; its last part is a unique key
    kind: type | list           # [t]: a non-empty list of t
    default: object             # None: optional, commented out in the example
    check: object = None        # converted value -> what is wrong with it, or None
    note: str = ""              # the example's comment


_GRID = HcSearchConfig.power_grid_kw
# One row per setting drives parsing, the "<path>: ..." configuration errors
# and the init-example file. A key fills the config field of its name. Defaults
# and checks come from the library dataclasses where they have them.
_FIELDS = (
    _Field("mode", str, "compare", _one_of(*MODES), " | ".join(MODES)),
    _Field("feeder", str, _BUILTIN, note="builtin 19-node example, or path to a feeder YAML"),
    _Field("baseline_profiles", str, _BUILTIN),
    _Field("output_dir", str, "results"),
    _Field("seed", int, HcSearchConfig.seed, _within(0, math.inf)),
    _Field("scenarios", [str], tuple(DEFAULT_SCENARIOS)),
    _Field("fleet.source", str, "generate", _one_of("generate", "import"),
           "generate | import (not in the sweep modes)"),
    _Field("fleet.rated_power_kw", float, DEFAULT_RATED_POWER_KW, _above(0.0)),
    _Field("fleet.fleet_file", str, None, note="session CSV, required when source is import"),
    _Field("doe.delta_perm", float, DoeParams.delta_perm, _within(*DELTA_PERM_RANGE),
           "permissible voltage band, green zone starts at 1 - delta_perm"),
    _Field("doe.factor", float, DoeParams.factor, _by(DoeParams, "factor"),
           "envelope floor as fraction of maximum power"),
    _Field("doe.u_min", float, DoeParams.u_min, _by(DoeParams, "u_min"),
           "red-zone threshold (EN 50160 lower limit)"),
    _Field("doe.voltage_source", str, DoeParams.voltage_source, _by(DoeParams, "voltage_source"),
           " | ".join(VOLTAGE_SOURCES)),
    _Field("limits.v_lower_pu", float, HcSearchConfig.v_lower_pu, _below(1.0)),
    _Field("limits.v_upper_pu", float, HcSearchConfig.v_upper_pu, _above(1.0)),
    _Field("search.power_min_kw", float, _GRID[0], _above(0.0)),
    _Field("search.power_max_kw", float, _GRID[-1]),
    _Field("search.power_step_kw", float, _GRID[1] - _GRID[0], _above(0.0)),
    _Field("search.qos_threshold", float, HcSearchConfig.qos_threshold,
           _by(HcSearchConfig, "qos_threshold")),
    _Field("search.dimension", str, HcSearchConfig.sweep_dimension,
           _by(HcSearchConfig, "sweep_dimension"), f"{SWEEP_POWER} | {SWEEP_EV_COUNT}"),
    _Field("search.count_mode_power_kw", float, HcSearchConfig.count_mode_power_kw,
           _by(HcSearchConfig, "count_mode_power_kw")),
    _Field("sweep.delta_perm_min", float, DELTA_PERM_RANGE[0], _within(*DELTA_PERM_RANGE)),
    _Field("sweep.delta_perm_max", float, DELTA_PERM_RANGE[1], _within(*DELTA_PERM_RANGE)),
    _Field("sweep.delta_perm_step", float, 0.01, _above(0.0)),
    _Field("sweep.factor_values", [float], (0.0, 0.2, 0.5), _by(DoeParams, "factor")),
    _Field("sweep.qos_thresholds", [float], (0.6, 0.7, 0.8, 0.9),
           _by(HcSearchConfig, "qos_threshold")),
    _Field("workers", int, 1, _above(0),
           "accepted for old files, no effect: every study runs in one process"),
    _Field("timestamp", bool, False, note="when true the manifest carries a wall-clock stamp"),
)
_SECTIONS = tuple(dict.fromkeys(path.rpartition(".")[0] for path, *_ in _FIELDS if "." in path))
_KNOWN = {path for path, *_ in _FIELDS} | {*_SECTIONS, "scenario_definitions"}


def _convert(path: str, kind, value):
    """``value`` as ``kind``: a type, ``[t]`` (a non-empty list of ``t``) or
    ``{key: kind}`` (a mapping with exactly those keys). A bool is no number,
    a number is an int or a float only when exactly so, and NaN and ±inf are
    no number at all."""
    if isinstance(kind, dict):
        mapping = _convert(path, dict, value or {})
        for key in [*mapping, *kind]:
            if key not in kind or key not in mapping:
                problem = "unknown" if key not in kind else "missing required"
                raise ConfigError(f"{path}.{key}: {problem} field")
        return {key: _convert(f"{path}.{key}", kind[key], mapping[key]) for key in kind}

    def scalar(kind: type, value):
        if kind in (int, float) and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if isinstance(value, bool) == (kind is bool):
            if kind in (int, float) and isinstance(value, (int, float)) and kind(value) == value:
                return kind(value)
            if isinstance(value, kind):
                return value
        raise TypeError

    try:
        if not isinstance(kind, list):
            return scalar(kind, value)
        if isinstance(value, list) and value:
            return tuple(scalar(kind[0], v) for v in value)
        raise TypeError
    except (TypeError, OverflowError):
        of = f"a non-empty list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
        raise ConfigError(f"{path}: expected {of}, got {value!r}") from None


def _settings(raw: dict) -> dict:
    """Each table field's value, or its default, converted and checked, by
    key; a key that is no field of its section is an error."""
    sections = {"": raw} | {name: _convert(name, dict, raw.get(name) or {}) for name in _SECTIONS}
    for name, mapping in sections.items():
        for key in mapping:
            path = f"{name}.{key}" if name else str(key)
            if path not in _KNOWN or "." in str(key):
                raise ConfigError(f"{path}: unknown field")
    settings = {}
    for path, kind, default, check, _ in _FIELDS:
        section, _, key = path.rpartition(".")
        value = sections[section].get(key)
        if key not in sections[section] or (value is None and default is None):
            settings[key] = default  # absent, or an optional field left empty
            continue
        settings[key] = _convert(path, kind, value)
        problem = check and check(settings[key])
        if problem:
            raise ConfigError(f"{path}: {problem}")
    return settings


def _example() -> str:
    """The ``init-example`` file: every field at its default, with its note."""
    lines, section = ["# Study definition. All values shown are the defaults."], ""
    for path, _, default, _, note in _FIELDS:
        head, _, key = path.rpartition(".")
        if head != section:
            lines += ["", f"{head}:"] if head else [""]
            section = head
        value = json.dumps(default).replace('"', "")  # YAML flow style, unquoted
        line = "  " * bool(head) + (f"# {key}:" if default is None else f"{key}: {value}")
        lines.append(f"{line:<24} # {note}" if note else line)
    return "\n".join(lines) + "\n"


def _grid(settings: dict, section: str, lo: str, hi: str, step: str) -> tuple[float, ...]:
    """``lo`` to ``hi`` in steps of ``step``, both ends included."""
    x, end = settings[lo], settings[hi]
    if end < x:
        raise ConfigError(f"{section}.{hi}: {end} is below {lo} {x}")
    if not (end + 1e-9 - x) / settings[step] < MAX_GRID_POINTS:
        raise ConfigError(
            f"{section}.{step}: {settings[step]} makes more than {MAX_GRID_POINTS} points "
            f"from {x} to {end}"
        )
    grid = []
    while x <= end + 1e-9:
        grid.append(round(x, 9))
        x += settings[step]
    return tuple(grid)


_HOURS = dict.fromkeys(("mean_h", "sd_h", "lo_h", "hi_h"), float)
_DEFINITION = {
    "energy_min_kwh": float, "energy_max_kwh": float, "arrival": _HOURS, "duration": _HOURS
}


def _definition(label: str, body) -> EnergyScenario:
    """One ``scenario_definitions`` entry; each of its fields is required. The
    label names table rows and output directories, so it holds no character
    that would split a row or a path."""
    path = f"scenario_definitions.{label}"
    found = [c for c in ',"\n\r/\\' if c in label]
    if found:
        raise ConfigError(f"{path}: a label may not contain {', '.join(map(repr, found))}")
    v = _convert(path, _DEFINITION, body)
    arrival, duration = HourDistribution(**v["arrival"]), HourDistribution(**v["duration"])
    try:
        return EnergyScenario(label, v["energy_min_kwh"], v["energy_max_kwh"], arrival, duration)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """The scenario file at ``path``, checked, with its inputs loaded."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}")
    if raw is None:  # an empty file: every field at its default
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping")
    v = _settings(raw)
    labels = v["scenarios"]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"scenarios: repeated labels {repeated}")
    definitions = dict(DEFAULT_SCENARIOS)
    bodies = _convert("scenario_definitions", dict, raw.get("scenario_definitions") or {})
    for label, body in bodies.items():
        definitions[str(label)] = _definition(str(label), body)
    try:
        validate_scenario_set(definitions)
    except ValueError as exc:
        raise ConfigError(f"scenario_definitions: {exc}") from exc
    unknown = [label for label in labels if label not in definitions]
    if unknown:
        raise ConfigError(f"scenarios: unknown label '{unknown[0]}'")

    def resolve(setting: str) -> str:  # relative to the scenario file
        value = v[setting.rpartition(".")[2]]
        if value == _BUILTIN:
            return value
        p = Path(value)
        if not p.is_absolute():
            p = path.parent / p
        if not p.exists():
            raise ConfigError(f"{setting}: file not found: {p}")
        return str(p)

    # the inputs must fit each other: profiles for every household, sessions
    # only on the feeder's households and at most one per household
    feeder_path, profiles_path = resolve("feeder"), resolve("baseline_profiles")
    feeder = bundled_feeder() if feeder_path == _BUILTIN else load_feeder(feeder_path)
    profiles = (  # a FeederError from either is a configuration error too
        bundled_baseline_profiles()
        if profiles_path == _BUILTIN
        else load_baseline_profiles(profiles_path)
    )
    missing = sorted(set(feeder.household_ids) - {p.household for p in profiles})
    if missing:
        raise ConfigError(f"baseline_profiles: missing feeder households: {missing}")
    fleet = None
    if v["source"] == "import":
        if v["fleet_file"] is None:
            raise ConfigError("fleet.fleet_file: required when fleet.source is import")
        where = v["fleet_file"] = resolve("fleet.fleet_file")  # the config keeps it resolved
        try:
            fleet = load_fleet(where)
        except ValueError as exc:
            raise ConfigError(f"fleet.fleet_file: {where}: {exc}") from exc
        sessions = Counter(s.household for s in fleet)
        for problem, households in (
            ("households not on the feeder:", set(sessions) - set(feeder.household_ids)),
            ("more than one session for", {h for h, n in sessions.items() if n > 1}),
        ):
            if households:
                raise ConfigError(f"fleet.fleet_file: {where}: {problem} {sorted(households)}")

    # every setting whose key names a config field fills it
    return ScenarioConfig(
        **{f.name: v[f.name] for f in fields(ScenarioConfig) if f.compare and f.name in v},
        feeder_path=feeder_path,
        profiles_path=profiles_path,
        scenario_labels=labels,
        fleet_source=v["source"],
        doe=DoeParams(**{f.name: v[f.name] for f in fields(DoeParams)}),
        power_grid_kw=_grid(v, "search", "power_min_kw", "power_max_kw", "power_step_kw"),
        delta_perm_grid=_grid(v, "sweep", "delta_perm_min", "delta_perm_max", "delta_perm_step"),
        scenario_definitions=definitions,
        feeder=feeder,
        profiles=profiles,
        fleet=fleet,
    )


def _config_hash(config: ScenarioConfig) -> str:
    """Hash of the settings, without the loaded inputs."""
    settings = {f.name: getattr(config, f.name) for f in fields(config) if f.compare}
    blob = json.dumps(settings, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _fleet(config: ScenarioConfig, feeder: FeederModel, search: HcSearchConfig):
    if config.fleet is not None:
        return config.fleet
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
    return csv_table(
        ("candidate", "passed", "failure", "n_incidents", "first_incident_kind", "qos_agg",
         "min_qos", "min_voltage_pu", "max_slack_kva", "fallback_steps", "error"),
        ((c.candidate, c.failure is None, c.failure, len(c.incidents),
          c.incidents[0].kind if c.incidents else None, c.qos and c.qos.aggregated,
          c.qos and c.qos.minimum, c.overall_min_voltage_pu, c.max_slack_kva,
          c.fixed_point_fallback_steps, c.error) for c in report.candidates),
    )


def _write_search_outputs(
    out: Path,
    report: HcReport,
    feeder: FeederModel,
    grid: list,
    hc_days: Iterable[SimulationTrace],
) -> None:
    """Write one search's files; a network-aware HC adds its day (``hc_days``,
    read only then: the network-aware and passive trace) and per-customer QoS
    over its power ``grid``."""
    _write(out / "report.json", _report_json(report))
    _write(out / "candidates.csv", _candidates_csv(report))
    failing = report.candidates[-1] if report.candidates and not report.unconstrained else None
    if failing is not None:
        _write(out / "incidents_next.csv", export_incidents_csv(failing.incidents))
    if report.mode != "network_aware" or report.hc is None:
        return

    # trace exports at the hosting-capacity candidate
    na_trace, base_trace = hc_days

    comp = feeder.compiled
    at_hc = next((c for c in report.candidates if c.candidate == report.hc), None)
    if at_hc is not None and at_hc.qos is not None:
        _write(out / "qos_at_hc.csv", export_qos_csv(at_hc.qos, comp.household_node))

    _write(out / "envelope_trace.csv", export_envelope_csv(na_trace, feeder))

    vu = [comp.household_voltage[comp.household_slot[h]] for h in na_trace.household_ids]
    for name, unit, base, na in (
        ("power", "kw", base_trace.ev_power_kw, na_trace.ev_power_kw),
        ("voltage", "pu", base_trace.voltage_pu[:, vu], na_trace.voltage_pu[:, vu]),
    ):
        _write(out / f"profiles_{name}.csv", csv_table(
            ("step", "household", f"baseline_{unit}", f"network_aware_{unit}"),
            ((t, *cells) for t, (b, n) in enumerate(zip(base.tolist(), na.tolist()))
             for cells in zip(na_trace.household_ids, b, n)),
        ))

    # per-customer QoS across the whole candidate power grid (locational analysis)
    _write(out / "qos_by_power.csv", csv_table(
        ("candidate_kw", "household", "node", "e_baseline_kwh", "e_network_aware_kwh", "qos"),
        ((result.candidate, h, comp.household_node[h], *energies)
         for result in map(_raised, grid) if result.qos is not None
         for h, *energies in zip(result.qos.households, result.qos.e_baseline_kwh.tolist(),
                                 result.qos.e_network_aware_kwh.tolist(),
                                 result.qos.individual.tolist())),
    ))


def _hc_days(feeder: FeederModel, profiles, lane: Lane, day) -> Iterator[SimulationTrace]:
    """The network-aware and then the passive trace at a network-aware HC,
    each rebuilt as it is read from ``lane``, the HC's, and ``day``, the
    network-aware day its kernel lane kept."""
    yield _replay(feeder, profiles, lane, day)[1]
    yield _replay(feeder, profiles, lane._replace(params=None))[1]


def run_scenario(config: ScenarioConfig, out_dir: Path) -> None:
    feeder, profiles = config.feeder, config.profiles
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
        # one kernel pass: one judged call holds every search's grid, each
        # reduced to its report. A passive grid runs under its own key, so its
        # lanes stop past its first incident. A network-aware grid runs
        # unkeyed: its lanes keep the clamp voltages the day at its HC is
        # rebuilt from, and its power grid, which qos_by_power.csv reads
        # whole, is judged too.
        modes = [m for m in ("passive", "network_aware") if config.mode in (m, "compare")]
        runs = []
        for label in config.scenario_labels:
            search = _search_config(config, label)
            fleet = _fleet(config, feeder, search)
            runs += [(fleet, search, mode) for mode in modes]
        jobs, keys, spans = [], [], {}  # (run, dimension) -> its grid's slice of jobs
        for i, (fleet, search, mode) in enumerate(runs):
            passive = mode == "passive"
            grids = [search] if passive else [search, replace(search, sweep_dimension=SWEEP_POWER)]
            for cfg in grids:
                if (i, cfg.sweep_dimension) not in spans:
                    points = _points(fleet, cfg)
                    spans[i, cfg.sweep_dimension] = slice(len(jobs), len(jobs) + len(points))
                    jobs += [(point, cfg, mode) for point in points]
                    keys += [i if passive else None] * len(points)
        days, judged = _evaluate_days(feeder, profiles, jobs, keys) if jobs else ([], [])

        table = []
        for i, (fleet, search, mode) in enumerate(runs):
            span = spans[i, search.sweep_dimension]
            label, report = search.scenario, _raised(_reduce_search(judged[span], search, mode))
            hc_days = ()
            if mode != "passive" and report.hc is not None:
                points = _points(fleet, search)
                k = next(k for k, point in enumerate(points) if point[0] == report.hc)
                lane = Lane(*points[k][1:], config.doe)
                hc_days = _hc_days(feeder, profiles, lane, days[span][k])
            grid = judged[spans.get((i, SWEEP_POWER), span)]
            _write_search_outputs(out_dir / f"{mode}_{label}", report, feeder, grid, hc_days)
            limiting = "unconstrained" if report.unconstrained else report.limiting_factor
            # a passive report has no QoS, so its QoS cells are empty
            table.append((label, mode, report.hc, limiting, report.qos_at_hc, report.min_qos_at_hc))
        if config.mode == "compare":
            _write(out_dir / "table1.csv", csv_table(
                ("scenario", "mode", "hc", "limiting_factor", "qos_at_hc", "min_qos_at_hc"), table))

    else:  # a sweep: one table over every scenario
        scenarios = [config.scenario_definitions[s] for s in config.scenario_labels]
        search = _search_config(config, config.scenario_labels[0])
        if config.mode == "sweep_doe":
            cells = sensitivity_sweep(feeder, profiles, scenarios, list(config.delta_perm_grid),
                                      list(config.factor_values), search)
            _write(out_dir / "sweep_doe.csv", export_sweep_csv(cells))
        else:
            points = threshold_sweep(feeder, profiles, scenarios, list(config.qos_thresholds),
                                     search)
            _write(out_dir / "threshold_sweep.csv", csv_table(
                ("scenario", "qos_threshold", "nahc_kw", "limiting_factor", "qos_at_hc",
                 "min_qos_at_hc"),
                ((p.scenario, p.qos_threshold, p.hc, p.limiting_factor or "unconstrained",
                  p.qos_at_hc, p.min_qos_at_hc) for p in points),
            ))


def _columns(path: Path, names: Sequence[str]) -> list[list[str]]:
    """The named columns of the result table at ``path``, row by row. A table
    that is not UTF-8, lacks a column or has a ragged row is a ConfigError."""
    try:
        with path.open(encoding="utf-8", newline="") as f:
            header, *rows = [*csv.reader(f)] or [[]]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if missing := [name for name in names if name not in header]:
        raise ConfigError(f"{path}: no column {', '.join(missing)}")
    if ragged := [n for n, row in enumerate(rows, 2) if len(row) != len(header)]:
        raise ConfigError(f"{path}: row {ragged[0]} does not have the header's {len(header)} cells")
    at = [header.index(name) for name in names]
    return [[row[i] for i in at] for row in rows]


def emit_plot_data(results_dir: Path, out_dir: Path) -> list[str]:
    """Derive tidy plot-ready tables from a finished run's result files,
    reading each column by its header name. Every table is read before any
    is written."""
    figures = {}  # file name -> text
    if (sweep := results_dir / "sweep_doe.csv").exists():
        head = ("scenario", "delta_perm", "factor", "nahc_kw", "qos_agg", "limiting_factor")
        figures["fig_sensitivity.csv"] = csv_table(head, _columns(sweep, head))
    if (threshold := results_dir / "threshold_sweep.csv").exists():
        rows = _columns(threshold, ("scenario", "qos_threshold", "nahc_kw", "min_qos_at_hc"))
        figures["fig_threshold.csv"] = csv_table(
            ("scenario", "qos_threshold", "nahc_kw", "min_qos"), rows)
    for sub in sorted(results_dir.glob("network_aware_*")):
        label = sub.name.removeprefix("network_aware_")
        if (qbp := sub / "qos_by_power.csv").exists():
            head = ("candidate_kw", "household", "node", "qos")
            figures[f"fig_customer_qos_{label}.csv"] = csv_table(
                ("scenario", *head), ([label, *row] for row in _columns(qbp, head)))
        for name, unit in (("power", "kw"), ("voltage", "pu")):
            if (src := sub / f"profiles_{name}.csv").exists():
                head = ("step", "household", f"baseline_{unit}", f"network_aware_{unit}")
                figures[f"fig_profiles_{name}_{label}.csv"] = csv_table(head, _columns(src, head))

    if not figures:
        raise ConfigError(f"no result files found under {results_dir}")
    for name, text in figures.items():
        _write(out_dir / name, text)
    return list(figures)


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
    run_p.add_argument("--workers", type=int, help="accepted for old command lines; no effect")

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
            Path(args.output).write_text(_example(), encoding="utf-8")
            print(f"wrote {args.output}")
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
        elif getattr(args, "mode", None):
            config = replace(config, mode=args.mode)
        if config.fleet_source == "import" and config.mode.startswith("sweep_"):
            raise ConfigError(
                f"fleet.source: mode {config.mode} generates each scenario's fleet, "
                "so 'import' works only in passive, network_aware and compare modes"
            )
        if args.verb == "validate":
            print("scenario file is valid")
            return 0
        if args.seed is not None:
            config = replace(config, seed=_settings({"seed": args.seed})["seed"])
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

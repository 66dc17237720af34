"""Outside-in span and counter recorder for one ``evhc`` study.

``install`` replaces the public functions of the ``evhc`` layers with timing
wrappers in every loaded ``evhc`` module that holds them, because each
``from .x import f`` binds its own copy. Nothing in the package changes and
counters are read only from arguments, return values and raised exceptions.

Every wrapped call adds to its name's call count, total time and self time
(its time minus the time of wrapped calls made inside it). Calls other than
the hot ``powerflow.solve`` and ``doe.envelope_bound`` also keep a full span
record: name, start, end and the span that caused it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

SOLVE = "powerflow.solve"
ENVELOPE = "doe.envelope_bound"
NA_HORIZON = "doe.na_horizon"
PASSIVE_HORIZON = "doe.passive_horizon"
FEEDER_LOAD = "feeder.load"
SEARCHES = ("hc.passive_hc", "hc.network_aware_hc", "hc.threshold_sweep", "hc.sensitivity_sweep")
HC_SPANS = SEARCHES + ("hc.network_aware_grid",)
EXPORT_SPANS = (
    "cli.export", "doe.export_envelope_csv", "qos.export_qos_csv",
    "incidents.export_incidents_csv", "hc.export_sweep_csv",
)

# (module, attribute, span name, hot)
TARGETS = (
    ("evhc.feeder", "bundled_feeder", FEEDER_LOAD, False),
    ("evhc.feeder", "load_feeder", FEEDER_LOAD, False),
    ("evhc.feeder", "bundled_baseline_profiles", FEEDER_LOAD, False),
    ("evhc.feeder", "load_baseline_profiles", FEEDER_LOAD, False),
    ("evhc.ev", "generate_fleet", "ev.generate_fleet", False),
    ("evhc.ev", "baseline_trajectory", "ev.baseline_trajectory", False),
    ("evhc.powerflow", "solve", SOLVE, True),
    ("evhc.doe", "envelope_bound", ENVELOPE, True),
    ("evhc.doe", "network_aware_horizon", NA_HORIZON, False),
    ("evhc.doe", "passive_horizon", PASSIVE_HORIZON, False),
    ("evhc.doe", "export_envelope_csv", "doe.export_envelope_csv", False),
    ("evhc.incidents", "detect", "incidents.detect", False),
    ("evhc.incidents", "export_incidents_csv", "incidents.export_incidents_csv", False),
    ("evhc.qos", "build_report", "qos.build_report", False),
    ("evhc.qos", "export_qos_csv", "qos.export_qos_csv", False),
    ("evhc.trace", "summarize", "trace.summarize", False),
    ("evhc.hc", "passive_hc", "hc.passive_hc", False),
    ("evhc.hc", "network_aware_hc", "hc.network_aware_hc", False),
    ("evhc.hc", "network_aware_grid", "hc.network_aware_grid", False),
    ("evhc.hc", "threshold_sweep", "hc.threshold_sweep", False),
    ("evhc.hc", "sensitivity_sweep", "hc.sensitivity_sweep", False),
    ("evhc.hc", "export_sweep_csv", "hc.export_sweep_csv", False),
    ("evhc.cli", "main", "cli.main", False),
    ("evhc.cli", "run_scenario", "cli.run_scenario", False),
    ("evhc.cli", "_write_search_outputs", "cli.export", False),
)


class _Frame:
    __slots__ = ("span_id", "child_s", "solves")

    def __init__(self, span_id: int | None):
        self.span_id = span_id
        self.child_s = 0.0
        self.solves = 0


class Recorder:
    """Per-name call counts and times, span records and work counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.horizon_keys: set = set()
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._search_depth = 0

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        stack, clock = self._stack, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        searching = name in SEARCHES
        signature = inspect.signature(fn) if before is not None else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                if parent is not None and name == SOLVE:
                    parent.solves += 1
                frame = _Frame(None)
            else:
                frame = _Frame(len(self.spans))
                self.spans.append(None)  # reserve the id; filled in on exit
                if before is not None:
                    before(signature.bind(*args, **kwargs).arguments)
                if searching:
                    self._search_depth += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed
                if not hot:
                    cause = None if parent is None else parent.span_id
                    self.spans[frame.span_id] = (frame.span_id, name, start, end, cause)
                    if searching:
                        self._search_depth -= 1
            if after is not None:
                after(result, frame)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_error(self, name: str, exc: BaseException) -> None:
        if name == SOLVE and type(exc).__name__ == "VoltageCollapseError":
            self.counters["powerflow.collapses"] += 1

    # -- counters read from arguments and results ------------------------

    def _after_powerflow_solve(self, sol, frame) -> None:
        self.counters["powerflow.iterations"] += sol.iterations
        if not sol.converged:
            self.counters["powerflow.nonconverged"] += 1

    def _horizon_started(self, mode: str, a: dict) -> None:
        self.horizon_keys.add((
            mode, a["feeder"], a["profiles"], tuple(a["sessions"]), float(a["hc_power"]),
            a.get("params"),
        ))
        self.counters["hc.horizons"] += 1
        if self._search_depth == 0:
            self.counters["cli.resim_horizons"] += 1

    def _before_doe_na_horizon(self, arguments: dict) -> None:
        self._horizon_started("na", arguments)

    def _before_doe_passive_horizon(self, arguments: dict) -> None:
        self._horizon_started("passive", arguments)

    def _after_doe_na_horizon(self, result, frame) -> None:
        _, trace = result
        controlled = int((trace.envelope_zone >= 0).any(axis=1).sum())
        self.counters["doe.controlled_steps"] += controlled
        self.counters["doe.fp_solves"] += frame.solves - (trace.step_count - controlled)
        self.counters["doe.fp_fallback_steps"] += int(trace.fixed_point_fallback.sum())

    def _after_incidents_detect(self, found, frame) -> None:
        self.counters["incidents.found"] += len(found)

    def _after_hc_passive_hc(self, report, frame) -> None:
        self.counters["hc.candidates_evaluated"] += len(report.candidates)

    _after_hc_network_aware_hc = _after_hc_passive_hc

    def _after_hc_network_aware_grid(self, results, frame) -> None:
        if self._search_depth:
            self.counters["hc.candidates_evaluated"] += len(results)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric the recorder measures, as (value, unit)."""
        c, calls, self_s = self.counters, self.calls, self.self_s
        solves = calls[SOLVE]
        controlled = c["doe.controlled_steps"]
        horizons = c["hc.horizons"]
        return {
            "powerflow.solve.calls": (solves, "count"),
            "powerflow.solve.self_s": (self_s[SOLVE], "s"),
            "powerflow.solve.mean_us": (1e6 * self.total_s[SOLVE] / max(solves, 1), "us"),
            "powerflow.iterations_per_solve": (c["powerflow.iterations"] / max(solves, 1),
                                               "iter/solve"),
            "powerflow.nonconverged": (c["powerflow.nonconverged"], "count"),
            "powerflow.collapses": (c["powerflow.collapses"], "count"),
            "doe.na_horizon.calls": (calls[NA_HORIZON], "count"),
            "doe.passive_horizon.calls": (calls[PASSIVE_HORIZON], "count"),
            "doe.na_horizon.self_s": (self_s[NA_HORIZON], "s"),
            "doe.passive_horizon.self_s": (self_s[PASSIVE_HORIZON], "s"),
            "doe.controlled_steps": (controlled, "count"),
            "doe.fp_solves_per_step": (c["doe.fp_solves"] / max(controlled, 1), "solves/step"),
            "doe.fp_fallback_steps": (c["doe.fp_fallback_steps"], "count"),
            "doe.fp_converged_ratio": (
                1.0 - c["doe.fp_fallback_steps"] / controlled if controlled else 1.0, "ratio"),
            "doe.envelope_bound.calls": (calls[ENVELOPE], "count"),
            "doe.envelope_bound.self_s": (self_s[ENVELOPE], "s"),
            "incidents.detect.calls": (calls["incidents.detect"], "count"),
            "incidents.detect.self_s": (self_s["incidents.detect"], "s"),
            "incidents.found": (c["incidents.found"], "count"),
            "qos.build_report.calls": (calls["qos.build_report"], "count"),
            "qos.build_report.self_s": (self_s["qos.build_report"], "s"),
            "ev.baseline_trajectory.calls": (calls["ev.baseline_trajectory"], "count"),
            "trace.summarize.calls": (calls["trace.summarize"], "count"),
            "trace.summarize.self_s": (self_s["trace.summarize"], "s"),
            "ev.generate_fleet.self_s": (self_s["ev.generate_fleet"], "s"),
            "feeder.load.self_s": (self_s[FEEDER_LOAD], "s"),
            "hc.candidates_evaluated": (c["hc.candidates_evaluated"], "count"),
            "hc.self_s": (sum(self_s[n] for n in HC_SPANS), "s"),
            "hc.horizon_unique_ratio": (
                len(self.horizon_keys) / horizons if horizons else 1.0, "ratio"),
            "cli.resim_horizons": (c["cli.resim_horizons"], "count"),
            "cli.export.self_s": (sum(self_s[n] for n in EXPORT_SPANS), "s"),
        }


def install(recorder: Recorder) -> None:
    """Import the ``evhc`` layers and swap every binding of each target
    function, in every loaded ``evhc`` module, for its recorded wrapper."""
    import importlib

    for module in {t[0] for t in TARGETS}:
        importlib.import_module(module)
    holders = [m for n, m in sorted(sys.modules.items()) if n == "evhc" or n.startswith("evhc.")]
    for module, attr, name, hot in TARGETS:
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            recorder.missing.append(f"{module}.{attr}")
            continue
        wrapper = recorder.wrap(name, original, hot)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

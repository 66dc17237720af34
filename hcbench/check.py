"""Output check for one study, built on invariants the program guarantees at
any seed plus an independent power-flow re-solve.

Every check returns a list of failures, each naming the file and the row
(1-based, the header is row 1) it found wrong. An empty list is a pass.
Numbers in the result files carry ten significant digits, so comparisons
between files use a relative tolerance of ``REL_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from workloads import (
    DELTA_PERM_GRID, FACTOR_VALUES, POWER_GRID_KW, QOS_THRESHOLD, QOS_THRESHOLDS,
)

REL_TOL = 1e-8
# Largest difference, in pu, between a voltage in profiles_voltage.csv and
# the reference re-solve of the same step. The program stops its sweep at a
# 1e-8 pu change and prints ten digits, so 1e-6 pu leaves two decades of room
# while still catching a wrong power or a wrong node.
VOLTAGE_TOL_PU = 1e-6
REFERENCE_TOL_PU = 1e-12
STEP_HOURS = 0.25
STEPS = 96
# Documented modelling convention: baseline demand at 0.95 lagging power
# factor, EV charging at unity.
BASELINE_POWER_FACTOR = 0.95
V_LOWER_PU, V_UPPER_PU = 0.9, 1.1
INCIDENT_KINDS = {
    "undervoltage", "overvoltage", "branch_thermal", "transformer_overload", "diagnostic",
}
LIMITS = INCIDENT_KINDS | {"aggregated_qos"}
ZONES = {"-", "green", "yellow", "red"}


@dataclass(frozen=True)
class Failure:
    file: str
    row: int | None
    message: str

    def __str__(self) -> str:
        where = self.file if self.row is None else f"{self.file}:row {self.row}"
        return f"{where}: {self.message}"


class _Table:
    """A CSV result file as a header plus rows of column -> text."""

    def __init__(self, root: Path, rel: str):
        self.rel = rel
        rows = list(csv.reader(io.StringIO((root / rel).read_text(encoding="utf-8"))))
        self.header = rows[0] if rows else []
        self.rows = [dict(zip(self.header, r)) for r in rows[1:]]

    def numbered(self):
        """(row number in the file, row) pairs; the header is row 1."""
        return enumerate(self.rows, start=2)


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def _first_difference(got: list, expected: list) -> int:
    """File row (header = 1) of the first entry where two row lists differ."""
    return 2 + next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                    min(len(got), len(expected)))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


class _Checker:
    def __init__(self, root: Path):
        self.root = root
        self.failures: list[Failure] = []

    def fail(self, file: str, row: int | None, message: str) -> None:
        self.failures.append(Failure(file, row, message))

    def table(self, rel: str, header: str) -> _Table | None:
        if not (self.root / rel).is_file():
            self.fail(rel, None, "missing")
            return None
        t = _Table(self.root, rel)
        if ",".join(t.header) != header:
            self.fail(rel, 1, f"header {','.join(t.header)!r}, expected {header!r}")
            return None
        return t

    def json(self, rel: str) -> dict | None:
        if not (self.root / rel).is_file():
            self.fail(rel, None, "missing")
            return None
        return json.loads((self.root / rel).read_text(encoding="utf-8"))

    def qos_pair(self, rel: str, row: int, agg: float | None, low: float | None) -> None:
        for name, v in (("aggregated QoS", agg), ("minimum QoS", low)):
            if v is not None and not 0.0 <= v <= 1.0:
                self.fail(rel, row, f"{name} {v} outside [0, 1]")
        if agg is not None and low is not None and low > agg * (1 + REL_TOL):
            self.fail(rel, row, f"minimum QoS {low} above aggregated QoS {agg}")

    def hc_value(self, rel: str, row: int | None, hc: float | None, grid) -> None:
        if hc is not None and hc not in grid:
            self.fail(rel, row, f"hosting capacity {hc} is not on the candidate grid")

    def manifest(self, seed: int, mode: str, scenarios) -> None:
        m = self.json("manifest.json")
        if m is None:
            return
        expect = {"seed": seed, "mode": mode, "scenarios": list(scenarios)}
        for key, value in expect.items():
            if m.get(key) != value:
                self.fail("manifest.json", None, f"{key} is {m.get(key)!r}, expected {value!r}")


# ---------------------------------------------------------------- compare


def _search_dir(c: _Checker, mode: str, label: str, grid, threshold: float):
    """Check one passive_* or network_aware_* directory; return its report."""
    d = f"{mode}_{label}"
    report = c.json(f"{d}/report.json")
    cands = c.table(
        f"{d}/candidates.csv",
        "candidate,passed,failure,n_incidents,first_incident_kind,"
        "qos_agg,min_qos,min_voltage_pu,max_slack_kva,fallback_steps,error",
    )
    if report is None or cands is None:
        return None
    rj = f"{d}/report.json"
    hc, limiting = report["hc"], report["limiting_factor"]
    c.hc_value(rj, None, hc, grid)
    if report["unconstrained"] != (limiting is None):
        c.fail(rj, None, "unconstrained disagrees with limiting_factor")
    if limiting is not None and limiting not in LIMITS:
        c.fail(rj, None, f"unknown limiting factor {limiting!r}")
    if report["qos_threshold"] != threshold:
        c.fail(rj, None, f"qos_threshold {report['qos_threshold']}, expected {threshold}")

    cr = f"{d}/candidates.csv"
    values = [float(r["candidate"]) for r in cands.rows]
    if values != list(grid[: len(values)]) or not values:
        c.fail(cr, 2, f"candidates {values} are not a prefix of the grid {list(grid)}")
    if report["candidates_evaluated"] != values:
        c.fail(rj, None, "candidates_evaluated disagrees with candidates.csv")
    last_pass = None
    for n, (row_no, r) in enumerate(cands.numbered()):
        passed = r["passed"] == "True"
        failure = r["failure"]
        is_last = n == len(cands.rows) - 1
        if passed == bool(failure):
            c.fail(cr, row_no, f"passed={r['passed']} with failure {failure!r}")
        if not passed and not is_last:
            c.fail(cr, row_no, "a failed candidate is followed by further candidates")
        if failure and failure not in LIMITS:
            c.fail(cr, row_no, f"unknown failure {failure!r}")
        n_inc = int(r["n_incidents"])
        if failure in INCIDENT_KINDS and r["first_incident_kind"] != failure:
            c.fail(cr, row_no, "failure is not the first incident's kind")
        if passed and n_inc:
            c.fail(cr, row_no, "a passing candidate has incidents")
        agg, low = _num(r["qos_agg"]), _num(r["min_qos"])
        c.qos_pair(cr, row_no, agg, low)
        if mode == "passive" and agg is not None:
            c.fail(cr, row_no, "passive candidate carries a QoS")
        if mode == "network_aware" and agg is not None:
            if passed and agg < threshold:
                c.fail(cr, row_no, f"passing candidate has QoS {agg} below {threshold}")
            if failure == "aggregated_qos" and (agg >= threshold or n_inc):
                c.fail(cr, row_no, "aggregated-QoS failure without a QoS breach")
        if passed:
            last_pass = float(r["candidate"])
    if hc != last_pass:
        c.fail(rj, None, f"hc {hc} is not the last passing candidate {last_pass}")
    last = cands.rows[-1] if cands.rows else {}
    if limiting is None:
        if last.get("passed") != "True" or len(values) != len(grid):
            c.fail(cr, len(cands.rows) + 1, "unconstrained search did not pass the whole grid")
    elif last.get("failure") != limiting:
        c.fail(cr, len(cands.rows) + 1, f"last failure is not the limiting factor {limiting}")

    inc_rel = f"{d}/incidents_next.csv"
    if limiting is None:
        if (c.root / inc_rel).exists():
            c.fail(inc_rel, None, "written for an unconstrained search")
    else:
        inc = c.table(inc_rel, "step,kind,element,magnitude")
        if inc is not None:
            if len(inc.rows) != int(last["n_incidents"]):
                c.fail(inc_rel, None, f"{len(inc.rows)} incidents, candidates.csv says "
                       f"{last['n_incidents']}")
            if limiting in INCIDENT_KINDS and (not inc.rows or inc.rows[0]["kind"] != limiting):
                c.fail(inc_rel, 2, f"first incident is not {limiting}")
            steps = [int(r["step"]) for r in inc.rows]
            if steps != sorted(steps):
                c.fail(inc_rel, None, "incidents are not ordered by step")
    return report


def _envelope(c: _Checker, d: str, expected_rows: int) -> None:
    """Check envelope_trace.csv, one row per (step, EV) like profiles_power.csv."""
    rel = f"{d}/envelope_trace.csv"
    t = c.table(rel, "step,household,u_pu,zone,floor_kw,cap_kw,desired_kw,granted_kw")
    if t is None:
        return
    if len(t.rows) != expected_rows:
        c.fail(rel, None, f"{len(t.rows)} rows, profiles_power.csv has {expected_rows}")
    for row_no, r in t.numbered():
        desired, granted = float(r["desired_kw"]), float(r["granted_kw"])
        cap = _num(r["cap_kw"])
        if r["zone"] not in ZONES:
            c.fail(rel, row_no, f"unknown zone {r['zone']!r}")
        if (r["zone"] == "-") != (cap is None):
            c.fail(rel, row_no, "zone and envelope presence disagree")
        bound = desired if cap is None else min(desired, cap)
        if granted < 0 or granted > bound + REL_TOL * max(1.0, bound):
            c.fail(rel, row_no, f"granted {granted} kW exceeds min(desired, cap) = {bound}")


def _load_network(feeder_yaml: Path, profiles_csv: Path):
    doc = yaml.safe_load(feeder_yaml.read_text(encoding="utf-8"))
    rows = list(csv.reader(io.StringIO(profiles_csv.read_text(encoding="utf-8"))))
    profiles = {h: [float(r[j]) for r in rows[1:]] for j, h in enumerate(rows[0])}
    return doc, profiles


def reference_voltages(doc: dict, household_kw: dict[str, float],
                       household_kvar: dict[str, float]) -> dict[str, float]:
    """Per-node voltage magnitudes (pu) by a plain recursive
    backward/forward sweep (Teng, IEEE Trans. Power Delivery 2003).

    The backward sweep sums load currents from the leaves up into branch
    currents; the forward sweep walks from the slack down subtracting branch
    voltage drops. Loads are constant power, per phase one third of the
    household's three-phase draw.
    """
    slack = next(n["id"] for n in doc["nodes"] if n.get("slack"))
    base = float(doc["base_voltage_v"])
    adjacency: dict[str, list[tuple[str, complex]]] = {n["id"]: [] for n in doc["nodes"]}
    for b in doc["branches"]:
        z = complex(float(b["r_ohm"]), float(b["x_ohm"]))
        adjacency[b["from"]].append((b["to"], z))
        adjacency[b["to"]].append((b["from"], z))
    children: dict[str, list[tuple[str, complex]]] = {}

    def orient(node: str, parent: str | None) -> None:
        children[node] = [(n, z) for n, z in adjacency[node] if n != parent]
        for n, _ in children[node]:
            orient(n, node)

    orient(slack, None)
    load = {n: 0j for n in adjacency}
    for h in doc.get("households", []):
        hid = str(h["id"])
        load[str(h["node"])] += complex(household_kw[hid], household_kvar[hid]) * 1000.0 / 3.0
    v = {n: complex(base, 0.0) for n in adjacency}

    def backward(node: str) -> complex:
        current = (load[node] / v[node]).conjugate()
        for child, _ in children[node]:
            branch_current[child] = backward(child)
            current += branch_current[child]
        return current

    def forward(node: str) -> None:
        for child, z in children[node]:
            v[child] = v[node] - z * branch_current[child]
            forward(child)

    for _ in range(200):
        branch_current: dict[str, complex] = {}
        before = dict(v)
        backward(slack)
        forward(slack)
        if max(abs(v[n] - before[n]) for n in v) / base < REFERENCE_TOL_PU:
            break
    return {n: abs(x) / base for n, x in v.items()}


def _profiles_against_reference(c: _Checker, d: str, feeder_yaml: Path, profiles_csv: Path,
                                qos_rows: dict) -> None:
    power = c.table(f"{d}/profiles_power.csv", "step,household,baseline_kw,network_aware_kw")
    volt = c.table(f"{d}/profiles_voltage.csv", "step,household,baseline_pu,network_aware_pu")
    if power is None or volt is None:
        return
    _envelope(c, d, len(power.rows))
    doc, profiles = _load_network(feeder_yaml, profiles_csv)
    node_of = {str(h["id"]): str(h["node"]) for h in doc["households"]}
    q_ratio = math.tan(math.acos(BASELINE_POWER_FACTOR))
    ev = {}
    energy: dict[str, list[float]] = {}
    for r in power.rows:
        t, h = int(r["step"]), r["household"]
        ev[t, h] = (float(r["baseline_kw"]), float(r["network_aware_kw"]))
        e = energy.setdefault(h, [0.0, 0.0])
        e[0] += ev[t, h][0] * STEP_HOURS
        e[1] += ev[t, h][1] * STEP_HOURS
    vrows: dict[int, list[tuple[int, str, float, float]]] = {}
    for row_no, r in volt.numbered():
        t = int(r["step"])
        na = float(r["network_aware_pu"])
        if not V_LOWER_PU <= na <= V_UPPER_PU:
            c.fail(volt.rel, row_no, f"network-aware voltage {na} pu outside "
                   f"[{V_LOWER_PU}, {V_UPPER_PU}] at a clean HC")
        vrows.setdefault(t, []).append((row_no, r["household"], float(r["baseline_pu"]), na))
    if sorted(vrows) != list(range(STEPS)):
        c.fail(volt.rel, None, "does not cover every step of the day")
    for t, rows in sorted(vrows.items()):
        for column in (0, 1):
            kw = {h: profiles[h][t] + ev.get((t, h), (0.0, 0.0))[column] for h in node_of}
            kvar = {h: profiles[h][t] * q_ratio for h in node_of}
            ref = reference_voltages(doc, kw, kvar)
            for row_no, h, base_pu, na_pu in rows:
                got = (base_pu, na_pu)[column]
                want = ref[node_of[h]]
                if abs(got - want) > VOLTAGE_TOL_PU:
                    name = ("baseline_pu", "network_aware_pu")[column]
                    c.fail(volt.rel, row_no, f"{name} {got} differs from the reference "
                           f"re-solve {want:.10f} by more than {VOLTAGE_TOL_PU} pu")
    for h, (e_base, e_na) in energy.items():
        if h in qos_rows:
            row_no, want_base, want_na = qos_rows[h]
            if not (_close(e_base, want_base, 1e-7) and _close(e_na, want_na, 1e-7)):
                c.fail(f"{d}/qos_at_hc.csv", row_no,
                       f"energies disagree with profiles_power.csv ({e_base}, {e_na})")


def _network_aware_outputs(c: _Checker, label: str, report: dict, grid,
                           feeder_yaml: Path, profiles_csv: Path) -> None:
    d = f"network_aware_{label}"
    names = ("qos_at_hc.csv", "envelope_trace.csv", "profiles_power.csv",
             "profiles_voltage.csv", "qos_by_power.csv")
    if report["hc"] is None:
        for name in names:
            if (c.root / d / name).exists():
                c.fail(f"{d}/{name}", None, "written although no candidate passed")
        return
    qos_at_hc, min_qos = report["qos_at_hc"], report["min_qos_at_hc"]
    c.qos_pair(f"{d}/report.json", None, qos_at_hc, min_qos)
    if qos_at_hc is None or qos_at_hc < report["qos_threshold"]:
        c.fail(f"{d}/report.json", None, f"qos_at_hc {qos_at_hc} below the threshold")

    qrel = f"{d}/qos_at_hc.csv"
    qt = c.table(qrel, "customer,node,e_baseline_kwh,e_network_aware_kwh,qos")
    qos_rows = {}
    if qt is not None:
        individual = []
        for row_no, r in qt.numbered():
            q = float(r["qos"])
            c.qos_pair(qrel, row_no, q, None)
            if r["customer"] == "TOTAL":
                if not _close(q, qos_at_hc):
                    c.fail(qrel, row_no, f"TOTAL QoS {q} disagrees with report.json {qos_at_hc}")
            else:
                individual.append(q)
                qos_rows[r["customer"]] = (
                    row_no, float(r["e_baseline_kwh"]), float(r["e_network_aware_kwh"])
                )
        if individual and not _close(min(individual), min_qos):
            c.fail(qrel, None, f"minimum QoS {min(individual)} disagrees with report.json")

    _profiles_against_reference(c, d, feeder_yaml, profiles_csv, qos_rows)

    brel = f"{d}/qos_by_power.csv"
    bt = c.table(brel, "candidate_kw,household,node,e_baseline_kwh,e_network_aware_kwh,qos")
    if bt is not None:
        for row_no, r in bt.numbered():
            cand, q = float(r["candidate_kw"]), float(r["qos"])
            if cand not in grid:
                c.fail(brel, row_no, f"candidate {cand} is not on the grid")
            c.qos_pair(brel, row_no, q, None)
            if cand == report["hc"] and r["household"] in qos_rows:
                want = qos_rows[r["household"]][2]
                if not _close(float(r["e_network_aware_kwh"]), want):
                    c.fail(brel, row_no, "energy at the HC disagrees with qos_at_hc.csv")


def check_compare(root: Path, inp) -> list[Failure]:
    c = _Checker(root)
    c.manifest(inp.seed, "compare", inp.scenarios)
    table = c.table("table1.csv", "scenario,mode,hc,limiting_factor,qos_at_hc,min_qos_at_hc")
    expected_rows = [(s, m) for s in inp.scenarios for m in ("passive", "network_aware")]
    if table is not None and [(r["scenario"], r["mode"]) for r in table.rows] != expected_rows:
        c.fail("table1.csv", None, f"rows are not {expected_rows}")
        table = None
    for i, (label, mode) in enumerate(expected_rows):
        report = _search_dir(c, mode, label, POWER_GRID_KW, QOS_THRESHOLD)
        if report is None:
            continue
        if table is not None:
            r, row_no = table.rows[i], i + 2
            limiting = "unconstrained" if report["unconstrained"] else report["limiting_factor"]
            if _num(r["hc"]) != report["hc"] or r["limiting_factor"] != limiting:
                c.fail("table1.csv", row_no, f"disagrees with {mode}_{label}/report.json")
            for col in ("qos_at_hc", "min_qos_at_hc"):
                got, want = _num(r[col]), report[col] if mode == "network_aware" else None
                if (got is None) != (want is None) or (got is not None and not _close(got, want)):
                    c.fail("table1.csv", row_no, f"{col} disagrees with report.json")
        if mode == "network_aware":
            _network_aware_outputs(c, label, report, POWER_GRID_KW, inp.feeder, inp.profiles)
    return c.failures


# -------------------------------------------------------------- sweep_doe


def check_sweep_doe(root: Path, inp) -> list[Failure]:
    c = _Checker(root)
    c.manifest(inp.seed, "sweep_doe", inp.scenarios)
    rel = "sweep_doe.csv"
    t = c.table(rel, "scenario,delta_perm,factor,nahc_kw,limiting_factor,qos_agg,min_qos,error")
    if t is None:
        return c.failures
    expected = [(s, d, f) for s in inp.scenarios for d in DELTA_PERM_GRID for f in FACTOR_VALUES]
    got = [(r["scenario"], float(r["delta_perm"]), float(r["factor"])) for r in t.rows]
    if got != expected:
        c.fail(rel, _first_difference(got, expected),
               f"{len(got)} cells do not match the {len(expected)} expected cells")
    for row_no, r in t.numbered():
        if r["error"]:
            c.fail(rel, row_no, f"cell error {r['error']!r}")
        hc, agg, low = _num(r["nahc_kw"]), _num(r["qos_agg"]), _num(r["min_qos"])
        c.hc_value(rel, row_no, hc, POWER_GRID_KW)
        limiting = r["limiting_factor"]
        if limiting not in LIMITS | {"unconstrained"}:
            c.fail(rel, row_no, f"unknown limiting factor {limiting!r}")
        if hc is None and (limiting == "unconstrained" or agg is not None):
            c.fail(rel, row_no, "no capacity but unconstrained or with a QoS")
        if hc is not None and (agg is None or agg < QOS_THRESHOLD):
            c.fail(rel, row_no, f"QoS {agg} at the capacity is below {QOS_THRESHOLD}")
        c.qos_pair(rel, row_no, agg, low)
    return c.failures


# -------------------------------------------------------- threshold_large


def check_threshold_large(root: Path, inp) -> list[Failure]:
    c = _Checker(root)
    c.manifest(inp.seed, "sweep_qos_threshold", inp.scenarios)
    rel = "threshold_sweep.csv"
    t = c.table(rel, "scenario,qos_threshold,nahc_kw,limiting_factor,qos_at_hc,min_qos_at_hc")
    if t is None:
        return c.failures
    expected = [(s, q) for s in inp.scenarios for q in QOS_THRESHOLDS]
    got = [(r["scenario"], float(r["qos_threshold"])) for r in t.rows]
    if got != expected:
        c.fail(rel, _first_difference(got, expected), f"rows {got} are not {expected}")
        return c.failures
    previous: dict[str, float] = {}
    for row_no, r in t.numbered():
        threshold = float(r["qos_threshold"])
        hc, agg, low = _num(r["nahc_kw"]), _num(r["qos_at_hc"]), _num(r["min_qos_at_hc"])
        c.hc_value(rel, row_no, hc, POWER_GRID_KW)
        if r["limiting_factor"] not in LIMITS | {"unconstrained"}:
            c.fail(rel, row_no, f"unknown limiting factor {r['limiting_factor']!r}")
        if hc is not None and (agg is None or agg < threshold):
            c.fail(rel, row_no, f"QoS {agg} at the capacity is below the threshold {threshold}")
        c.qos_pair(rel, row_no, agg, low)
        level = -math.inf if hc is None else hc
        if level > previous.get(r["scenario"], math.inf):
            c.fail(rel, row_no, "capacity rises with the QoS threshold")
        previous[r["scenario"]] = level
    return c.failures


CHECKS = {
    "compare": check_compare,
    "sweep_doe": check_sweep_doe,
    "threshold_large": check_threshold_large,
}


def check_study(root: Path, inp) -> list[Failure]:
    """All invariant failures of one finished study's output directory."""
    try:
        return CHECKS[inp.workload](root, inp)
    except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
        return [Failure(str(root.name), None, f"unreadable output: {type(exc).__name__}: {exc}")]


def tree_digest(root: Path) -> dict[str, bytes]:
    """Relative path -> content of every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def compare_trees(first: dict[str, bytes], again: dict[str, bytes], label: str,
                  skip: tuple[str, ...] = ()) -> list[Failure]:
    """Failures where a rerun's files, other than ``skip``, differ from the
    first run's."""
    out = []
    for name in sorted((set(first) | set(again)) - set(skip)):
        if first.get(name) != again.get(name):
            a = (first.get(name) or b"").splitlines()
            b = (again.get(name) or b"").splitlines()
            row = next((i + 1 for i, (x, y) in enumerate(zip(a, b)) if x != y),
                       min(len(a), len(b)) + 1)
            out.append(Failure(name, row, f"differs from the first study ({label})"))
    return out

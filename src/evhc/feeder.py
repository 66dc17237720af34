"""Radial low-voltage feeder data model and file ingestion.

A feeder is a tree of nodes rooted at the slack node (the transformer LV
busbar, held at 1.0 pu). Branches carry cable impedance and ampacity,
households attach to non-slack nodes. The bundled example feeder has 19
nodes, 18 branches, 12 households and a 100 kVA transformer.

Electrical convention: the network is a balanced three-phase LV feeder
modelled as its single-phase equivalent. Node voltages are phase-to-neutral
magnitudes (per-unit on ``base_voltage_v``), branch currents are per-phase
amperes, and a household drawing P kW injects P/3 kW into the equivalent
phase. Transformer loading is reported as total three-phase apparent power.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .trace import STEPS_PER_DAY

BUNDLED_FEEDER = "feeder_19node.yaml"
BUNDLED_PROFILES = "baseline_profiles.csv"

# libyaml parses a large feeder about ten times faster than the pure-Python
# loader, which stays the fallback where PyYAML was built without it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class FeederError(ValueError):
    """Raised on parse failures or feeder invariant violations."""


@dataclass(frozen=True)
class Node:
    """A feeder node; at most one node is the slack (transformer busbar)."""

    id: str
    is_slack: bool = False


@dataclass(frozen=True)
class Branch:
    """A cable segment between two nodes.

    Attributes:
        from_node, to_node: endpoint node ids (orientation as written in the
            source file; the tree orientation is derived from the slack).
        r_ohm, x_ohm: series impedance of the segment, ohms per phase.
        ampacity_a: thermal current rating, amperes per phase.
    """

    from_node: str
    to_node: str
    r_ohm: float
    x_ohm: float
    ampacity_a: float


@dataclass(frozen=True)
class Household:
    """A customer connection point: household id plus attachment node."""

    id: str
    node: str


@dataclass(frozen=True)
class FeederModel:
    """Radial feeder, checked when it is built, by ``dataclasses.replace`` too:
    a broken one is a ``FeederError``. Immutable; safe to share across runs."""

    nodes: tuple[Node, ...]
    branches: tuple[Branch, ...]
    households: tuple[Household, ...]
    transformer_kva: float
    base_voltage_v: float

    def __post_init__(self) -> None:
        self.compiled  # the walk that indexes the feeder checks every invariant

    @cached_property
    def compiled(self) -> CompiledFeeder:
        """The tree index that every solve and day simulation reads, built
        (and the feeder checked) with the model and kept for its life."""
        return _compile(self)

    @property
    def slack_id(self) -> str:
        return self.compiled.slack_id

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.compiled.node_ids

    @property
    def household_ids(self) -> tuple[str, ...]:
        return self.compiled.household_ids

    def household_node(self, household_id: str) -> str:
        try:
            return self.compiled.household_node[household_id]
        except KeyError:
            raise FeederError(f"unknown household id: {household_id}") from None


@dataclass(frozen=True, eq=False)
class CompiledFeeder:
    """A feeder reduced to lookup maps and index arrays by one walk from the
    slack. Node positions number the non-slack nodes parents before children.
    The arrays are read-only, so no caller can alter what a later solve reads.
    """

    slack_id: str
    node_ids: tuple[str, ...]
    household_ids: tuple[str, ...]
    household_slot: dict[str, int]          # household id -> index into household_ids
    household_node: dict[str, str]          # household id -> attachment node id
    parent: dict[str, tuple[str, Branch]]   # non-slack node -> (parent node, branch)
    impedance: np.ndarray        # (m, m) complex, impedance shared by two nodes' slack paths, ohm
    branch_path: np.ndarray      # (m, m) float, [b, i] = 1 when node b's branch is on node i's path
    branch_of_child: np.ndarray  # feeder branch order -> position of its child node
    branch_labels: tuple[str, ...]  # feeder branch order, "from->to"
    house_pos: np.ndarray        # household -> position of its node
    voltage_slot: np.ndarray     # node position -> index into node_ids
    household_voltage: np.ndarray  # household -> index into node_ids
    ampacity_a: np.ndarray       # feeder branch order

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _compile(feeder: FeederModel) -> CompiledFeeder:
    """Check every feeder invariant and index the tree: one breadth-first
    walk from the slack, each node's children in node order. An edge that
    reaches a visited node, other than the one its node was entered through,
    closes a cycle, and nodes never reached are disconnected. Cycles are
    diagnosed before the branch count so the offending branch gets named."""
    node_ids = tuple(n.id for n in feeder.nodes)
    dup = {i for i in node_ids if node_ids.count(i) > 1}
    if dup:
        raise FeederError(f"duplicate node ids: {sorted(dup)}")
    slacks = [n.id for n in feeder.nodes if n.is_slack]
    if len(slacks) != 1:
        raise FeederError(
            f"feeder must have exactly one slack node, found {len(slacks)}: {slacks}"
        )
    node_slot = {n: i for i, n in enumerate(node_ids)}
    adjacency: dict[str, list[tuple[str, int]]] = {n: [] for n in node_ids}
    for bi, b in enumerate(feeder.branches):
        for end in (b.from_node, b.to_node):
            if end not in node_slot:
                raise FeederError(f"branch {b.from_node}-{b.to_node}: unknown node {end}")
        for name, value in (("r_ohm", b.r_ohm), ("x_ohm", b.x_ohm)):
            if not 0 <= value < math.inf:
                raise FeederError(f"branch {b.from_node}-{b.to_node}: {name} must be finite "
                                  f"and >= 0, got {value}")
        if not 0 < b.ampacity_a < math.inf:
            raise FeederError(f"branch {b.from_node}-{b.to_node}: ampacity_a must be finite "
                              f"and > 0, got {b.ampacity_a}")
        adjacency[b.from_node].append((b.to_node, bi))
        adjacency[b.to_node].append((b.from_node, bi))

    slack = slacks[0]
    m = len(node_ids) - 1
    entered_via = {slack: -1}  # reached node -> index of the branch it was entered through
    parent: dict[str, tuple[str, Branch]] = {}
    pos: dict[str, int] = {}
    path = np.zeros((m, m), dtype=bool)  # path[i, j]: node j's branch is on node i's path
    z = np.zeros(m, dtype=complex)
    branch_of_child = np.zeros(len(feeder.branches), dtype=int)
    frontier = [slack]
    for current in frontier:
        for child, bi in sorted(adjacency[current], key=lambda e: node_slot[e[0]]):
            if bi == entered_via[current]:
                continue
            branch = feeder.branches[bi]
            if child in entered_via:
                raise FeederError(f"branch {branch.from_node}-{branch.to_node} closes a cycle")
            entered_via[child] = bi
            i = pos[child] = len(pos)
            parent[child] = (current, branch)
            if current != slack:
                path[i] = path[pos[current]]
            path[i, i] = True
            z[i] = complex(branch.r_ohm, branch.x_ohm)
            branch_of_child[bi] = i
            frontier.append(child)

    if len(feeder.branches) != m:
        raise FeederError(
            f"radial feeder needs |branches| = |nodes| - 1, "
            f"got {len(feeder.branches)} branches for {len(node_ids)} nodes"
        )
    missing = node_slot.keys() - entered_via.keys()
    if missing:
        raise FeederError(f"nodes not connected to the slack: {sorted(missing)}")
    for name in ("transformer_kva", "base_voltage_v"):
        if not 0 < getattr(feeder, name) < math.inf:
            raise FeederError(f"{name} must be finite and > 0, got {getattr(feeder, name)}")
    hids = [h.id for h in feeder.households]
    dup = {i for i in hids if hids.count(i) > 1}
    if dup:
        raise FeederError(f"duplicate household ids: {sorted(dup)}")
    for h in feeder.households:
        if h.node not in node_slot:
            raise FeederError(f"household {h.id} attached to unknown node {h.node}")
        if h.node == slack:
            raise FeederError(f"household {h.id} may not attach to the slack node")

    branch_path = path.T.astype(float)
    return CompiledFeeder(
        slack_id=slack,
        node_ids=node_ids,
        household_ids=tuple(h.id for h in feeder.households),
        household_slot={h.id: j for j, h in enumerate(feeder.households)},
        household_node={h.id: h.node for h in feeder.households},
        parent=parent,
        impedance=(path * z[np.newaxis, :]) @ branch_path,
        branch_path=branch_path,
        branch_of_child=branch_of_child,
        branch_labels=tuple(f"{b.from_node}->{b.to_node}" for b in feeder.branches),
        house_pos=np.array([pos[h.node] for h in feeder.households], dtype=int),
        voltage_slot=np.array([node_slot[n] for n in pos], dtype=int),
        household_voltage=np.array([node_slot[h.node] for h in feeder.households], dtype=int),
        ampacity_a=np.array([b.ampacity_a for b in feeder.branches], dtype=float),
    )


@dataclass(frozen=True)
class BaselineLoadProfile:
    """Fixed (non-EV) demand of one household, kW per time step: one day of
    finite powers >= 0, the only check the simulation makes of them."""

    household: str
    power_kw: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.power_kw) != STEPS_PER_DAY:
            raise FeederError(
                f"profile {self.household} has {len(self.power_kw)} steps, expected {STEPS_PER_DAY}"
            )
        bad = [p for p in self.power_kw if not 0 <= p < math.inf]
        if bad:
            raise FeederError(
                f"household {self.household}: baseline power must be >= 0 and finite, got {bad[0]}"
            )


def build_feeder(
    nodes: tuple[Node, ...],
    branches: tuple[Branch, ...],
    households: tuple[Household, ...],
    transformer_kva: float,
    base_voltage_v: float,
) -> FeederModel:
    """A FeederModel of already-built parts, which checks itself as it is built."""
    return FeederModel(
        nodes=tuple(nodes),
        branches=tuple(branches),
        households=tuple(households),
        transformer_kva=float(transformer_kva),
        base_voltage_v=float(base_voltage_v),
    )


def parse_feeder(text: str) -> FeederModel:
    """Parse a feeder document (YAML) into a checked model."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise FeederError(f"feeder document is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise FeederError("feeder document must be a mapping")
    try:
        nodes = tuple(
            Node(id=str(n["id"]), is_slack=bool(n.get("slack", False)))
            for n in raw["nodes"]
        )
        branches = tuple(
            Branch(
                from_node=str(b["from"]),
                to_node=str(b["to"]),
                r_ohm=float(b["r_ohm"]),
                x_ohm=float(b["x_ohm"]),
                ampacity_a=float(b["ampacity_a"]),
            )
            for b in raw["branches"]
        )
        households = tuple(
            Household(id=str(h["id"]), node=str(h["node"]))
            for h in raw.get("households", [])
        )
        return build_feeder(nodes, branches, households,
                            raw["transformer_kva"], raw["base_voltage_v"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FeederError):
            raise
        raise FeederError(f"feeder document missing or malformed field: {exc}") from exc


def load_feeder(path: str | Path) -> FeederModel:
    """Load and validate a feeder file. See ``parse_feeder`` for the schema."""
    return parse_feeder(Path(path).read_text(encoding="utf-8"))


def serialize_feeder(model: FeederModel) -> str:
    """Render a FeederModel back to its document form (round-trip safe)."""
    doc = {
        "transformer_kva": float(model.transformer_kva),
        "base_voltage_v": float(model.base_voltage_v),
        "nodes": [
            {"id": n.id, "slack": True} if n.is_slack else {"id": n.id}
            for n in model.nodes
        ],
        "branches": [
            {
                "from": b.from_node,
                "to": b.to_node,
                "r_ohm": float(b.r_ohm),
                "x_ohm": float(b.x_ohm),
                "ampacity_a": float(b.ampacity_a),
            }
            for b in model.branches
        ],
        "households": [{"id": h.id, "node": h.node} for h in model.households],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def save_feeder(model: FeederModel, path: str | Path) -> None:
    Path(path).write_text(serialize_feeder(model), encoding="utf-8")


def path_to_slack(feeder: FeederModel, node_id: str) -> tuple[Branch, ...]:
    """Ordered branch path from ``node_id`` up to the slack (empty for slack)."""
    index = feeder.compiled
    if node_id != index.slack_id and node_id not in index.parent:
        raise FeederError(f"unknown node id: {node_id}")
    path: list[Branch] = []
    current = node_id
    while current != index.slack_id:
        current, branch = index.parent[current]
        path.append(branch)
    return tuple(path)


def load_baseline_profiles(path: str | Path) -> tuple[BaselineLoadProfile, ...]:
    """Read household baseline profiles from a CSV table.

    Header row holds household ids, each following row one time step in kW.
    """
    return parse_baseline_profiles(Path(path).read_text(encoding="utf-8-sig"))


def parse_baseline_profiles(text: str) -> tuple[BaselineLoadProfile, ...]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise FeederError("baseline profile table is empty")
    header = [c.strip() for c in rows[0]]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise FeederError(f"baseline profile table repeats households: {repeated}")
    data = rows[1:]
    if len(data) != STEPS_PER_DAY:
        raise FeederError(
            f"baseline profile table has {len(data)} steps, expected {STEPS_PER_DAY}"
        )
    for n, r in enumerate(data, start=2):
        if len(r) != len(header):
            raise FeederError(f"profile table row {n} has {len(r)} cells, its header {len(header)}")
    profiles = []
    for col, household in enumerate(header):
        try:
            series = tuple(float(r[col]) for r in data)
        except ValueError as exc:
            raise FeederError(f"bad value in profile column {household}: {exc}") from exc
        profiles.append(BaselineLoadProfile(household=household, power_kw=series))
    return tuple(profiles)


def bundled_feeder() -> FeederModel:
    """The packaged 19-node example feeder."""
    text = resources.files("evhc.data").joinpath(BUNDLED_FEEDER).read_text("utf-8")
    return parse_feeder(text)


def bundled_baseline_profiles() -> tuple[BaselineLoadProfile, ...]:
    """The packaged synthetic winter-evening-peak household profiles."""
    text = resources.files("evhc.data").joinpath(BUNDLED_PROFILES).read_text("utf-8")
    return parse_baseline_profiles(text)

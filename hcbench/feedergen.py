"""Seeded radial feeder and baseline-profile generator for ``threshold_large``.

The generated feeder has a 1.0 pu slack busbar (``tx``), ``FEEDERS`` trunk
cables of ``TRUNK_NODES`` nodes each, and a lateral of ``LATERAL_NODES``
nodes hanging off each trunk node. The ``HOUSEHOLDS`` households attach to
trunk and lateral nodes at random, so the node count is always
``1 + FEEDERS * TRUNK_NODES * (1 + LATERAL_NODES)``.

Cable impedances are drawn per segment around values that put the passive
hosting capacity a few kW above zero and let the envelope trade voltage
for QoS, so both the undervoltage and the aggregated-QoS limit appear
across the QoS thresholds of the workload. The transformer and the
ampacities are sized so that they rarely bind first.

Baseline profiles are the bundled ones, each scaled and shifted by a few
steps, so the 96-step evening peak keeps its shape.

The output formats are the ones ``evhc.feeder.load_feeder`` and
``evhc.feeder.load_baseline_profiles`` read. Only the standard library is
used, so the same seed gives the same files on any platform.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

FEEDERS = 4
TRUNK_NODES = 10
LATERAL_NODES = 1
HOUSEHOLDS = 120
STEPS = 96

TRUNK_R_OHM = (0.016, 0.028)      # per trunk segment
LATERAL_R_OHM = (0.008, 0.016)    # per lateral segment
TRUNK_X_OVER_R = 0.39
LATERAL_X_OVER_R = 0.19
TRUNK_AMPACITY_A = 400.0
LATERAL_AMPACITY_A = 160.0
TRANSFORMER_KVA = 1000.0
BASE_VOLTAGE_V = 230.0

PROFILE_SCALE = (0.8, 1.25)
PROFILE_SHIFT_STEPS = 3


def _feeder_yaml(rng: random.Random) -> tuple[str, list[str], int]:
    nodes = ["tx"]
    branches: list[tuple[str, str, float, float, float]] = []
    for f in range(FEEDERS):
        up = "tx"
        for t in range(TRUNK_NODES):
            node = f"f{f}t{t}"
            r = rng.uniform(*TRUNK_R_OHM)
            branches.append((up, node, r, r * TRUNK_X_OVER_R, TRUNK_AMPACITY_A))
            nodes.append(node)
            up = node
    for node in nodes[1:]:
        up = node
        for k in range(LATERAL_NODES):
            child = f"{node}l{k}"
            r = rng.uniform(*LATERAL_R_OHM)
            branches.append((up, child, r, r * LATERAL_X_OVER_R, LATERAL_AMPACITY_A))
            nodes.append(child)
            up = child
    households = [(f"h{i + 1:03d}", rng.choice(nodes[1:])) for i in range(HOUSEHOLDS)]

    lines = [
        f"transformer_kva: {TRANSFORMER_KVA}",
        f"base_voltage_v: {BASE_VOLTAGE_V}",
        "nodes:",
        "- id: tx",
        "  slack: true",
    ]
    lines += [f"- id: {n}" for n in nodes[1:]]
    lines.append("branches:")
    for a, b, r, x, amp in branches:
        lines.append(
            f"- {{from: {a}, to: {b}, r_ohm: {r:.6f}, x_ohm: {x:.6f}, ampacity_a: {amp}}}"
        )
    lines.append("households:")
    lines += [f"- {{id: {h}, node: {n}}}" for h, n in households]
    return "\n".join(lines) + "\n", [h for h, _ in households], len(nodes)


def _profiles_csv(rng: random.Random, households: list[str], bundled_csv: str) -> str:
    rows = list(csv.reader(io.StringIO(bundled_csv)))
    columns = [[float(r[c]) for r in rows[1:]] for c in range(len(rows[0]))]
    if any(len(col) != STEPS for col in columns):
        raise ValueError(f"bundled profiles must have {STEPS} steps")
    series = []
    for _ in households:
        col = rng.choice(columns)
        scale = rng.uniform(*PROFILE_SCALE)
        shift = rng.randint(-PROFILE_SHIFT_STEPS, PROFILE_SHIFT_STEPS)
        series.append([col[(t - shift) % STEPS] * scale for t in range(STEPS)])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(households)
    for t in range(STEPS):
        writer.writerow([f"{s[t]:.4f}" for s in series])
    return out.getvalue()


def generate(seed: int, out_dir: Path, bundled_profiles: Path) -> dict:
    """Write ``feeder.yaml`` and ``profiles.csv`` for ``seed`` into
    ``out_dir``; return the paths and the node and household counts."""
    rng = random.Random(f"hcbench-feeder-{seed}")
    feeder_text, households, n_nodes = _feeder_yaml(rng)
    profiles_text = _profiles_csv(
        rng, households, bundled_profiles.read_text(encoding="utf-8")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    feeder_path = out_dir / "feeder.yaml"
    profiles_path = out_dir / "profiles.csv"
    feeder_path.write_text(feeder_text, encoding="utf-8")
    profiles_path.write_text(profiles_text, encoding="utf-8")
    return {
        "feeder": feeder_path,
        "profiles": profiles_path,
        "nodes": n_nodes,
        "households": len(households),
    }

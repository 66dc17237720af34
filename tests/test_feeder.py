"""Feeder model: ingestion, validation, tree queries, round-trips, and the
compiled index that every solve reads."""

import pickle
from importlib import resources

import numpy as np
import pytest
import yaml

import evhc.cli
import evhc.feeder
from evhc.doe import DoeParams, network_aware_horizon
from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.feeder import (
    Branch,
    FeederError,
    FeederModel,
    Household,
    Node,
    build_feeder,
    bundled_baseline_profiles,
    bundled_feeder,
    parse_baseline_profiles,
    parse_feeder,
    path_impedance,
    path_to_slack,
    serialize_baseline_profiles,
    serialize_feeder,
)
from evhc.powerflow import InjectionSet, solve


def test_bundled_feeder_matches_reference_statistics(feeder):
    assert len(feeder.nodes) == 19
    assert len(feeder.branches) == 18
    assert len(feeder.households) == 12
    assert feeder.transformer_kva == 100.0
    assert feeder.base_voltage_v == 230.0
    assert sum(1 for n in feeder.nodes if n.is_slack) == 1


def test_minimal_two_node_feeder_is_valid(two_node_feeder):
    assert two_node_feeder.slack_id == "tx"
    assert two_node_feeder.household_ids == ("h1",)


def test_cycle_is_rejected_and_named():
    with pytest.raises(FeederError, match="closes a cycle"):
        build_feeder(
            nodes=(Node("tx", is_slack=True), Node("a"), Node("b")),
            branches=(
                Branch("tx", "a", 0.1, 0.0, 100.0),
                Branch("a", "b", 0.1, 0.0, 100.0),
                Branch("b", "tx", 0.1, 0.0, 100.0),
            ),
            households=(),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )


def test_disconnected_node_is_rejected():
    with pytest.raises(FeederError, match="not connected"):
        build_feeder(
            nodes=(Node("tx", is_slack=True), Node("a"), Node("b"), Node("c")),
            branches=(
                Branch("tx", "a", 0.1, 0.0, 100.0),
                Branch("b", "c", 0.1, 0.0, 100.0),
                Branch("c", "b", 0.1, 0.0, 100.0),
            ),
            households=(),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )


def test_wrong_branch_count_is_rejected():
    with pytest.raises(FeederError, match=r"\|branches\| = \|nodes\| - 1"):
        build_feeder(
            nodes=(Node("tx", is_slack=True), Node("a")),
            branches=(),
            households=(),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )


@pytest.mark.parametrize("n_slack", [0, 2])
def test_slack_count_must_be_one(n_slack):
    nodes = [Node("a", is_slack=n_slack >= 1), Node("b", is_slack=n_slack >= 2)]
    with pytest.raises(FeederError, match="exactly one slack"):
        build_feeder(
            nodes=tuple(nodes),
            branches=(Branch("a", "b", 0.1, 0.0, 100.0),),
            households=(),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )


def test_household_attachment_validated():
    with pytest.raises(FeederError, match="unknown node"):
        build_feeder(
            nodes=(Node("tx", is_slack=True), Node("a")),
            branches=(Branch("tx", "a", 0.1, 0.0, 100.0),),
            households=(Household("h1", "nope"),),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )
    with pytest.raises(FeederError, match="slack"):
        build_feeder(
            nodes=(Node("tx", is_slack=True), Node("a")),
            branches=(Branch("tx", "a", 0.1, 0.0, 100.0),),
            households=(Household("h1", "tx"),),
            transformer_kva=100.0,
            base_voltage_v=230.0,
        )


def test_path_to_slack_root_case(feeder):
    assert path_to_slack(feeder, feeder.slack_id) == ()


def test_path_to_slack_two_node(two_node_feeder):
    path = path_to_slack(two_node_feeder, "n1")
    assert len(path) == 1
    assert {path[0].from_node, path[0].to_node} == {"tx", "n1"}


def test_path_to_slack_unknown_node(feeder):
    with pytest.raises(FeederError, match="unknown node"):
        path_to_slack(feeder, "nowhere")


def _bfs_depths(feeder):
    """Independent traversal oracle: hop count from the slack to each node."""
    adjacency = {}
    for b in feeder.branches:
        adjacency.setdefault(b.from_node, []).append(b.to_node)
        adjacency.setdefault(b.to_node, []).append(b.from_node)
    depth = {feeder.slack_id: 0}
    queue = [feeder.slack_id]
    while queue:
        current = queue.pop(0)
        for neighbor in adjacency[current]:
            if neighbor not in depth:
                depth[neighbor] = depth[current] + 1
                queue.append(neighbor)
    return depth


def test_path_length_matches_bfs_depth_oracle(feeder):
    depth = _bfs_depths(feeder)
    for node in feeder.node_ids:
        assert len(path_to_slack(feeder, node)) == depth[node]


def test_path_is_a_valid_walk_to_the_slack(feeder):
    for node in feeder.node_ids:
        current = node
        for branch in path_to_slack(feeder, node):
            assert current in (branch.from_node, branch.to_node)
            current = branch.to_node if current == branch.from_node else branch.from_node
        assert current == feeder.slack_id


def test_feeder_round_trip(feeder):
    assert parse_feeder(serialize_feeder(feeder)) == feeder


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_parse_the_same_feeder(monkeypatch):
    text = resources.files("evhc.data").joinpath(evhc.feeder.BUNDLED_FEEDER).read_text("utf-8")
    assert evhc.feeder._YAML_LOADER is yaml.CSafeLoader
    with_libyaml = parse_feeder(text)
    monkeypatch.setattr(evhc.feeder, "_YAML_LOADER", yaml.SafeLoader)
    assert parse_feeder(text) == with_libyaml
    with pytest.raises(FeederError, match="not valid YAML"):
        parse_feeder("nodes: [")


def test_profiles_round_trip(profiles):
    assert parse_baseline_profiles(serialize_baseline_profiles(profiles)) == profiles


def test_bundled_profiles_cover_households(feeder, profiles):
    assert {p.household for p in profiles} == set(feeder.household_ids)
    for p in profiles:
        assert len(p.power_kw) == 96
        assert all(v >= 0 for v in p.power_kw)


def test_negative_profile_rejected():
    with pytest.raises(FeederError, match="must be >= 0"):
        parse_baseline_profiles("h1\n" + "\n".join(["-1.0"] + ["0.1"] * 95))


def test_households_sit_on_the_electrically_farthest_nodes(feeder):
    """Every household node is electrically deeper than every bare node."""
    household_nodes = {h.node for h in feeder.households}
    bare = [
        n.id
        for n in feeder.nodes
        if not n.is_slack and n.id not in household_nodes
    ]
    far_min = min(abs(path_impedance(feeder, n)) for n in household_nodes)
    near_max = max(abs(path_impedance(feeder, n)) for n in bare)
    assert far_min > 0
    assert near_max < abs(path_impedance(feeder, max(
        household_nodes, key=lambda n: abs(path_impedance(feeder, n))
    )))


def test_bundled_loaders_are_cached_consistent():
    assert bundled_feeder() == bundled_feeder()
    assert bundled_baseline_profiles() == bundled_baseline_profiles()


# --- compiled index -------------------------------------------------------


def test_day_solve_and_export_never_hash_the_feeder(tmp_path, monkeypatch):
    """The compiled index lives on the model: nothing rehashes the frozen
    feeder per solve, per day or per exported table."""

    def no_hash(self):
        raise AssertionError("FeederModel was hashed")

    monkeypatch.setattr(FeederModel, "__hash__", no_hash)
    feeder, profiles = bundled_feeder(), bundled_baseline_profiles()
    n = len(feeder.household_ids)
    assert solve(feeder, InjectionSet(feeder.household_ids, np.full(n, 2.0))).converged
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=1)
    _, trace = network_aware_horizon(feeder, profiles, fleet, 6.0, DoeParams())
    assert trace.control_active

    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        "mode: compare\nscenarios: [low]\n"
        "search: {power_min_kw: 1.0, power_max_kw: 6.0, power_step_kw: 1.0}\n"
    )
    out = tmp_path / "out"
    assert evhc.cli.main(["run", str(scenario), "--output-dir", str(out)]) == 0
    assert (out / "network_aware_low" / "envelope_trace.csv").exists()


def test_compiled_arrays_reject_writes(feeder):
    arrays = [v for v in vars(feeder.compiled).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # a pickled model (as sent to sweep workers) rebuilds a read-only index
    copy = pickle.loads(pickle.dumps(feeder))
    assert copy == feeder
    assert not copy.compiled.impedance.flags.writeable
    assert np.array_equal(copy.compiled.impedance, feeder.compiled.impedance)


def test_compiled_impedance_is_the_shared_path_impedance(feeder):
    """Entry (i, j) is the impedance of the branches common to the slack
    paths of nodes i and j, checked against ``path_to_slack``."""
    comp = feeder.compiled
    non_slack = [n for n in feeder.node_ids if n != feeder.slack_id]
    position = {feeder.node_ids[s]: i for i, s in enumerate(comp.voltage_slot)}
    for a in non_slack:
        for b in non_slack:
            shared = set(path_to_slack(feeder, a)) & set(path_to_slack(feeder, b))
            expected = sum((complex(br.r_ohm, br.x_ohm) for br in shared), start=0j)
            assert comp.impedance[position[a], position[b]] == pytest.approx(expected, abs=1e-12)

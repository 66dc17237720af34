"""The feeder walk, the lane kernel and the day rebuild on small random
radial feeders.

Every other kernel test runs on the bundled 19-node feeder or a hand-built
one. Here ``hypothesis`` draws feeders of 2 to 25 nodes with random
branching, impedances and ampacities, some nodes carrying two households,
and tiles the bundled profiles over the households. Each day rebuilt from
what the kernel kept must equal ``reference_day`` bit for bit, and each
judged lane's incidents and two extrema must equal the reference's. A
search reduced from its whole grid, judged in one kernel call with or
without its search key, must equal the same search run in candidate
rounds. The walk that checks and indexes a feeder must name a cycle's branch, count the
branches, and index the tree breadth-first with children in node order,
whatever the order and orientation of its branches.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evhc.doe import DoeParams, Lane, _raised, _replay, _simulate_lanes
from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.feeder import (
    BaselineLoadProfile,
    Branch,
    FeederError,
    Household,
    Node,
    build_feeder,
    bundled_baseline_profiles,
    path_to_slack,
)
from evhc.hc import (
    SWEEP_EV_COUNT,
    SWEEP_POWER,
    HcSearchConfig,
    _evaluate,
    _points,
    _reduce_search,
    reduce_searches,
)
from evhc.incidents import IncidentLimits
from evhc.powerflow import VoltageCollapseError
from reference_day import reference_day, reference_detect, reference_summarize
from test_hc import _assert_same

ENVELOPES = (
    DoeParams(),
    DoeParams(factor=0.2, voltage_source="previous_step"),
    DoeParams(delta_perm=0.1),  # degenerate band: a step at u_min
)


@st.composite
def _feeder_parts(draw, shuffled=False):
    """The ``build_feeder`` arguments of a random radial feeder; ``shuffled``
    draws its branches in random order and orientation."""
    n = draw(st.integers(2, 25))
    branches, households = [], []
    for i in range(1, n):
        r = draw(st.floats(0.01, 0.2))
        x = r * draw(st.floats(0.1, 2.0))  # X/R
        ampacity = draw(st.floats(40.0, 400.0))
        branches.append(Branch(f"n{draw(st.integers(0, i - 1))}", f"n{i}", r, x, ampacity))
        for k in range(draw(st.integers(1 if i == n - 1 else 0, 2))):
            households.append(Household(f"h{i}_{k}", f"n{i}"))
    if shuffled:
        branches = [
            Branch(b.to_node, b.from_node, b.r_ohm, b.x_ohm, b.ampacity_a) if draw(st.booleans())
            else b for b in draw(st.permutations(branches))
        ]
    return dict(
        nodes=(Node("n0", is_slack=True), *(Node(f"n{i}") for i in range(1, n))),
        branches=tuple(branches),
        households=tuple(households),
        transformer_kva=draw(st.floats(20.0, 250.0)),
        base_voltage_v=230.0,
    )


@st.composite
def _fleets(draw):
    """A random radial feeder, its tiled profiles and a seeded fleet."""
    feeder = build_feeder(**draw(_feeder_parts()))
    bundled = bundled_baseline_profiles()
    profiles = tuple(
        BaselineLoadProfile(h.id, bundled[j % len(bundled)].power_kw)
        for j, h in enumerate(feeder.households)
    )
    scenario = DEFAULT_SCENARIOS[draw(st.sampled_from(sorted(DEFAULT_SCENARIOS)))]
    fleet = generate_fleet(scenario, feeder.household_ids, seed=draw(st.integers(0, 10_000)))
    return feeder, profiles, fleet


@st.composite
def _studies(draw):
    """A random radial feeder, its tiled profiles and a day's lanes."""
    feeder, profiles, fleet = draw(_fleets())
    power = draw(st.sampled_from([3.0, 7.0, 11.0, 22.0]))
    return feeder, profiles, [Lane(fleet, power), *(Lane(fleet, power, p) for p in ENVELOPES)]


def _outcome(run):
    try:
        return run()
    except (ValueError, VoltageCollapseError) as exc:
        return exc


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_studies())
def test_rebuilt_and_judged_days_equal_the_reference_on_random_feeders(study):
    feeder, profiles, lanes = study
    limits = IncidentLimits.from_feeder(feeder)
    kept = _simulate_lanes(feeder, profiles, lanes)
    judged = _simulate_lanes(feeder, profiles, lanes, judge=limits)
    for lane, day, judged_day in zip(lanes, kept, judged):
        expected = _outcome(lambda: reference_day(
            feeder, profiles, lane.sessions, lane.hc_power, lane.params
        )[1])
        if lane.params is None:  # uncontrolled: rebuilt without the kernel
            rebuilt = _outcome(lambda: _replay(feeder, profiles, lane)[1])
        else:
            rebuilt = _outcome(lambda: _replay(feeder, profiles, lane, _raised(day))[1])
        _assert_same(rebuilt, expected)
        if isinstance(expected, Exception):
            assert type(judged_day) is type(expected) and str(judged_day) == str(expected)
            continue
        summary = reference_summarize(expected, feeder.compiled.ampacity_a)
        assert judged_day.incidents == reference_detect(expected, limits)
        assert judged_day.min_voltage_pu == summary.overall_min_voltage_pu
        assert judged_day.max_slack_kva == summary.max_slack_kva
        assert np.array_equal(judged_day.delivered_kwh, expected.delivered_kwh)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _fleets(),
    st.sampled_from(["passive", "network_aware"]),
    st.sampled_from([SWEEP_POWER, SWEEP_EV_COUNT]),
    st.sampled_from(ENVELOPES),
    st.sampled_from([7.4, 22.0]),
    st.sampled_from([0.8, 0.99]),
)
def test_a_whole_grid_reduces_to_the_search_in_rounds(
    study, mode, dimension, doe, count_mode_power_kw, qos_threshold
):
    """``evhc run`` judges each search's whole grid in one kernel call and
    reduces it: a network-aware grid unkeyed, so every lane runs its whole
    day, and a passive grid under its search key, so lanes past its first
    incident stop. Either way the report equals the search in candidate
    rounds, field by field and candidate by candidate."""
    feeder, profiles, fleet = study
    config = HcSearchConfig(
        power_grid_kw=(2.0, 4.0, 7.0, 11.0, 16.0, 22.0), qos_threshold=qos_threshold, doe=doe,
        sweep_dimension=dimension, count_mode_power_kw=count_mode_power_kw,
    )
    [expected] = reduce_searches(feeder, profiles, [(fleet, config, mode)])
    jobs = [(point, config, mode) for point in _points(fleet, config)]
    for keys in (None, [0] * len(jobs)):
        _assert_same(_reduce_search(_evaluate(feeder, profiles, jobs, keys), config, mode), expected)


@settings(max_examples=50, deadline=None)
@given(_feeder_parts(shuffled=True))
def test_the_walk_indexes_the_tree_breadth_first_in_node_order(parts):
    """Node positions number the non-slack nodes breadth-first from the
    slack, each node's children in node order, whatever the branch order;
    and impedance entry (i, j) is that of the branches the slack paths of
    nodes i and j share."""
    feeder = build_feeder(**parts)
    comp = feeder.compiled
    slot = {n: i for i, n in enumerate(feeder.node_ids)}
    neighbors = {n: [] for n in feeder.node_ids}
    for b in feeder.branches:
        neighbors[b.from_node].append(b.to_node)
        neighbors[b.to_node].append(b.from_node)
    order, seen = [feeder.slack_id], {feeder.slack_id}
    for node in order:
        children = sorted((c for c in neighbors[node] if c not in seen), key=slot.get)
        seen.update(children)
        order += children
    assert [feeder.node_ids[s] for s in comp.voltage_slot] == order[1:]
    for i, a in enumerate(order[1:]):
        for j, b in enumerate(order[1:]):
            shared = set(path_to_slack(feeder, a)) & set(path_to_slack(feeder, b))
            expected = sum((complex(br.r_ohm, br.x_ohm) for br in shared), start=0j)
            assert abs(comp.impedance[i, j] - expected) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(_feeder_parts(shuffled=True), st.data())
def test_an_extra_branch_is_named_as_closing_a_cycle(parts, data):
    """One extra branch between any two nodes (a node and itself included)
    closes a cycle. The walk names a branch of it: removing that branch
    leaves a feeder that builds."""
    nodes = [n.id for n in parts["nodes"]]
    extra = Branch(data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes)),
                   0.1, 0.05, 100.0)
    branches = list(parts["branches"])
    branches.insert(data.draw(st.integers(0, len(branches))), extra)
    try:
        build_feeder(**{**parts, "branches": tuple(branches)})
    except FeederError as exc:
        named = re.fullmatch(r"branch (\S+)-(\S+) closes a cycle", str(exc))
    else:
        raise AssertionError("a feeder with a cycle was built")
    assert named, "the error names no branch"
    cut = next(k for k, b in enumerate(branches) if (b.from_node, b.to_node) == named.groups())
    build_feeder(**{**parts, "branches": tuple(branches[:cut] + branches[cut + 1:])})


@settings(max_examples=50, deadline=None)
@given(_feeder_parts(shuffled=True), st.data())
def test_a_missing_branch_is_a_branch_count_error(parts, data):
    branches = list(parts["branches"])
    del branches[data.draw(st.integers(0, len(branches) - 1))]
    with pytest.raises(FeederError, match=r"\|branches\| = \|nodes\| - 1"):
        build_feeder(**{**parts, "branches": tuple(branches)})

"""The feeder walk, the lane kernel and the day rebuild on small random
radial feeders.

Every other kernel test runs on the bundled 19-node feeder or a hand-built
one. Here ``hypothesis`` draws feeders of 2 to 25 nodes with random
branching, impedances and ampacities, some nodes carrying two households,
and tiles the bundled profiles over the households. Each day rebuilt from
what the kernel kept must equal ``reference_day`` bit for bit, and each
judged lane's incidents and two extrema must equal the reference's; an
uncontrolled lane delivers each EV exactly its ``baseline_trajectory``
energy. A seeded 81-node, 120-household feeder shaped like the
benchmark's generated one checks the same days at that size. A search
reduced from its whole grid, judged in one kernel call
stopping or whole, must equal the same search run in candidate rounds, at
any round width, and each DOE sweep cell is its search run alone. The
power-flow oracle of criterion 4 holds, every connected EV draws the clamp
of its desire to its recorded envelope, and every judged network-aware
candidate has a QoS in [0, 1] over its uncontrolled energy, which is its
``baseline_trajectory`` energy bit for bit, and delivers each EV at most
that energy and its request. Every step keeps
the contract of ``_step``, the one controlled-step function. The walk that
checks and indexes a feeder must name a cycle's branch, count the branches,
and index the tree breadth-first with children in node order, whatever the
order and orientation of its branches.
"""

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

import evhc.hc
from evhc.doe import DoeParams, Lane, _raised, _replay, _simulate_lanes
from evhc.ev import DEFAULT_SCENARIOS, baseline_trajectory, generate_fleet
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
    _evaluate_days,
    _points,
    fleet_for_scenario,
    network_aware_hc,
    reduce_candidates,
    reduce_searches,
    sensitivity_sweep,
)
from evhc.incidents import IncidentLimits
from evhc.powerflow import VoltageCollapseError, injections_from_loads, solve
from evhc.qos import QosError
from evhc.trace import ZONE_NONE
from reference_day import reference_day, reference_detect, reference_summarize
from test_hc import _assert_same
from test_lanes import assert_step_contract

ENVELOPES = (
    DoeParams(),
    DoeParams(factor=0.2, voltage_source="previous_step"),
    DoeParams(delta_perm=0.1),  # degenerate band: a step at u_min
)

# A kernel-day property reruns whole kernel days for every shrink step, so a
# failing one would take minutes to shrink; it reports its first failure.
KERNEL_DAYS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[phase for phase in Phase if phase is not Phase.shrink],
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


def _large_feeder(seed: int):
    """A seeded radial feeder in the shape of the benchmark's generated one:
    four trunks of ten nodes, a one-node lateral off each trunk node (81
    nodes with the slack) and 120 households at random nodes, each with a
    bundled profile scaled and shifted by a few steps."""
    rng = random.Random(seed)
    trunks = [[f"f{f}t{t}" for t in range(10)] for f in range(4)]
    branches = []
    for trunk in trunks:
        for up, node in zip(["tx", *trunk], trunk):
            r = rng.uniform(0.016, 0.028)
            branches.append(Branch(up, node, r, 0.39 * r, 400.0))
    nodes = [node for trunk in trunks for node in trunk]
    for node in list(nodes):
        r = rng.uniform(0.008, 0.016)
        branches.append(Branch(node, f"{node}l0", r, 0.19 * r, 160.0))
        nodes.append(f"{node}l0")
    households = tuple(Household(f"h{i:03d}", rng.choice(nodes)) for i in range(1, 121))
    feeder = build_feeder(
        nodes=(Node("tx", is_slack=True), *(Node(n) for n in nodes)), branches=tuple(branches),
        households=households, transformer_kva=1000.0, base_voltage_v=230.0,
    )
    bundled = bundled_baseline_profiles()
    profiles = []
    for h in households:
        kw, scale, shift = rng.choice(bundled).power_kw, rng.uniform(0.8, 1.25), rng.randint(-3, 3)
        profiles.append(BaselineLoadProfile(h.id, tuple(
            round(kw[(t - shift) % len(kw)] * scale, 4) for t in range(len(kw)))))
    return feeder, tuple(profiles)


def _assert_days_equal_the_reference(feeder, profiles, lanes):
    """Each day rebuilt from what the kernel kept is ``reference_day``, bit
    for bit, and each judged lane keeps the reference's incidents, extrema
    and delivered energy (or ends in its error)."""
    limits = IncidentLimits.from_feeder(feeder)
    judged = _simulate_lanes(feeder, profiles, lanes, judge=limits)
    for lane, judged_day in zip(lanes, judged):
        expected = _outcome(lambda: reference_day(
            feeder, profiles, lane.sessions, lane.hc_power, lane.params
        )[1])
        if lane.params is None:  # uncontrolled: rebuilt without the kernel
            rebuilt = _outcome(lambda: _replay(feeder, profiles, lane)[1])
        else:
            rebuilt = _outcome(lambda: _replay(feeder, profiles, lane, _raised(judged_day))[1])
        _assert_same(rebuilt, expected)
        if isinstance(expected, Exception):
            assert type(judged_day) is type(expected) and str(judged_day) == str(expected)
            continue
        summary = reference_summarize(expected, feeder.compiled.ampacity_a)
        assert judged_day.incidents == reference_detect(expected, limits)
        assert judged_day.min_voltage_pu == summary.overall_min_voltage_pu
        assert judged_day.max_slack_kva == summary.max_slack_kva
        assert np.array_equal(judged_day.delivered_kwh, expected.delivered_kwh)


@settings(max_examples=20, **KERNEL_DAYS)
@given(_studies())
def test_rebuilt_and_judged_days_equal_the_reference_on_random_feeders(study):
    _assert_days_equal_the_reference(*study)


def test_days_equal_the_reference_at_the_benchmark_feeder_size():
    """Every random feeder has at most 25 nodes. The kernel must equal the
    reference on an 81-node feeder the size of the benchmark's too, past the
    64 nodes at which OpenBLAS may thread the stacked matvecs: uncontrolled,
    fixed-point and degenerate-band lanes."""
    feeder, profiles = _large_feeder(seed=1)
    assert (len(feeder.node_ids), len(feeder.household_ids)) == (81, 120)
    fleet = generate_fleet(DEFAULT_SCENARIOS["high"], feeder.household_ids, seed=1)
    lanes = [Lane(fleet, 7.0), Lane(fleet, 7.0, DoeParams()), Lane(fleet, 7.0, ENVELOPES[2])]
    _assert_days_equal_the_reference(feeder, profiles, lanes)


@settings(max_examples=20, **KERNEL_DAYS)
@given(_fleets(), st.sampled_from([3.0, 7.0, 11.0, 22.0]))
def test_every_uncontrolled_day_delivers_the_baseline_energy(study, count_mode_power_kw):
    """Each EV of every uncontrolled judged day, of either dimension, is
    delivered exactly the energy of its ``baseline_trajectory``, the QoS
    denominator, bit for bit."""
    feeder, profiles, fleet = study
    power = HcSearchConfig(power_grid_kw=(2.0, 7.0, 22.0), count_mode_power_kw=count_mode_power_kw)
    grids = [(_points(fleet, cfg), cfg, "passive", False)
             for cfg in (power, replace(power, sweep_dimension=SWEEP_EV_COUNT))]
    for (points, *_), results in zip(grids, _evaluate_days(feeder, profiles, grids)):
        for (_, _, kw), result in zip(points, results):
            if isinstance(result, Exception) or result.day is None:  # no day, or a collapse
                continue
            energy = [baseline_trajectory(s, kw).delivered_kwh for s in result.day.sessions]
            assert result.day.delivered_kwh.tolist() == energy


@settings(max_examples=10, **KERNEL_DAYS)
@given(_fleets(), st.sampled_from(sorted(DEFAULT_SCENARIOS)),
       st.sampled_from([SWEEP_POWER, SWEEP_EV_COUNT]))
def test_each_doe_sweep_cell_is_its_search_alone(study, label, dimension):
    """Each cell of a DOE sweep, report or error, is that cell's power-grid
    search run alone with ``network_aware_hc``, whatever the dimension of
    the sweep's config: its report candidate by candidate."""
    feeder, profiles, _ = study
    config = HcSearchConfig(power_grid_kw=(2.0, 4.0, 7.0, 11.0, 16.0, 22.0),
                            sweep_dimension=dimension)
    scenarios = [DEFAULT_SCENARIOS[label]]
    cells = sensitivity_sweep(feeder, profiles, scenarios, [0.0, 0.05], [0.2, 0.5], config)
    assert len(cells) == 2 * 2
    for cell in cells:
        doe = replace(config.doe, delta_perm=cell.delta_perm, factor=cell.factor)
        search = replace(config, doe=doe, scenario=cell.scenario, sweep_dimension=SWEEP_POWER)
        fleet = fleet_for_scenario(feeder, DEFAULT_SCENARIOS[cell.scenario], search)
        try:
            report = network_aware_hc(feeder, profiles, fleet, search)
        except Exception as exc:
            assert cell.error == f"{type(exc).__name__}: {exc}" and cell.report is None
            continue
        assert cell.error is None
        _assert_same(cell.report, report)


@settings(max_examples=30, **KERNEL_DAYS)
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
    reduces it: a network-aware grid whole, so every lane runs its whole
    day, and a passive grid stopping, so lanes past its first incident
    stop. Either way the report equals the search in candidate
    rounds, field by field and candidate by candidate."""
    feeder, profiles, fleet = study
    config = HcSearchConfig(
        power_grid_kw=(2.0, 4.0, 7.0, 11.0, 16.0, 22.0), qos_threshold=qos_threshold, doe=doe,
        sweep_dimension=dimension, count_mode_power_kw=count_mode_power_kw,
    )
    [expected] = reduce_searches(feeder, profiles, [(fleet, config, mode)])
    points = _points(fleet, config)
    for stop in (False, True):
        [outcomes] = _evaluate_days(feeder, profiles, [(points, config, mode, stop)])
        report = reduce_candidates(outcomes, qos_threshold, mode, config.scenario, dimension)
        _assert_same(report, expected)


@settings(max_examples=40, deadline=None)
@given(_feeder_parts(), st.data())
def test_the_power_flow_oracle_holds_on_random_feeders(parts, data):
    """Criterion 4's checks on feeders other than the bundled one: a
    converged solve of random household loads supplies their sum plus the
    branch losses at the slack, within 1e-6 relative, and |V| never rises
    going up a path to the slack, within 1e-9 pu."""
    feeder = build_feeder(**parts)
    n = len(feeder.household_ids)
    scale = data.draw(st.sampled_from([0.05, 0.3, 1.0]))  # deep feeders collapse at full load
    p = scale * np.array(data.draw(st.lists(st.floats(0.0, 7.0), min_size=n, max_size=n)))
    inj = injections_from_loads(feeder.household_ids, p, np.zeros_like(p))
    try:
        sol = solve(feeder, inj)
    except VoltageCollapseError:
        sol = None
    assume(sol is not None and sol.converged)
    r_ohm = np.array([b.r_ohm for b in feeder.branches])
    expected = float(np.sum(inj.p_kw)) + 3.0 * float(np.sum(sol.branch_current_a**2 * r_ohm)) / 1e3
    assert abs(sol.slack_p_kw - expected) <= 1e-6 * expected
    for node in feeder.node_ids:
        current = node
        for branch in path_to_slack(feeder, node):
            upstream = branch.to_node if current == branch.from_node else branch.from_node
            assert sol.voltage_of(current) <= sol.voltage_of(upstream) + 1e-9
            current = upstream


@settings(max_examples=20, **KERNEL_DAYS)
@given(_studies())
def test_every_connected_ev_draws_its_clamped_desire_on_random_feeders(study):
    """At every connected step of a rebuilt controlled day each EV draws
    exactly min(desired, cap) of its recorded envelope, as the envelope's
    lower edge min(floor, desired) never lifts it; an uncontrolled EV draws
    what it desires."""
    feeder, profiles, lanes = study
    limits = IncidentLimits.from_feeder(feeder)
    for lane, day in zip(lanes, _simulate_lanes(feeder, profiles, lanes, judge=limits)):
        kept = None if lane.params is None else day
        try:  # a heavy day may collapse; no other error may end it
            trace = _replay(feeder, profiles, lane, _raised(kept))[1]
        except VoltageCollapseError:
            continue
        granted, desired = trace.ev_power_kw, trace.ev_desired_kw
        if lane.params is None:
            assert np.array_equal(granted, desired)
            continue
        connected = trace.envelope_zone != ZONE_NONE
        clamped = np.minimum(desired, trace.envelope_cap_kw)
        assert np.array_equal(granted[connected], clamped[connected])
        assert not granted[~connected].any()


@settings(max_examples=10, **KERNEL_DAYS)
@given(_studies())
def test_every_step_keeps_the_step_contract_on_random_feeders(study):
    """See ``assert_step_contract``: each drawn study steps an uncontrolled,
    a fixed-point, a ``previous_step`` and a degenerate-band lane."""
    assert_step_contract(*study)


@settings(max_examples=20, **KERNEL_DAYS)
@given(_fleets(), st.sampled_from(ENVELOPES))
def test_every_judged_network_aware_candidate_has_a_qos_in_0_1(study, doe):
    feeder, profiles, fleet = study
    config = HcSearchConfig(power_grid_kw=(2.0, 4.0, 7.0, 11.0, 16.0, 22.0), doe=doe)
    grid = (_points(fleet, config), config, "network_aware", False)
    for (_, _, kw), outcome in zip(grid[0], _evaluate_days(feeder, profiles, [grid])[0]):
        assert not isinstance(outcome, QosError)
        if isinstance(outcome, Exception) or outcome.qos is None:
            continue
        qos = outcome.qos
        assert 0.0 <= qos.aggregated <= 1.0
        assert np.all((0.0 <= qos.individual) & (qos.individual <= 1.0))
        day = outcome.day  # the QoS denominator is the baseline energy, bit for bit
        assert day.uncontrolled_kwh.tolist() == [
            baseline_trajectory(s, kw).delivered_kwh for s in day.sessions]
        requested = np.array([s.requested_kwh for s in day.sessions])
        assert np.all(day.delivered_kwh <= day.uncontrolled_kwh * (1 + 1e-12))
        assert np.all(day.delivered_kwh <= requested * (1 + 1e-12))


@settings(max_examples=10, **KERNEL_DAYS)
@given(_fleets(), st.sampled_from(ENVELOPES), st.sampled_from([SWEEP_POWER, SWEEP_EV_COUNT]))
def test_the_round_width_leaves_every_report_unchanged(study, doe, dimension):
    """Rounds only batch the candidates a search reads: at any
    ``ROUND_WIDTH`` ``reduce_searches`` gives the same reports."""
    feeder, profiles, fleet = study
    config = HcSearchConfig(
        power_grid_kw=(2.0, 4.0, 7.0, 11.0, 16.0, 22.0), doe=doe, sweep_dimension=dimension
    )
    searches = [(fleet, config, "passive"), (fleet, config, "network_aware")]
    reports = []
    for width in (1, 3, 4, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evhc.hc, "ROUND_WIDTH", width)
            reports.append(reduce_searches(feeder, profiles, searches))
    for other in reports[1:]:
        _assert_same(other, reports[0])


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

"""Trace bookkeeping: conservation, completeness, summaries, number format
and the result-table writer."""

import csv
import io

import numpy as np
import pytest

from evhc.doe import DoeParams, network_aware_horizon, passive_horizon
from evhc.ev import DEFAULT_SCENARIOS, generate_fleet
from evhc.trace import csv_table, fmt, summarize


@pytest.fixture(scope="module")
def run(feeder, profiles):
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=4)
    trajectories, trace = passive_horizon(feeder, profiles, fleet, 6.0)
    return fleet, trajectories, trace


def test_energy_conservation_exact(run):
    fleet, trajectories, trace = run
    for i, (session, traj) in enumerate(zip(fleet, trajectories)):
        total = 0.0
        for t in session.window_steps():
            total += trace.ev_power_kw[t, i] * trace.step_hours
        assert trace.delivered_kwh[i] == total
        assert traj.delivered_kwh == total


def test_trace_completeness(run):
    _, _, trace = run
    trace.validate()
    assert trace.ev_power_kw.shape == (96, 12)
    assert trace.step_count * trace.step_hours == 24.0


def test_granted_power_within_session_rating(run):
    fleet, _, trace = run
    for i, session in enumerate(fleet):
        assert trace.ev_power_kw[:, i].min() >= 0.0
        assert trace.ev_power_kw[:, i].max() <= session.rated_kw + 1e-12


def test_summary_extrema_match_raw_records(feeder, run):
    _, _, trace = run
    amp = np.array([b.ampacity_a for b in feeder.branches])
    summary = summarize(trace, amp)
    assert summary.min_voltage_pu == pytest.approx(trace.voltage_pu.min(axis=0))
    assert summary.max_branch_current_a == pytest.approx(trace.branch_current_a.max(axis=0))
    assert summary.overall_min_voltage_pu == trace.voltage_pu.min()
    flat = int(np.argmin(trace.voltage_pu))
    step, node = divmod(flat, len(trace.node_ids))
    assert summary.overall_min_voltage_step == step
    assert summary.overall_min_voltage_node == trace.node_ids[node]
    assert summary.all_converged


def test_no_load_summary_is_flat(strong_feeder, flat_profiles):
    from evhc.ev import EvSession

    sessions = [EvSession("h1", 40, 44, 1.0, 22.0)]
    fleet = sessions + [
        EvSession(h, 40, 44, 1.0, 22.0) for h in ("h2", "h3")
    ]
    _, trace = passive_horizon(strong_feeder, flat_profiles, fleet, 0.001)
    summary = summarize(trace)
    assert summary.min_voltage_pu.min() > 0.999


def test_network_aware_min_voltage_not_below_passive(feeder, profiles):
    fleet = generate_fleet(DEFAULT_SCENARIOS["low"], feeder.household_ids, seed=4)
    _, passive_trace = passive_horizon(feeder, profiles, fleet, 7.0)
    _, na_trace = network_aware_horizon(
        feeder, profiles, fleet, 7.0, DoeParams(delta_perm=0.05, factor=0.5)
    )
    assert na_trace.voltage_pu.min() >= passive_trace.voltage_pu.min() - 1e-9


def test_fmt_is_ten_significant_digits_and_blank_for_none():
    assert fmt(None) == ""
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(2.0)) == "2"
    assert fmt(1.0 / 3.0) == "0.3333333333"


@pytest.mark.parametrize(
    "cell", ["a\rb", "a\nb", "a\r\nb", "a,b", 'a"b', "\r", '\r\n,"'],
    ids=["cr", "lf", "crlf", "comma", "quote", "bare_cr", "all"],
)
def test_csv_table_quotes_cells_that_would_split_a_row(cell):
    """A cell holding a carriage return, a line feed, a comma or a double
    quote is quoted (its quotes doubled), every row ends in a line feed, and
    the table reads back through ``csv.reader`` cell for cell."""
    text = csv_table(("x", "y"), [(cell, 1.0), ("plain", None)])
    quoted = '"' + cell.replace('"', '""') + '"'
    assert text == f"x,y\n{quoted},1\nplain,\n"
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["x", "y"], [cell, "1"], ["plain", ""]
    ]

"""A tier-1 work ratchet: exact kernel, solver and fixed-point counts of four studies.

Each study runs the ``init-example`` file (the bundled feeder, profiles and
fleets) at the search dimension it names. The counts are deterministic, so,
unlike a timing, they can be gated exactly: a change that makes any of them
grow does more work for the same results and fails here. A change that lowers one should lower its pin.
"""

import pytest

import evhc.doe
import evhc.hc
from evhc.cli import main
from evhc.doe import LaneDay

# study: its verb, its search dimension, and the most (kernel calls, lanes,
# solve calls, solved rows, fixed-point fallback steps) it may take
PINNED = {
    "run": (("run",), "power", (1, 120, 500, 10_454, 241)),
    "ev_count_run": (("run",), "ev_count", (1, 132, 514, 13_425, 344)),
    "qos_threshold_sweep": (
        ("sweep", "--which", "qos-threshold"), "power", (1, 60, 471, 5_810, 62)
    ),
    "doe_sweep": (("sweep",), "power", (2, 588, 874, 44_686, 1_619)),
}


@pytest.mark.parametrize("study", list(PINNED))
def test_study_work_stays_within_its_pins(tmp_path, monkeypatch, study):
    """Kernel calls and lanes count ``_simulate_lanes`` as ``doe`` and ``hc``
    bind it, and fallback steps sum ``fallback_steps`` over the days it
    returns; solve calls and rows count ``_solve_lanes`` as ``doe`` binds
    it, every solve of the kernel and the day rebuild."""
    verb, dimension, pinned = PINNED[study]
    counts = [0, 0, 0, 0, 0]
    simulate, solve = evhc.doe._simulate_lanes, evhc.doe._solve_lanes

    def counted_simulate(*args, **kwargs):  # (feeder, profiles, lanes, ...)
        counts[0] += 1
        counts[1] += len(args[2])
        days = simulate(*args, **kwargs)
        counts[4] += sum(day.fallback_steps for day in days if isinstance(day, LaneDay))
        return days

    def counted_solve(*args, **kwargs):  # (feeder, p_kw, ...)
        counts[2] += 1
        counts[3] += len(args[1])
        return solve(*args, **kwargs)

    for module in (evhc.doe, evhc.hc):
        monkeypatch.setattr(module, "_simulate_lanes", counted_simulate)
    monkeypatch.setattr(evhc.doe, "_solve_lanes", counted_solve)
    example = tmp_path / "example.yaml"
    assert main(["init-example", "--output", str(example)]) == 0
    example.write_text(example.read_text().replace("dimension: power", f"dimension: {dimension}"))
    assert main([*verb, str(example), "--output-dir", str(tmp_path / "out")]) == 0
    names = ("kernel calls", "lanes", "solve calls", "solved rows", "fallback steps")
    over = {name: (got, pin) for name, got, pin in zip(names, counts, pinned) if got > pin}
    assert not over, f"{study} does more work than pinned (got, pin): {over}"

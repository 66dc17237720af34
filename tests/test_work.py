"""A tier-1 work ratchet: exact kernel and solver counts of three studies.

Each study runs the ``init-example`` file (the bundled feeder, profiles and
fleets). The counts are deterministic, so, unlike a timing, they can be
gated exactly: a change that makes any of them grow does more work for the
same results and fails here. A change that lowers one should lower its pin.
"""

import pytest

import evhc.cli
import evhc.doe
import evhc.hc
from evhc.cli import main

# study: its verb, and the most (kernel calls, lanes, solve calls, solved rows) it may take
PINNED = {
    "run": (("run",), (1, 120, 500, 10_454)),
    "qos_threshold_sweep": (("sweep", "--which", "qos-threshold"), (1, 60, 471, 5_810)),
    "doe_sweep": (("sweep",), (2, 588, 874, 44_686)),
}


@pytest.mark.parametrize("study", list(PINNED))
def test_study_work_stays_within_its_pins(tmp_path, monkeypatch, study):
    """Kernel calls and lanes count ``_simulate_lanes`` as ``doe``, ``hc``
    and ``cli`` bind it; solve calls and rows count ``_solve_lanes`` as
    ``doe`` binds it, every solve of the kernel and the day rebuild."""
    verb, pinned = PINNED[study]
    counts = [0, 0, 0, 0]
    simulate, solve = evhc.doe._simulate_lanes, evhc.doe._solve_lanes

    def counted_simulate(*args, **kwargs):  # (feeder, profiles, lanes, ...)
        counts[0] += 1
        counts[1] += len(args[2])
        return simulate(*args, **kwargs)

    def counted_solve(*args, **kwargs):  # (feeder, p_kw, ...)
        counts[2] += 1
        counts[3] += len(args[1])
        return solve(*args, **kwargs)

    for module in (evhc.doe, evhc.hc, evhc.cli):
        monkeypatch.setattr(module, "_simulate_lanes", counted_simulate)
    monkeypatch.setattr(evhc.doe, "_solve_lanes", counted_solve)
    example = tmp_path / "example.yaml"
    assert main(["init-example", "--output", str(example)]) == 0
    assert main([*verb, str(example), "--output-dir", str(tmp_path / "out")]) == 0
    names = ("kernel calls", "lanes", "solve calls", "solved rows")
    over = {name: (got, pin) for name, got, pin in zip(names, counts, pinned) if got > pin}
    assert not over, f"{study} does more work than pinned (got, pin): {over}"

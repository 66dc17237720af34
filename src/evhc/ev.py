"""EV charging sessions, synthetic fleet generation, baseline trajectories.

Fleets are stratified into three daily-energy groups (low, medium, high).
Each household gets exactly one session per day; arrival time and session
duration are drawn from truncated normals, daily energy uniformly from the
group's range. Real session sets can be imported from a CSV table instead.

Sessions that cross midnight are kept on the single 96-step day by index
wrapping: ``departure_step`` may exceed the horizon and the day is treated
as circular for session windows only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trace import STEP_HOURS, STEPS_PER_DAY, csv_table

DEFAULT_RATED_POWER_KW = 22.0
_MAX_DRAWS = 1000


class FleetGenerationError(RuntimeError):
    """Scenario cannot produce a feasible session within the resample bound."""


@dataclass(frozen=True)
class HourDistribution:
    """Truncated normal over clock hours (values may pass 24 = next day)."""

    mean_h: float
    sd_h: float
    lo_h: float
    hi_h: float

    def sample(self, rng: np.random.Generator) -> float:
        for _ in range(_MAX_DRAWS):
            x = rng.normal(self.mean_h, self.sd_h)
            if self.lo_h <= x <= self.hi_h:
                return x
        raise FleetGenerationError(
            f"truncated normal({self.mean_h}, {self.sd_h}) on "
            f"[{self.lo_h}, {self.hi_h}] rejected {_MAX_DRAWS} draws"
        )


@dataclass(frozen=True)
class EnergyScenario:
    """One daily-charging-energy group and its session-shape parameters."""

    label: str
    energy_min_kwh: float
    energy_max_kwh: float
    arrival: HourDistribution
    duration: HourDistribution

    def __post_init__(self) -> None:
        if not 0 < self.energy_min_kwh < self.energy_max_kwh:
            raise ValueError(f"scenario {self.label}: bad energy range")


# Short top-up sessions for small daily energies, long evening sessions for
# large ones; the duration spread keeps required charging rate (energy over
# window) in the few-kW band where envelope curtailment actually bites.
DEFAULT_SCENARIOS: dict[str, EnergyScenario] = {
    "low": EnergyScenario(
        label="low",
        energy_min_kwh=4.0,
        energy_max_kwh=8.0,
        arrival=HourDistribution(18.0, 0.6, 16.5, 19.5),
        duration=HourDistribution(0.7, 0.15, 0.5, 1.0),
    ),
    "medium": EnergyScenario(
        label="medium",
        energy_min_kwh=8.0,
        energy_max_kwh=16.0,
        arrival=HourDistribution(18.0, 1.0, 15.5, 20.5),
        duration=HourDistribution(1.1, 0.25, 0.75, 1.75),
    ),
    "high": EnergyScenario(
        label="high",
        energy_min_kwh=16.0,
        energy_max_kwh=30.0,
        arrival=HourDistribution(18.0, 1.5, 15.0, 21.0),
        duration=HourDistribution(3.5, 0.8, 2.0, 5.5),
    ),
}


def validate_scenario_set(scenarios: dict[str, EnergyScenario]) -> None:
    """Energy ranges of low/medium/high must be disjoint and ordered."""
    ordered = [scenarios[k] for k in ("low", "medium", "high") if k in scenarios]
    for a, b in zip(ordered, ordered[1:]):
        if a.energy_max_kwh > b.energy_min_kwh:
            raise ValueError(
                f"energy ranges overlap: {a.label} up to {a.energy_max_kwh} vs "
                f"{b.label} from {b.energy_min_kwh}"
            )


validate_scenario_set(DEFAULT_SCENARIOS)


@dataclass(frozen=True)
class EvSession:
    """One charging session: the unit of QoS accounting.

    ``departure_step`` is kept unwrapped (it may exceed the horizon when the
    session crosses midnight); step indices wrap modulo the horizon.
    """

    household: str
    arrival_step: int
    departure_step: int
    requested_kwh: float
    rated_kw: float

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_step < STEPS_PER_DAY:
            raise ValueError(f"{self.household}: arrival_step out of horizon")
        if not self.arrival_step < self.departure_step <= self.arrival_step + STEPS_PER_DAY:
            raise ValueError(f"{self.household}: departure must follow arrival within one day")
        for name in ("requested_kwh", "rated_kw"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{self.household}: {name} must be finite and > 0, got {getattr(self, name)}"
                )
        window_h = self.duration_steps * STEP_HOURS
        if self.requested_kwh > self.rated_kw * window_h * (1 + 1e-9):
            raise ValueError(
                f"{self.household}: {self.requested_kwh} kWh does not fit the "
                f"{window_h} h window at {self.rated_kw} kW"
            )

    @property
    def duration_steps(self) -> int:
        return self.departure_step - self.arrival_step

    def is_connected(self, step: int) -> bool:
        return (step - self.arrival_step) % STEPS_PER_DAY < self.duration_steps

    def window_steps(self) -> list[int]:
        """Absolute step indices of the session, in chronological order."""
        return [(self.arrival_step + k) % STEPS_PER_DAY for k in range(self.duration_steps)]


@dataclass
class ChargingTrajectory:
    """Realized charging of one session over the day.

    ``power_kw[t]`` is zero outside the session window; ``delivered_kwh`` is
    its energy summed in session order, arrival first.
    """

    session: EvSession
    power_kw: np.ndarray
    delivered_kwh: float


def baseline_trajectory(session: EvSession, hc_power: float) -> ChargingTrajectory:
    """Uncontrolled charging: full allowed power from arrival until the
    requested energy is delivered (the energy left held at 0) or the EV departs."""
    if not 0 < hc_power < math.inf:
        raise ValueError(f"hc_power must be finite and > 0, got {hc_power}")
    cap = min(hc_power, session.rated_kw)
    power = np.zeros(STEPS_PER_DAY)
    delivered = 0.0
    for t in session.window_steps():
        p = min(cap, max(session.requested_kwh - delivered, 0.0) / STEP_HOURS)
        power[t] = p
        delivered += p * STEP_HOURS
    return ChargingTrajectory(session=session, power_kw=power, delivered_kwh=delivered)


def generate_fleet(
    scenario: EnergyScenario,
    households: tuple[str, ...] | list[str],
    seed: int | list[int],
    rated_power_kw: float = DEFAULT_RATED_POWER_KW,
) -> list[EvSession]:
    """One session per household, deterministic for a fixed seed."""
    if not households:
        raise ValueError("households must be non-empty")
    rng = np.random.default_rng(seed)
    sessions = []
    for household in households:
        sessions.append(_draw_session(scenario, household, rng, rated_power_kw))
    return sessions


def _draw_session(
    scenario: EnergyScenario,
    household: str,
    rng: np.random.Generator,
    rated_kw: float,
) -> EvSession:
    for _ in range(_MAX_DRAWS):
        energy = float(rng.uniform(scenario.energy_min_kwh, scenario.energy_max_kwh))
        arrival_h = scenario.arrival.sample(rng)
        duration_h = scenario.duration.sample(rng)
        arrival = int(round(arrival_h / STEP_HOURS)) % STEPS_PER_DAY
        steps = max(1, int(round(duration_h / STEP_HOURS)))
        if steps > STEPS_PER_DAY:
            continue
        if energy > rated_kw * steps * STEP_HOURS:
            continue
        return EvSession(
            household=household,
            arrival_step=arrival,
            departure_step=arrival + steps,
            requested_kwh=energy,
            rated_kw=rated_kw,
        )
    raise FleetGenerationError(
        f"scenario {scenario.label}: no feasible session for {household} "
        f"after {_MAX_DRAWS} draws"
    )


def quiet_step(sessions: list[EvSession]) -> int:
    """First step of the day with no session connected.

    The simulators iterate the circular day starting here so that every
    session is visited arrival-first even when it wraps midnight.
    """
    for t in range(STEPS_PER_DAY):
        if not any(s.is_connected(t) for s in sessions):
            return t
    raise ValueError(
        "no session-free step in the day; the circular-day simulation needs "
        "at least one idle step"
    )


def serialize_fleet(sessions: list[EvSession]) -> str:
    # repr, not fmt: an exported fleet reloads to the same floats
    return csv_table(
        ("household", "arrival_step", "departure_step", "requested_kwh", "rated_kw"),
        ((s.household, s.arrival_step, s.departure_step, repr(s.requested_kwh), repr(s.rated_kw))
         for s in sessions),
    )


def load_fleet(path: str | Path) -> list[EvSession]:
    """Read an externally supplied session table (same columns as export)."""
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8-sig"))))
    header = ["household", "arrival_step", "departure_step", "requested_kwh", "rated_kw"]
    if not rows or rows[0] != header:
        raise ValueError(f"fleet file must start with header {','.join(header)}")
    sessions = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            cells = [row[0]]
            for name, kind, cell in zip(header[1:], (int, int, float, float), row[1:]):
                try:
                    cells.append(kind(cell))
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from exc
            sessions.append(EvSession(*cells))
        except ValueError as exc:
            raise ValueError(f"fleet file line {line}: {exc}") from exc
    if not sessions:
        raise ValueError("fleet file has no sessions")
    return sessions

"""EV hosting-capacity toolkit for radial LV feeders.

Simulates a day of EV charging on a radial low-voltage feeder in two
regimes — uncontrolled, and curtailed by voltage-derived dynamic operating
envelopes — then searches for the hosting capacity of each regime and the
quality-of-service cost of the control.
"""

import os

# Set before numpy loads: threaded matvecs on 64+ node feeders double CPU for little gain.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .doe import DoeParams, EnvelopeBound, envelope_bound
from .ev import (
    DEFAULT_SCENARIOS,
    ChargingTrajectory,
    EnergyScenario,
    EvSession,
    baseline_trajectory,
    generate_fleet,
)
from .feeder import (
    BaselineLoadProfile,
    Branch,
    FeederError,
    FeederModel,
    Household,
    Node,
    bundled_baseline_profiles,
    bundled_feeder,
    load_baseline_profiles,
    load_feeder,
    path_to_slack,
)
from .hc import (
    HcReport,
    HcSearchConfig,
    network_aware_hc,
    passive_hc,
    sensitivity_sweep,
    threshold_sweep,
)
from .incidents import Incident, IncidentLimits, detect
from .powerflow import InjectionSet, PowerFlowSolution, solve
from .qos import QosReport, qos_aggregated, qos_individual
from .trace import SimulationTrace

__all__ = [
    "__version__",
    "BaselineLoadProfile",
    "Branch",
    "ChargingTrajectory",
    "DEFAULT_SCENARIOS",
    "DoeParams",
    "EnergyScenario",
    "EnvelopeBound",
    "EvSession",
    "FeederError",
    "FeederModel",
    "HcReport",
    "HcSearchConfig",
    "Household",
    "Incident",
    "IncidentLimits",
    "InjectionSet",
    "Node",
    "PowerFlowSolution",
    "QosReport",
    "SimulationTrace",
    "baseline_trajectory",
    "bundled_baseline_profiles",
    "bundled_feeder",
    "detect",
    "envelope_bound",
    "generate_fleet",
    "load_baseline_profiles",
    "load_feeder",
    "network_aware_hc",
    "passive_hc",
    "path_to_slack",
    "qos_aggregated",
    "qos_individual",
    "sensitivity_sweep",
    "solve",
    "threshold_sweep",
]

"""The public API: ``evhc.__all__`` is pinned here, so adding or removing a
public name is a reviewed edit of this list."""

import evhc

PUBLIC = [
    "BaselineLoadProfile", "Branch", "ChargingTrajectory", "DEFAULT_SCENARIOS", "DoeParams",
    "EnergyScenario", "EnvelopeBound", "EvSession", "FeederError", "FeederModel", "HcReport",
    "HcSearchConfig", "Household", "Incident", "IncidentLimits", "InjectionSet", "Node",
    "PowerFlowSolution", "QosReport", "SimulationTrace", "__version__", "baseline_trajectory",
    "bundled_baseline_profiles", "bundled_feeder", "detect", "envelope_bound", "generate_fleet",
    "load_baseline_profiles", "load_feeder", "network_aware_hc", "passive_hc", "path_to_slack",
    "qos_aggregated", "qos_individual", "sensitivity_sweep", "solve", "threshold_sweep",
]


def test_the_public_api_is_pinned():
    assert sorted(evhc.__all__) == PUBLIC
    assert len(PUBLIC) == 37
    for name in evhc.__all__:
        getattr(evhc, name)  # each name resolves

"""The package namespace: each submodule's ``__all__`` is its one list of public names."""

import importlib

import wastefigure

PUBLIC = {
    "ApproximationRegimeWarning", "Cascade", "ContributionReport", "EnergyContext",
    "FeasibilityRegion", "FwaScenario", "FwaVerdict", "GridSpec", "LinkTerminals",
    "PathLossChannel", "RelayScenario", "RelayVerdict", "SnrSpec", "Stage", "StageTerm",
    "cascade_waste", "channel_gain", "channel_waste", "compose_subsystems",
    "consumption_factor", "contribution_report", "db_to_linear", "decision_rule_holds",
    "direct_energy", "ellipse_axes", "energy_per_bit_link", "energy_per_bit_min",
    "fwa_direct_energy", "fwa_ratio", "fwa_relayed_energy", "fwa_verdict", "linear_to_db", "link_waste", "link_waste_approx",
    "max_efficient_distance", "min_consumed_power", "region_json_doc", "region_subset",
    "relay_ratio", "relay_verdict", "relayed_energy", "rle_decode", "rule_coefficients",
    "snr_min", "stage_waste_two", "sweep_fwa", "sweep_relay", "wideband_rate_limit",
    "write_region_csv", "write_region_json", "__version__",
}
MODULES = ("cascade", "channel", "energy", "fwa", "region", "relay", "units")


def test_all_lists_each_public_name_once():
    assert len(wastefigure.__all__) == len(set(wastefigure.__all__)) == 51
    assert set(wastefigure.__all__) == PUBLIC


def test_each_name_is_the_object_of_its_defining_module():
    owners = {}
    for short in MODULES:
        module = importlib.import_module(f"wastefigure.{short}")
        for name in module.__all__:
            assert name not in owners, f"{name} is listed by {owners[name]} and {short}"
            owners[name] = short
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__
            assert getattr(wastefigure, name) is obj
    assert set(owners) | {"__version__"} == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from wastefigure import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(wastefigure.__all__)
    assert all(namespace[name] is getattr(wastefigure, name) for name in namespace)

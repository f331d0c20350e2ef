"""Parameter dependency networks of web-service collections.

Build directed networks whose nodes are parameter archetypes (equivalence
classes of operation inputs/outputs under a matching function) and whose
links record input-to-output dependencies, then measure their topology:
distances, transitivity, degree correlation, Erdos-Renyi baselines,
power-law degree fits, and random-walk communities.

The names below resolve on first use (PEP 562), so `import wsdepnet` loads
no submodule, and loading a network does not pay for numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_SOURCES = {
    name: module
    for module, names in {
        "errors": "CollectionError DegenerateAnalysisError DuplicateIdError SchemaError UnsupportedConstructError",
        "matching": "Archetype MatcherKind build_archetypes instance_key",
        "model": (
            "Operation ParameterInstance Role Service ServiceCollection collection_from_dict collection_stats "
            "load_canonical new_collection write_canonical"
        ),
        "network": (
            "DependencyNetwork build_network export load_network network_from_edges network_summary save_network"
        ),
        "community": "CommunityPartition WalktrapResult walktrap",
        "powerlaw": "fit_power_law select_xmin",
        "report": "AnalysisConfig ComparisonReport MetricsReport PowerLawFit compare report_from_json report_to_json",
        "analysis": "analyze",
        "sawsdl": "load_sawsdl",
        "topology": (
            "DegreeStats DistanceStats ERBaseline components degree_correlation degree_stats distances "
            "er_baseline giant_subnetwork transitivity"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""The package's exports, which resolve on first use."""

import ast
import sys
from pathlib import Path

import pytest

import wsdepnet
from helpers import fresh_interpreter

EXPORTS = """
AnalysisConfig Archetype CollectionError CommunityPartition ComparisonReport DegenerateAnalysisError DegreeStats
DependencyNetwork DistanceStats DuplicateIdError ERBaseline MatcherKind MetricsReport Operation
ParameterInstance PowerLawFit Role SchemaError Service ServiceCollection UnsupportedConstructError WalktrapResult
analyze build_archetypes build_network collection_from_dict collection_stats compare components
degree_correlation degree_stats distances er_baseline export fit_power_law giant_subnetwork instance_key
load_canonical load_network load_sawsdl network_from_edges network_summary new_collection
report_from_json report_to_json save_network select_xmin transitivity walktrap write_canonical
""".split()

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_the_same_50_names():
    assert len(EXPORTS) == 50
    assert wsdepnet.__all__ == EXPORTS


def test_every_export_has_a_caller_outside_tests():
    # a name is used where the package, its scripts or its benchmark read it:
    # as a name, an attribute or an imported alias; __init__.py only lists it
    sources = [p for p in sorted((ROOT / "src" / "wsdepnet").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert [name for name in wsdepnet.__all__ if name not in read] == []


def test_each_name_is_its_defining_modules_object():
    for name in EXPORTS:
        value = getattr(wsdepnet, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("wsdepnet."), name
        assert getattr(module, name) is value, name


def test_fresh_import_loads_no_submodule_and_dir_lists_every_name():
    probe = (
        "import json, sys, wsdepnet; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('wsdepnet.')), dir(wsdepnet)]))"
    )
    submodules, names = fresh_interpreter(probe)
    assert submodules == []
    assert set(EXPORTS) <= set(names)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wsdepnet import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == {name: getattr(wsdepnet, name) for name in EXPORTS}


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_export"):
        wsdepnet.no_such_export

import gc
import json

import pytest
from hypothesis import given, strategies as st

from helpers import collection_doc, op, param
from wsdepnet.errors import CollectionError, DuplicateIdError, SchemaError
from wsdepnet.model import (
    Operation,
    ParameterInstance,
    Role,
    Service,
    collection_from_dict,
    collection_stats,
    collection_to_dict,
    load_canonical,
    new_collection,
    nogc,
    write_canonical,
)


def test_collection_from_dict_counts(k2_collection):
    assert len(k2_collection.services) == 1
    assert k2_collection.instance_count == 9


def test_canonical_instance_order(k2_collection):
    names = [inst.name for inst in k2_collection.iter_instances()]
    assert names == ["a", "b", "c", "d", "e", "c", "d", "e", "f"]
    roles = [inst.role for inst in k2_collection.iter_instances()]
    assert roles[:2] == [Role.INPUT, Role.INPUT]
    assert roles[2:5] == [Role.OUTPUT] * 3


def test_operation_ids_are_dense(k2_collection):
    ids = [o.id for o in k2_collection.iter_operations()]
    assert ids == ["svc0.op0", "svc0.op1"]
    for o in k2_collection.iter_operations():
        for inst in o.iter_instances():
            assert inst.operation_id == o.id


def test_round_trip_through_file(tmp_path, k2_doc, k2_collection):
    path = tmp_path / "out.json"
    write_canonical(k2_collection, path)
    again = load_canonical(path)
    assert collection_to_dict(again) == collection_to_dict(k2_collection)
    # rewriting is byte-identical
    path2 = tmp_path / "out2.json"
    write_canonical(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"services": [', encoding="utf-8")
    with pytest.raises(CollectionError, match=r"line \d+, column \d+"):
        load_canonical(path)


def test_schema_error_in_a_file_names_the_file(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text('{"servics": []}', encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_canonical(path)
    assert str(info.value) == f"{path}: top level: expected object with a 'services' list"


def test_missing_file_is_collection_error(tmp_path):
    with pytest.raises(CollectionError, match="cannot read"):
        load_canonical(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({}, "services"),
        ({"services": {}}, "expected list"),
        ({"services": [{"operations": []}]}, "missing name"),
        ({"services": [{"name": "s", "extra": 1, "operations": []}]}, "unknown key"),
        (collection_doc(op("o", [param("p"), {"name": "q", "typo": 1}], [])), "typo"),
        (collection_doc(op("o", [{"name": ""}], [])), "empty name"),
        (collection_doc(op("o", [{"name": "  "}], [])), "empty name"),
        (collection_doc(op("o", [{"name": 3}], [])), "expected string"),
        (collection_doc(op("o", [param("p", concept=" ")], [])), "empty"),
        (collection_doc({"name": "o", "inputs": [], "outputs": [], "faults": []}), "unknown key"),
        ({"services": [{"name": "s", "operations": 5}]}, r"services\[0\].operations: expected list"),
        ({"services": [{"name": "s", "operations": None}]}, r"services\[0\].operations: expected list"),
        (collection_doc({"name": "o", "inputs": 7}), r"operations\[0\].inputs: expected list"),
        (collection_doc({"name": "o", "outputs": {}}), r"operations\[0\].outputs: expected list"),
        (collection_doc(op("o", [param("a\x01b")], [])), r"'a\\x01b' holds U\+0001, which XML 1.0 cannot carry"),
        (collection_doc(op("o", [], [param("a\ud800")])), r"'a\\ud800' holds U\+D800, which XML 1.0 cannot carry"),
        (collection_doc(op("o", [param("\uffff")], [])), r"holds U\+FFFF"),
    ],
)
def test_schema_violations(doc, fragment):
    with pytest.raises(SchemaError, match=fragment):
        collection_from_dict(doc)


def test_names_with_the_control_characters_xml_allows_are_valid():
    names = ["a\tb", "a\nb", "a\rb", "\ud7ff\ue000\ufffd"]
    c = collection_from_dict(collection_doc(op("o", [param(name) for name in names], [])))
    assert [inst.name for inst in c.iter_instances()] == names


def test_schema_error_names_json_path():
    doc = collection_doc(op("o", [param("p")], [{"name": "q", "bogus": True}]))
    with pytest.raises(SchemaError, match=r"services\[0\].operations\[0\].outputs\[0\]"):
        collection_from_dict(doc)


def test_duplicate_service_id_rejected():
    svc = Service(id="s0", name="a")
    with pytest.raises(DuplicateIdError):
        new_collection([svc, Service(id="s0", name="b")])


def test_duplicate_operation_id_rejected():
    o1 = Operation(id="x", name="o1")
    o2 = Operation(id="x", name="o2")
    with pytest.raises(DuplicateIdError):
        new_collection([Service(id="s0", name="a", operations=[o1, o2])])


def test_wrong_backreference_rejected():
    inst = ParameterInstance(name="p", role=Role.INPUT, operation_id="other")
    o = Operation(id="s0.op0", name="o", inputs=[inst])
    with pytest.raises(SchemaError, match="back-references"):
        new_collection([Service(id="s0", name="a", operations=[o])])


def test_wrong_role_rejected():
    inst = ParameterInstance(name="p", role=Role.OUTPUT, operation_id="s0.op0")
    o = Operation(id="s0.op0", name="o", inputs=[inst])
    with pytest.raises(SchemaError, match="wrong role"):
        new_collection([Service(id="s0", name="a", operations=[o])])


def test_normalized_name_trims_and_casefolds():
    inst = ParameterInstance(name="  GetPrice ", role=Role.INPUT, operation_id="x")
    assert inst.normalized_name() == "GetPrice"
    assert inst.normalized_name(casefold=True) == "getprice"


def test_normalized_concept_trims():
    inst = ParameterInstance(
        name="p", role=Role.INPUT, operation_id="x", concept=" http://onto#Price "
    )
    assert inst.normalized_concept() == "http://onto#Price"
    assert ParameterInstance(name="p", role=Role.INPUT, operation_id="x").normalized_concept() is None


def test_collection_stats(k2_collection):
    stats = collection_stats(k2_collection)
    assert stats.services == 1
    assert stats.operations == 2
    assert stats.instance_count == 9
    assert stats.distinct_names == 6
    assert stats.distinct_concepts == 0


def test_collection_stats_casefold():
    doc = collection_doc(op("o", [param("Price"), param("price")], []))
    c = collection_from_dict(doc)
    assert collection_stats(c).distinct_names == 2
    assert collection_stats(c, casefold=True).distinct_names == 1


_name = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1,
    max_size=12,
)


@given(
    names=st.lists(_name, min_size=1, max_size=6),
    concepts=st.lists(st.none() | _name, min_size=1, max_size=6),
)
def test_round_trip_preserves_every_field(names, concepts):
    inputs = [param(n) for n in names]
    outputs = [param(n, concept=c) for n, c in zip(names, concepts)]
    doc = collection_doc(op("o", inputs, outputs), domain="d")
    c = collection_from_dict(doc)
    assert collection_to_dict(c) == doc
    assert c.instance_count == len(inputs) + len(outputs)


def test_empty_collection_is_valid():
    c = collection_from_dict({"services": []})
    assert c.instance_count == 0
    assert list(c.iter_instances()) == []


def test_nogc_pauses_and_restores_the_collector():
    seen = []

    @nogc
    def work(fail=False):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("boom")
        return 7

    was_enabled = gc.isenabled()
    gc.enable()
    try:
        assert work() == 7
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            work(fail=True)
        assert gc.isenabled()
        gc.disable()
        assert work() == 7
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            work(fail=True)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    assert seen == [False, False, False, False]
    assert work.__name__ == "work"

import itertools
import re

import pytest

from helpers import sawsdl_concept_reference
from wsdepnet.errors import CollectionError, UnsupportedConstructError
from wsdepnet.model import Role
from wsdepnet.sawsdl import load_sawsdl

WSDL_TEMPLATE = """<?xml version="1.0"?>
<wsdl:definitions name="BookPrice"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:sawsdl="http://www.w3.org/ns/sawsdl"
    xmlns:tns="http://example.org/bp">
  <wsdl:types>
    <xsd:schema targetNamespace="http://example.org/bp">
      <xsd:element name="BookElem" type="tns:BookType"
          sawsdl:modelReference="http://onto.example.org#Book"/>
      <xsd:complexType name="BookType"
          sawsdl:modelReference="http://onto.example.org#Publication"/>
      <xsd:simpleType name="PriceType"
          sawsdl:modelReference="http://onto.example.org#Price"/>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="GetPriceRequest">
    <wsdl:part name="book" element="tns:BookElem"/>
    <wsdl:part name="currency" type="xsd:string"
        sawsdl:modelReference="http://onto.example.org#Currency"/>
  </wsdl:message>
  <wsdl:message name="GetPriceResponse">
    <wsdl:part name="price" type="tns:PriceType"/>
    <wsdl:part name="note" type="xsd:string"/>
  </wsdl:message>
  <wsdl:portType name="BookPricePort">
    <wsdl:operation name="getPrice">
      <wsdl:input message="tns:GetPriceRequest"/>
      <wsdl:output message="tns:GetPriceResponse"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="BookPriceBinding" type="tns:BookPricePort"/>
  <wsdl:service name="BookPriceService">
    <wsdl:port name="p" binding="tns:BookPriceBinding"/>
  </wsdl:service>
</wsdl:definitions>
"""


@pytest.fixture
def wsdl_dir(tmp_path):
    (tmp_path / "economy").mkdir()
    (tmp_path / "economy" / "bookprice.wsdl").write_text(WSDL_TEMPLATE, encoding="utf-8")
    return tmp_path


def test_parses_operations_and_parts(wsdl_dir):
    c = load_sawsdl(wsdl_dir)
    assert len(c.services) == 1
    svc = c.services[0]
    assert svc.name == "BookPriceService"
    assert svc.domain_label == "economy"
    assert len(svc.operations) == 1
    op = svc.operations[0]
    assert op.name == "getPrice"
    assert [p.name for p in op.inputs] == ["book", "currency"]
    assert [p.name for p in op.outputs] == ["price", "note"]
    assert all(p.role is Role.INPUT for p in op.inputs)
    assert all(p.role is Role.OUTPUT for p in op.outputs)


def test_concept_resolution_order(wsdl_dir):
    svc = load_sawsdl(wsdl_dir).services[0]
    op = svc.operations[0]
    by_name = {p.name: p.concept for p in op.iter_instances()}
    # element annotation wins over the element's type annotation
    assert by_name["book"] == "http://onto.example.org#Book"
    # direct part annotation
    assert by_name["currency"] == "http://onto.example.org#Currency"
    # falls through to the named simple type
    assert by_name["price"] == "http://onto.example.org#Price"
    # nothing found: stays unannotated
    assert by_name["note"] is None


def test_element_type_annotation_used_when_element_unannotated(tmp_path):
    text = WSDL_TEMPLATE.replace(
        '          sawsdl:modelReference="http://onto.example.org#Book"', ""
    )
    path = tmp_path / "s.wsdl"
    path.write_text(text, encoding="utf-8")
    (svc,) = load_sawsdl(tmp_path).services
    by_name = {p.name: p.concept for p in svc.operations[0].iter_instances()}
    assert by_name["book"] == "http://onto.example.org#Publication"


def _declaration(tag: str, name: str, concept: str | None, type_name: str | None = None) -> str:
    typed = f' type="tns:{type_name}"' if type_name else ""
    annotated = f' sawsdl:modelReference="{concept}"' if concept else ""
    return f'      <xsd:{tag} name="{name}"{typed}{annotated}/>\n'


def test_concept_lookup_order_on_every_combination(tmp_path):
    # Each case is one part in its own message and operation, with its own
    # element E<i>, element type TE<i> and part type TP<i>. A type state is
    # undeclared (None), declared without annotation (False) or annotated.
    type_states = (None, False, True)
    element_states = (None, *itertools.product((False, True), (False, True)))  # (annotated, typed)
    cases = list(itertools.product(
        (False, True), ("neither", "element", "type", "both"), element_states, type_states, type_states
    ))
    decls, messages, operations, expected = [], [], [], []
    for i, (part_annotated, refs, element_state, part_type_state, element_type_state) in enumerate(cases):
        part = {"concept": f"urn:part{i}" if part_annotated else None}
        if refs in ("element", "both"):
            part["element"] = f"E{i}"
        if refs in ("type", "both"):
            part["type"] = f"TP{i}"
        elements, types = {}, {}
        if element_state is not None:
            annotated, typed = element_state
            element = {"concept": f"urn:element{i}" if annotated else None, "type": f"TE{i}" if typed else None}
            elements[f"E{i}"] = element
            decls.append(_declaration("element", f"E{i}", element["concept"], element["type"]))
        type_decls = ((f"TP{i}", part_type_state, "simpleType"), (f"TE{i}", element_type_state, "complexType"))
        for name, state, tag in type_decls:
            if state is not None:
                types[name] = {"concept": f"urn:{name}" if state else None}
                decls.append(_declaration(tag, name, types[name]["concept"]))
        attrs = "".join(f' {key}="tns:{part[key]}"' for key in ("element", "type") if key in part)
        if part["concept"]:
            attrs += f' sawsdl:modelReference="{part["concept"]}"'
        messages.append(f'  <wsdl:message name="M{i}"><wsdl:part name="p{i}"{attrs}/></wsdl:message>\n')
        operations.append(f'    <wsdl:operation name="op{i}"><wsdl:input message="tns:M{i}"/></wsdl:operation>\n')
        concept = sawsdl_concept_reference(part, elements, types)
        expected.append((f"p{i}", part.get("type") or part.get("element"), concept))
    text = (
        WSDL_TEMPLATE.split("  <wsdl:types>")[0]
        + '  <wsdl:types>\n    <xsd:schema targetNamespace="http://example.org/bp">\n'
        + "".join(decls)
        + "    </xsd:schema>\n  </wsdl:types>\n"
        + "".join(messages)
        + '  <wsdl:portType name="P">\n' + "".join(operations) + "  </wsdl:portType>\n</wsdl:definitions>\n"
    )
    path = tmp_path / "combinations.wsdl"
    path.write_text(text, encoding="utf-8")
    (service,) = load_sawsdl(tmp_path).services
    got = [(p.name, p.xsd_type, p.concept) for op in service.operations for p in op.iter_instances()]
    assert len(cases) == 360
    assert got == expected
    # every source of a concept is exercised
    assert {concept.split(":")[1].rstrip("0123456789") for _, _, concept in expected if concept} == {
        "part", "element", "TP", "TE"
    }


def test_sawsdl_suffix_and_recursion(tmp_path):
    nested = tmp_path / "travel" / "deep"
    nested.mkdir(parents=True)
    (nested / "one.sawsdl").write_text(WSDL_TEMPLATE, encoding="utf-8")
    c = load_sawsdl(tmp_path)
    assert len(c.services) == 1
    assert c.services[0].domain_label == "travel"


def test_a_directory_named_like_a_description_file_is_searched_not_read(tmp_path):
    legacy = tmp_path / "dom" / "legacy.wsdl"
    legacy.mkdir(parents=True)
    (legacy / "a.wsdl").write_text(WSDL_TEMPLATE, encoding="utf-8")
    (tmp_path / "dom" / "b.wsdl").write_text(WSDL_TEMPLATE, encoding="utf-8")
    (tmp_path / "dom" / "link.wsdl").symlink_to(legacy, target_is_directory=True)  # neither read nor followed
    c = load_sawsdl(tmp_path)
    assert [(s.id, s.domain_label) for s in c.services] == [("dom/b", "dom"), ("dom/legacy.wsdl/a", "dom")]


def test_file_order_is_deterministic(tmp_path):
    for name in ("b.wsdl", "a.wsdl", "c.wsdl"):
        (tmp_path / name).write_text(WSDL_TEMPLATE, encoding="utf-8")
    c = load_sawsdl(tmp_path)
    assert [s.id for s in c.services] == ["a", "b", "c"]
    assert all(s.domain_label is None for s in c.services)


def test_empty_directory_is_collection_error(tmp_path):
    (tmp_path / "notes.txt").write_text("not a description", encoding="utf-8")
    with pytest.raises(CollectionError, match=f"no service description files .* under {re.escape(str(tmp_path))}$"):
        load_sawsdl(tmp_path)


def test_not_a_directory(tmp_path):
    with pytest.raises(CollectionError, match="not a directory"):
        load_sawsdl(tmp_path / "missing")


def test_malformed_xml(tmp_path):
    declared = WSDL_TEMPLATE.replace('<?xml version="1.0"?>', '<?xml version="1.0" encoding="{}"?>')
    # unparsable, an unknown encoding, a multi-byte encoding expat refuses
    for name, text in [("broken", "<wsdl:definitions"), ("unknown", declared.format("x-nope")),
                       ("multi-byte", declared.format("euc-jp"))]:
        path = tmp_path / name / "broken.wsdl"
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CollectionError, match="malformed XML") as info:
            load_sawsdl(path.parent)
        assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", ["", 'name="" ', 'name=" " '])
def test_part_without_name_names_the_file(tmp_path, name):
    text = WSDL_TEMPLATE.replace('<wsdl:part name="book" ', f"<wsdl:part {name}", 1)
    path = tmp_path / "bad.wsdl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CollectionError) as info:
        load_sawsdl(tmp_path)
    assert str(info.value) == f"{path}: message 'GetPriceRequest' has a part without name"


def test_wsdl2_rejected(tmp_path):
    path = tmp_path / "v2.wsdl"
    path.write_text(
        '<description xmlns="http://www.w3.org/ns/wsdl"/>', encoding="utf-8"
    )
    with pytest.raises(UnsupportedConstructError, match="wsdl2:description"):
        load_sawsdl(tmp_path)


def test_policy_rejected(tmp_path):
    text = WSDL_TEMPLATE.replace(
        "<wsdl:types>",
        '<wsp:Policy xmlns:wsp="http://schemas.xmlsoap.org/ws/2004/09/policy"/><wsdl:types>',
    )
    path = tmp_path / "pol.wsdl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UnsupportedConstructError, match="policy"):
        load_sawsdl(tmp_path)


W3C_POLICY = "http://www.w3.org/ns/ws-policy"
POLICY_2004 = "http://schemas.xmlsoap.org/ws/2004/09/policy"


@pytest.mark.parametrize(
    "anchor, inserted, tag",
    [
        (  # nested inside wsdl:types/xsd:schema
            '<xsd:schema targetNamespace="http://example.org/bp">',
            f'<wsp:Policy xmlns:wsp="{POLICY_2004}"/>',
            f"{{{POLICY_2004}}}Policy",
        ),
        (  # top level, W3C namespace
            "</wsdl:types>",
            f'<wsp:Policy xmlns:wsp="{W3C_POLICY}"/>',
            f"{{{W3C_POLICY}}}Policy",
        ),
        (  # several policy tags: the first in document order is named
            "</wsdl:portType>",
            f'<wsp:All xmlns:wsp="{W3C_POLICY}"><wsp:Policy/></wsp:All>',
            f"{{{W3C_POLICY}}}All",
        ),
    ],
)
def test_nested_and_w3c_policy_rejected(tmp_path, anchor, inserted, tag):
    assert anchor in WSDL_TEMPLATE
    path = tmp_path / "pol.wsdl"
    path.write_text(WSDL_TEMPLATE.replace(anchor, anchor + inserted, 1), encoding="utf-8")
    with pytest.raises(UnsupportedConstructError) as info:
        load_sawsdl(tmp_path)
    assert info.value.construct == f"policy element {tag}"
    assert info.value.path == str(path)


def test_wsdl_import_rejected(tmp_path):
    text = WSDL_TEMPLATE.replace(
        "<wsdl:types>",
        '<wsdl:import namespace="http://x" location="other.wsdl"/><wsdl:types>',
    )
    path = tmp_path / "imp.wsdl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UnsupportedConstructError, match="wsdl:import"):
        load_sawsdl(tmp_path)


def test_unknown_message_reference(tmp_path):
    text = WSDL_TEMPLATE.replace('message="tns:GetPriceRequest"', 'message="tns:Nope"')
    path = tmp_path / "bad.wsdl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CollectionError, match="unknown message 'Nope'"):
        load_sawsdl(tmp_path)


def test_unsupported_construct_error_fields(tmp_path):
    path = tmp_path / "v2.wsdl"
    path.write_text('<description xmlns="http://www.w3.org/ns/wsdl"/>', encoding="utf-8")
    with pytest.raises(UnsupportedConstructError) as info:
        load_sawsdl(tmp_path)
    assert info.value.construct == "wsdl2:description"
    assert str(path) in str(info.value)


def test_bindings_and_service_sections_are_skipped(wsdl_dir):
    # the binding/service elements in the fixture carry no parameters and
    # must neither fail nor add instances
    c = load_sawsdl(wsdl_dir)
    assert c.instance_count == 4


def test_empty_model_reference_ignored(tmp_path):
    text = WSDL_TEMPLATE.replace(
        'sawsdl:modelReference="http://onto.example.org#Currency"',
        'sawsdl:modelReference="  "',
    )
    path = tmp_path / "blank.wsdl"
    path.write_text(text, encoding="utf-8")
    (svc,) = load_sawsdl(tmp_path).services
    by_name = {p.name: p.concept for p in svc.operations[0].iter_instances()}
    assert by_name["currency"] is None


def test_multi_uri_model_reference_kept_verbatim(tmp_path):
    text = WSDL_TEMPLATE.replace(
        'sawsdl:modelReference="http://onto.example.org#Currency"',
        'sawsdl:modelReference="http://a#X http://b#Y"',
    )
    path = tmp_path / "multi.wsdl"
    path.write_text(text, encoding="utf-8")
    (svc,) = load_sawsdl(tmp_path).services
    by_name = {p.name: p.concept for p in svc.operations[0].iter_instances()}
    assert by_name["currency"] == "http://a#X http://b#Y"

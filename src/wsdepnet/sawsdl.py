"""Reader for a constrained WSDL 1.1 + SAWSDL subset.

One service per file. Operations come from port types, parameters from
message parts. Each part is resolved once, as its message is read, into
its name, its XSD type (the part's type, else its element) and its
ontology concept: the model-reference annotation found first on the part
itself, then on the schema element it references, then on the schema type
of that element (or, when the part names no declared element, the part's
own type). An empty annotation counts as none. Binding and service
sections carry no parameter information and are skipped; WSDL 2.0
documents, policy elements and top-level WSDL imports are rejected by name.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from pathlib import Path

from .errors import CollectionError, UnsupportedConstructError
from .model import Operation, ParameterInstance, Role, Service, ServiceCollection, new_collection, nogc

WSDL11_NS = "http://schemas.xmlsoap.org/wsdl/"
WSDL20_NS = "http://www.w3.org/ns/wsdl"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
POLICY_NAMESPACES = (
    "http://schemas.xmlsoap.org/ws/2004/09/policy",
    "http://www.w3.org/ns/ws-policy",
)
_POLICY_PREFIXES = tuple(f"{{{ns}}}" for ns in POLICY_NAMESPACES)

MODEL_REFERENCE = f"{{{SAWSDL_NS}}}modelReference"

# the element tags read, built once: a file is walked with plain findall
_WSDL20 = f"{{{WSDL20_NS}}}"
_DEFINITIONS, _IMPORT, _TYPES, _MESSAGE, _PART, _SERVICE, _PORT_TYPE, _OPERATION, _INPUT, _OUTPUT = (
    f"{{{WSDL11_NS}}}{local}"
    for local in "definitions import types message part service portType operation input output".split()
)
_SCHEMA, _ELEMENT = f"{{{XSD_NS}}}schema", f"{{{XSD_NS}}}element"
_TYPE_TAGS = (f"{{{XSD_NS}}}complexType", f"{{{XSD_NS}}}simpleType")

SUFFIXES = {".wsdl", ".sawsdl"}


def _local(qname: str | None) -> str | None:
    """Local part of a prefixed QName attribute value."""
    if qname is None:
        return None
    return qname.split(":", 1)[-1]


def _annotation(elem: ET.Element) -> str | None:
    value = elem.get(MODEL_REFERENCE)
    if value is None or not value.strip():
        return None
    return value


@nogc
def load_sawsdl(directory: str | Path) -> ServiceCollection:
    """Load every description file under `directory`, recursively, into one
    collection; a directory holding none is a CollectionError naming it. Any
    entry named *.wsdl or *.sawsdl is a description file but a directory, or
    a symlink to one, which is not followed."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CollectionError(f"not a directory: {directory}")
    # os.walk tells directories apart from the listing; rglob and is_file would stat every file
    paths = (Path(top, name) for top, _, names in os.walk(directory) for name in names)
    files = sorted(
        ((p.relative_to(directory), p) for p in paths if p.suffix.lower() in SUFFIXES),
        key=lambda item: item[0].as_posix(),
    )
    if not files:
        raise CollectionError(f"no service description files (.wsdl, .sawsdl) under {directory}")
    services = []
    for rel, path in files:
        domain = rel.parts[0] if len(rel.parts) > 1 else None
        services.append(_parse_file(path, service_id=rel.with_suffix("").as_posix(), domain=domain))
    return new_collection(services)


def _parse_file(path: Path, service_id: str, domain: str | None) -> Service:
    # besides ParseError: LookupError for an unknown declared encoding, and
    # ValueError for a multi-byte one, which expat does not support
    try:
        tree = ET.parse(path)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise CollectionError(f"{path}: malformed XML: {exc}") from exc
    root = tree.getroot()
    if root.tag.startswith(_WSDL20):
        raise UnsupportedConstructError("wsdl2:description", str(path))
    if root.tag != _DEFINITIONS:
        raise UnsupportedConstructError(root.tag, str(path))

    # scan the distinct tags; only a rejected file pays for a second walk,
    # which names the first policy element in document order
    if any(tag.startswith(_POLICY_PREFIXES) for tag in {elem.tag for elem in root.iter()}):
        first = next(elem.tag for elem in root.iter() if elem.tag.startswith(_POLICY_PREFIXES))
        raise UnsupportedConstructError(f"policy element {first}", str(path))
    if root.find(_IMPORT) is not None:
        raise UnsupportedConstructError("wsdl:import", str(path))

    element_decls: dict[str, ET.Element] = {}
    type_decls: dict[str, ET.Element] = {}
    for types in root.findall(_TYPES):
        for schema in types.findall(_SCHEMA):
            for child in schema:
                name = child.get("name")
                if name is None:
                    continue
                if child.tag == _ELEMENT:
                    element_decls[name] = child
                elif child.tag in _TYPE_TAGS:
                    type_decls[name] = child

    # message name -> its parts as (name, xsd type, concept)
    messages: dict[str, list[tuple[str, str | None, str | None]]] = {}
    for message in root.findall(_MESSAGE):
        mname = message.get("name")
        if mname is None:
            raise CollectionError(f"{path}: message without name")
        messages[mname] = parts = []
        for part in message.findall(_PART):
            pname = part.get("name")
            if not pname or not pname.strip():
                raise CollectionError(f"{path}: message {mname!r} has a part without name")
            element, type_name = _local(part.get("element")), _local(part.get("type"))
            xsd_type = type_name or element
            concept = _annotation(part)
            if concept is None and element is not None and (decl := element_decls.get(element)) is not None:
                concept = _annotation(decl)
                type_name = _local(decl.get("type"))
            if concept is None and type_name is not None and (decl := type_decls.get(type_name)) is not None:
                concept = _annotation(decl)
            parts.append((pname, xsd_type, concept))

    service_elem = root.find(_SERVICE)
    service_name = service_elem is not None and service_elem.get("name")
    service_name = service_name or root.get("name") or service_id.rsplit("/", 1)[-1]

    operations: list[Operation] = []
    for port_type in root.findall(_PORT_TYPE):
        for op_elem in port_type.findall(_OPERATION):
            op_id = f"{service_id}#op{len(operations)}"
            op = Operation(id=op_id, name=op_elem.get("name") or f"op{len(operations)}")
            for side, role, target in ((_INPUT, Role.INPUT, op.inputs), (_OUTPUT, Role.OUTPUT, op.outputs)):
                ref = op_elem.find(side)
                if ref is None:
                    continue
                mname = _local(ref.get("message"))
                if mname is None:
                    raise CollectionError(f"{path}: operation {op.name!r} {role.value} lacks a message attribute")
                if mname not in messages:
                    raise CollectionError(f"{path}: operation {op.name!r} references unknown message {mname!r}")
                target.extend(ParameterInstance(name, role, op_id, xsd_type, concept)
                              for name, xsd_type, concept in messages[mname])
            operations.append(op)

    return Service(id=service_id, name=service_name, domain_label=domain, operations=operations)

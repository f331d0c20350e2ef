"""Reader for a constrained WSDL 1.1 + SAWSDL subset.

One service per file. Operations come from port types, parameters from
message parts. A part's ontology concept is the model-reference annotation
found first on the part itself, then on the schema element it references,
then on the (element's or part's) schema type. Binding and service sections
carry no parameter information and are skipped; WSDL 2.0 documents, policy
elements and top-level WSDL imports are rejected by name.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .errors import CollectionError, UnsupportedConstructError
from .model import Operation, ParameterInstance, Role, Service, ServiceCollection, SourceFormat, new_collection, nogc

log = logging.getLogger(__name__)

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


@dataclass
class _Part:
    name: str
    element: str | None
    type: str | None
    concept: str | None


@nogc
def load_sawsdl(directory: str | Path) -> ServiceCollection:
    """Load every description file under `directory` (recursively) into one collection."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CollectionError(f"not a directory: {directory}")
    files = sorted(
        ((p.relative_to(directory), p) for p in directory.rglob("*") if p.suffix.lower() in SUFFIXES),
        key=lambda item: item[0].as_posix(),
    )
    if not files:
        log.warning("no service description files found under %s", directory)
        return new_collection([], SourceFormat.SAWSDL)
    services = []
    for rel, path in files:
        domain = rel.parts[0] if len(rel.parts) > 1 else None
        services.append(_parse_file(path, service_id=rel.with_suffix("").as_posix(), domain=domain))
    return new_collection(services, SourceFormat.SAWSDL)


def load_sawsdl_file(path: str | Path) -> Service:
    """Parse a single description file into a Service (id = file stem)."""
    path = Path(path)
    return _parse_file(path, service_id=path.stem, domain=None)


def _parse_file(path: Path, service_id: str, domain: str | None) -> Service:
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise CollectionError(f"{path}: malformed XML: {exc}") from exc
    root = tree.getroot()
    if root.tag == f"{{{WSDL20_NS}}}description" or root.tag.startswith(f"{{{WSDL20_NS}}}"):
        raise UnsupportedConstructError("wsdl2:description", str(path))
    if root.tag != f"{{{WSDL11_NS}}}definitions":
        raise UnsupportedConstructError(root.tag, str(path))

    # scan the distinct tags; only a rejected file pays for a second walk,
    # which names the first policy element in document order
    if any(tag.startswith(_POLICY_PREFIXES) for tag in {elem.tag for elem in root.iter()}):
        first = next(elem.tag for elem in root.iter() if elem.tag.startswith(_POLICY_PREFIXES))
        raise UnsupportedConstructError(f"policy element {first}", str(path))
    if root.find(f"{{{WSDL11_NS}}}import") is not None:
        raise UnsupportedConstructError("wsdl:import", str(path))

    element_decls: dict[str, ET.Element] = {}
    type_decls: dict[str, ET.Element] = {}
    for types in root.findall(f"{{{WSDL11_NS}}}types"):
        for schema in types.findall(f"{{{XSD_NS}}}schema"):
            for child in schema:
                name = child.get("name")
                if name is None:
                    continue
                if child.tag == f"{{{XSD_NS}}}element":
                    element_decls[name] = child
                elif child.tag in (f"{{{XSD_NS}}}complexType", f"{{{XSD_NS}}}simpleType"):
                    type_decls[name] = child

    def concept_for(part: _Part) -> str | None:
        # search order: part, referenced element, then that element's (or the part's) type
        if part.concept is not None:
            return part.concept
        type_name = part.type
        if part.element is not None:
            decl = element_decls.get(part.element)
            if decl is not None:
                found = _annotation(decl)
                if found is not None:
                    return found
                type_name = _local(decl.get("type"))
        if type_name is not None:
            decl = type_decls.get(type_name)
            if decl is not None:
                return _annotation(decl)
        return None

    messages: dict[str, list[_Part]] = {}
    for message in root.findall(f"{{{WSDL11_NS}}}message"):
        mname = message.get("name")
        if mname is None:
            raise CollectionError(f"{path}: message without name")
        parts = []
        for part in message.findall(f"{{{WSDL11_NS}}}part"):
            pname = part.get("name")
            if pname is None:
                raise CollectionError(f"{path}: message {mname!r} has a part without name")
            parts.append(
                _Part(
                    name=pname,
                    element=_local(part.get("element")),
                    type=_local(part.get("type")),
                    concept=_annotation(part),
                )
            )
        messages[mname] = parts

    service_name = service_id.rsplit("/", 1)[-1]
    service_elem = root.find(f"{{{WSDL11_NS}}}service")
    if service_elem is not None and service_elem.get("name"):
        service_name = service_elem.get("name")
    elif root.get("name"):
        service_name = root.get("name")

    operations: list[Operation] = []
    for port_type in root.findall(f"{{{WSDL11_NS}}}portType"):
        for op_elem in port_type.findall(f"{{{WSDL11_NS}}}operation"):
            op_id = f"{service_id}#op{len(operations)}"
            op = Operation(
                id=op_id,
                service_id=service_id,
                name=op_elem.get("name") or f"op{len(operations)}",
            )
            for side, role in ((f"{{{WSDL11_NS}}}input", Role.INPUT), (f"{{{WSDL11_NS}}}output", Role.OUTPUT)):
                ref = op_elem.find(side)
                if ref is None:
                    continue
                mname = _local(ref.get("message"))
                if mname is None:
                    raise CollectionError(f"{path}: operation {op.name!r} {role.value} lacks a message attribute")
                if mname not in messages:
                    raise CollectionError(f"{path}: operation {op.name!r} references unknown message {mname!r}")
                target = op.inputs if role is Role.INPUT else op.outputs
                for part in messages[mname]:
                    target.append(
                        ParameterInstance(
                            name=part.name,
                            role=role,
                            operation_id=op_id,
                            xsd_type=part.type or part.element,
                            concept=concept_for(part),
                        )
                    )
            operations.append(op)

    return Service(id=service_id, name=service_name, domain_label=domain, operations=operations)

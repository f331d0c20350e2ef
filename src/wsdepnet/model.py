"""Domain model for web-service description collections.

A collection is a list of services, each exposing operations with typed
(and optionally concept-annotated) input and output parameters. Parameter
*instances* are single occurrences inside one operation; collapsing them
into archetypes is the matching module's job.
"""

from __future__ import annotations

import enum
import functools
import gc
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import DuplicateIdError, SchemaError, CollectionError


def nogc(func):
    """Run func with the cyclic garbage collector paused.

    The loaders and builders allocate large object graphs that outlive the
    call and hold no garbage cycles, so collections during the call only
    rescan survivors. The previous state is restored on return or raise; a
    collector that is already disabled stays disabled.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return wrapper


class Role(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(slots=True)
class ParameterInstance:
    """One occurrence of a named parameter in an operation's input or output list."""

    name: str
    role: Role
    operation_id: str
    xsd_type: str | None = None
    concept: str | None = None

    def normalized_name(self, casefold: bool = False) -> str:
        name = self.name.strip()
        return name.casefold() if casefold else name

    def normalized_concept(self) -> str | None:
        return self.concept.strip() if self.concept is not None else None


@dataclass(slots=True)
class Operation:
    """A service operation: inputs, outputs, and an id unique in the collection.

    Either side may be empty; such parameters become isolated nodes in the
    dependency network. Dependencies are derived at network-build time, never
    stored here.
    """

    id: str
    name: str
    inputs: list[ParameterInstance] = field(default_factory=list)
    outputs: list[ParameterInstance] = field(default_factory=list)

    def iter_instances(self) -> Iterator[ParameterInstance]:
        yield from self.inputs
        yield from self.outputs


@dataclass(slots=True)
class Service:
    id: str
    name: str
    domain_label: str | None = None
    operations: list[Operation] = field(default_factory=list)


@dataclass
class ServiceCollection:
    services: list[Service]
    instance_count: int

    def iter_instances(self) -> Iterator[ParameterInstance]:
        """Instances in canonical order: services, then operations, inputs before outputs."""
        for service in self.services:
            for op in service.operations:
                yield from op.iter_instances()

    def iter_operations(self) -> Iterator[Operation]:
        for service in self.services:
            yield from service.operations


@dataclass
class CollectionStats:
    services: int
    operations: int
    instance_count: int
    distinct_names: int
    distinct_concepts: int


def new_collection(services: list[Service]) -> ServiceCollection:
    """Assemble and validate a collection, computing its instance count."""
    count = sum(len(op.inputs) + len(op.outputs) for s in services for op in s.operations)
    collection = ServiceCollection(services=services, instance_count=count)
    validate_collection(collection)
    return collection


# code points outside XML 1.0's Char production; a name becomes a GraphML node label
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def validate_collection(c: ServiceCollection) -> None:
    """Check the structural invariants; raise CollectionError on violation."""
    seen_service_ids: set[str] = set()
    seen_operation_ids: set[str] = set()
    for service in c.services:
        if service.id in seen_service_ids:
            raise DuplicateIdError(f"duplicate service id {service.id!r}")
        seen_service_ids.add(service.id)
        if service.operations is None:
            raise SchemaError(f"service {service.id!r}: operations must not be null")
        for op in service.operations:
            if op.id in seen_operation_ids or op.id in seen_service_ids:
                raise DuplicateIdError(f"duplicate operation id {op.id!r}")
            seen_operation_ids.add(op.id)
            for role, instances in ((Role.INPUT, op.inputs), (Role.OUTPUT, op.outputs)):
                for inst in instances:
                    if not inst.name or not inst.name.strip():
                        raise SchemaError(f"operation {op.id!r}: parameter with empty name")
                    if bad := _NOT_XML_CHAR.search(inst.name):
                        raise SchemaError(f"operation {op.id!r}: parameter {inst.name!r} holds "
                                          f"U+{ord(bad.group()):04X}, which XML 1.0 cannot carry")
                    if inst.role is not role:
                        raise SchemaError(f"operation {op.id!r}: parameter {inst.name!r} has wrong role {inst.role!r}")
                    if inst.concept is not None and not inst.concept.strip():
                        raise SchemaError(f"operation {op.id!r}: parameter {inst.name!r} has empty concept")
                    if inst.operation_id != op.id:
                        raise SchemaError(
                            f"operation {op.id!r}: parameter {inst.name!r} back-references {inst.operation_id!r}"
                        )


_SERVICE_KEYS = {"name", "domain", "operations"}
_OPERATION_KEYS = {"name", "inputs", "outputs"}
_PARAMETER_KEYS = {"name", "type", "concept"}


def _require_str(value, where: str, allow_none: bool = False) -> str | None:
    if value is None and allow_none:
        return None
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected string, got {type(value).__name__}")
    return value


def _parse_parameter(obj, role: Role, op_id: str, where: str) -> ParameterInstance:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object")
    unknown = set(obj) - _PARAMETER_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")
    if "name" not in obj:
        raise SchemaError(f"{where}: missing name")
    name = _require_str(obj["name"], f"{where}.name")
    if not name.strip():
        raise SchemaError(f"{where}: empty name")
    return ParameterInstance(
        name=name,
        role=role,
        operation_id=op_id,
        xsd_type=_require_str(obj.get("type"), f"{where}.type", allow_none=True),
        concept=_require_str(obj.get("concept"), f"{where}.concept", allow_none=True),
    )


@nogc
def load_canonical(path: str | Path) -> ServiceCollection:
    """Load a collection from the canonical JSON format.

    Raises CollectionError with line/position on malformed JSON, and
    SchemaError or DuplicateIdError naming the file and the offending
    entry on schema violations.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CollectionError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CollectionError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return collection_from_dict(doc)
    except (SchemaError, DuplicateIdError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _list_at(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}: expected list")
    return value


def collection_from_dict(doc) -> ServiceCollection:
    if not isinstance(doc, dict) or "services" not in doc:
        raise SchemaError("top level: expected object with a 'services' list")
    if not isinstance(doc["services"], list):
        raise SchemaError("services: expected list")
    services: list[Service] = []
    for si, sobj in enumerate(doc["services"]):
        where = f"services[{si}]"
        if not isinstance(sobj, dict):
            raise SchemaError(f"{where}: expected object")
        unknown = set(sobj) - _SERVICE_KEYS
        if unknown:
            raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")
        if "name" not in sobj:
            raise SchemaError(f"{where}: missing name")
        service_id = f"svc{si}"
        operations: list[Operation] = []
        for oi, oobj in enumerate(_list_at(sobj, "operations", where)):
            owhere = f"{where}.operations[{oi}]"
            if not isinstance(oobj, dict):
                raise SchemaError(f"{owhere}: expected object")
            unknown = set(oobj) - _OPERATION_KEYS
            if unknown:
                raise SchemaError(f"{owhere}: unknown key(s) {sorted(unknown)}")
            if "name" not in oobj:
                raise SchemaError(f"{owhere}: missing name")
            op_id = f"{service_id}.op{oi}"
            inputs = [
                _parse_parameter(p, Role.INPUT, op_id, f"{owhere}.inputs[{pi}]")
                for pi, p in enumerate(_list_at(oobj, "inputs", owhere))
            ]
            outputs = [
                _parse_parameter(p, Role.OUTPUT, op_id, f"{owhere}.outputs[{pi}]")
                for pi, p in enumerate(_list_at(oobj, "outputs", owhere))
            ]
            operations.append(
                Operation(
                    id=op_id,
                    name=_require_str(oobj["name"], f"{owhere}.name"),
                    inputs=inputs,
                    outputs=outputs,
                )
            )
        services.append(
            Service(
                id=service_id,
                name=_require_str(sobj["name"], f"{where}.name"),
                domain_label=_require_str(sobj.get("domain"), f"{where}.domain", allow_none=True),
                operations=operations,
            )
        )
    return new_collection(services)


def collection_to_dict(c: ServiceCollection) -> dict:
    services = []
    for service in c.services:
        sobj: dict = {"name": service.name}
        if service.domain_label is not None:
            sobj["domain"] = service.domain_label
        sobj["operations"] = []
        for op in service.operations:
            oobj: dict = {"name": op.name, "inputs": [], "outputs": []}
            for side, instances in (("inputs", op.inputs), ("outputs", op.outputs)):
                for inst in instances:
                    pobj: dict = {"name": inst.name}
                    if inst.xsd_type is not None:
                        pobj["type"] = inst.xsd_type
                    if inst.concept is not None:
                        pobj["concept"] = inst.concept
                    oobj[side].append(pobj)
            sobj["operations"].append(oobj)
        services.append(sobj)
    return {"services": services}


def write_canonical(c: ServiceCollection, path: str | Path) -> None:
    Path(path).write_text(json.dumps(collection_to_dict(c), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def collection_stats(c: ServiceCollection, casefold: bool = False) -> CollectionStats:
    """Exact counts over the collection; names trimmed (optionally casefolded) first."""
    names: set[str] = set()
    concepts: set[str] = set()
    operations = 0
    for service in c.services:
        operations += len(service.operations)
    for inst in c.iter_instances():
        names.add(inst.normalized_name(casefold=casefold))
        concept = inst.normalized_concept()
        if concept is not None:
            concepts.add(concept)
    return CollectionStats(
        services=len(c.services),
        operations=operations,
        instance_count=c.instance_count,
        distinct_names=len(names),
        distinct_concepts=len(concepts),
    )

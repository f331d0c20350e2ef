"""Matching functions over parameter instances and archetype construction.

Two binary symmetric matchers ship: name equality on trimmed strings and
exact concept-URI equality. Both are equivalence relations, so archetypes
(the classes of the transitive closure of the match relation) reduce to
key hashing.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from .model import ParameterInstance, ServiceCollection


class MatcherKind(enum.Enum):
    SYNTACTIC_EQUAL = "syntactic-equal"
    SEMANTIC_EXACT = "semantic-exact"


@dataclass(slots=True)
class Archetype:
    """An equivalence class of parameter instances; one node of the network,
    whose id is its index in the network's `nodes`."""

    label: str
    key: str
    members: list[ParameterInstance] = field(default_factory=list)

    @property
    def instance_count(self) -> int:
        return len(self.members)


def instance_key(kind: MatcherKind, inst: ParameterInstance, casefold: bool = False) -> str | None:
    """Equivalence key of an instance, or None when the matcher's field is absent."""
    if kind is MatcherKind.SYNTACTIC_EQUAL:
        return inst.normalized_name(casefold=casefold)
    return inst.normalized_concept()


def _label_for(members: list[ParameterInstance]) -> str:
    """Most frequent member name, ties broken lexicographically."""
    counts = Counter(inst.name.strip() for inst in members)
    return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]


def build_archetypes(
    c: ServiceCollection,
    kind: MatcherKind,
    casefold: bool = False,
) -> tuple[list[Archetype], dict[int, int]]:
    """Collapse all instances of a collection into archetypes.

    Returns the archetype list, in order of first appearance in the
    canonical traversal, and a map from instance identity (builtin id) to
    archetype id, its index in that list. Instances whose key is absent fall
    back to singleton archetypes keyed by a unique sentinel.
    """
    archetypes: list[Archetype] = []
    by_key: dict[str, int] = {}
    instance_map: dict[int, int] = {}
    for index, inst in enumerate(c.iter_instances()):
        key = instance_key(kind, inst, casefold=casefold)
        if key is None:
            key = f"<unannotated:{index}>"
        arch_id = by_key.get(key)
        if arch_id is None:
            arch_id = by_key[key] = len(archetypes)
            archetypes.append(Archetype(label="", key=key))
        archetypes[arch_id].members.append(inst)
        instance_map[id(inst)] = arch_id
    for arch in archetypes:
        arch.label = _label_for(arch.members)
    return archetypes, instance_map


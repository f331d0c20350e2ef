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


@dataclass
class Archetype:
    """An equivalence class of parameter instances; one node of the network."""

    id: int
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


def matches(
    kind: MatcherKind,
    p1: ParameterInstance,
    p2: ParameterInstance,
    casefold: bool = False,
) -> bool:
    """Binary symmetric match. An instance missing the compared field matches only itself."""
    k1 = instance_key(kind, p1, casefold=casefold)
    k2 = instance_key(kind, p2, casefold=casefold)
    if k1 is None or k2 is None:
        return p1 is p2
    return k1 == k2


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

    Returns the archetype list (ids dense, in order of first appearance in
    the canonical traversal) and a map from instance identity (builtin id)
    to archetype id. Instances whose key is absent fall back to singleton
    archetypes keyed by a unique sentinel.
    """
    archetypes: list[Archetype] = []
    by_key: dict[str, Archetype] = {}
    instance_map: dict[int, int] = {}
    for index, inst in enumerate(c.iter_instances()):
        key = instance_key(kind, inst, casefold=casefold)
        if key is None:
            key = f"<unannotated:{index}>"
        arch = by_key.get(key)
        if arch is None:
            arch = Archetype(id=len(archetypes), label="", key=key)
            by_key[key] = arch
            archetypes.append(arch)
        arch.members.append(inst)
        instance_map[id(inst)] = arch.id
    for arch in archetypes:
        arch.label = _label_for(arch.members)
    return archetypes, instance_map


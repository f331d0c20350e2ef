import pytest
from hypothesis import given, strategies as st

from helpers import build_archetypes_pairwise, collection_doc, matches, op, param
from wsdepnet.matching import MatcherKind, build_archetypes, instance_key
from wsdepnet.model import ParameterInstance, Role, collection_from_dict


def _inst(name, concept=None):
    return ParameterInstance(name=name, role=Role.INPUT, operation_id="o", concept=concept)


def test_syntactic_trims_whitespace():
    assert matches(MatcherKind.SYNTACTIC_EQUAL, _inst(" price "), _inst("price"))


def test_syntactic_case_sensitive_by_default():
    assert not matches(MatcherKind.SYNTACTIC_EQUAL, _inst("Price"), _inst("price"))
    assert matches(MatcherKind.SYNTACTIC_EQUAL, _inst("Price"), _inst("price"), casefold=True)


def test_semantic_requires_exact_concept():
    a = _inst("x", "http://onto#Price")
    b = _inst("y", "http://onto#Price")
    c = _inst("x", "http://onto#Cost")
    assert matches(MatcherKind.SEMANTIC_EXACT, a, b)
    assert not matches(MatcherKind.SEMANTIC_EXACT, a, c)


def test_unannotated_matches_only_itself():
    a = _inst("price")
    b = _inst("price")
    assert matches(MatcherKind.SEMANTIC_EXACT, a, a)
    assert not matches(MatcherKind.SEMANTIC_EXACT, a, b)


def test_instance_key_none_for_missing_concept():
    assert instance_key(MatcherKind.SEMANTIC_EXACT, _inst("p")) is None
    assert instance_key(MatcherKind.SEMANTIC_EXACT, _inst("p", " u ")) == "u"
    assert instance_key(MatcherKind.SYNTACTIC_EQUAL, _inst(" P ")) == "P"


def _author_collection():
    """3 name variants, all annotated with the same concept."""
    return collection_from_dict(
        collection_doc(
            op("o1", [param("_AUTHOR", "http://books#author")], []),
            op("o2", [param("_AUTHOR1", "http://books#author")], []),
            op("o3", [param("_AUTHOR2", "http://books#author")], []),
        )
    )


def _parameter_collection():
    """One generic name reused for 3 different concepts."""
    return collection_doc(
        op("o1", [param("PARAMETER", "http://a#Temperature")], []),
        op("o2", [param("PARAMETER", "http://a#Pressure")], []),
        op("o3", [param("PARAMETER", "http://a#Humidity")], []),
    )


def test_author_fixture_archetype_counts():
    c = _author_collection()
    syntactic, _ = build_archetypes(c, MatcherKind.SYNTACTIC_EQUAL)
    semantic, _ = build_archetypes(c, MatcherKind.SEMANTIC_EXACT)
    assert len(syntactic) == 3
    assert len(semantic) == 1
    assert semantic[0].instance_count == 3


def test_parameter_fixture_archetype_counts():
    c = collection_from_dict(_parameter_collection())
    syntactic, _ = build_archetypes(c, MatcherKind.SYNTACTIC_EQUAL)
    semantic, _ = build_archetypes(c, MatcherKind.SEMANTIC_EXACT)
    assert len(syntactic) == 1
    assert syntactic[0].instance_count == 3
    assert len(semantic) == 3


def test_archetype_ids_dense_in_first_appearance_order():
    c = collection_from_dict(
        collection_doc(op("o", [param("b"), param("a"), param("b")], [param("c")]))
    )
    archetypes, instance_map = build_archetypes(c, MatcherKind.SYNTACTIC_EQUAL)
    assert [a.key for a in archetypes] == ["b", "a", "c"]
    instances = list(c.iter_instances())
    assert [instance_map[id(i)] for i in instances] == [0, 1, 0, 2]


def test_label_majority_name():
    c = collection_from_dict(
        collection_doc(
            op("o1", [param("_PRICE", "http://x#p"), param("price1", "http://x#p")], []),
            op("o2", [param("_PRICE", "http://x#p")], []),
        )
    )
    semantic, _ = build_archetypes(c, MatcherKind.SEMANTIC_EXACT)
    assert len(semantic) == 1
    assert semantic[0].label == "_PRICE"


def test_label_tie_breaks_lexicographically():
    c = collection_from_dict(
        collection_doc(op("o1", [param("beta", "u"), param("alpha", "u")], []))
    )
    semantic, _ = build_archetypes(c, MatcherKind.SEMANTIC_EXACT)
    assert semantic[0].label == "alpha"


def test_unannotated_instances_become_singletons():
    c = collection_from_dict(
        collection_doc(op("o", [param("p"), param("p"), param("q", "http://x#Q")], []))
    )
    semantic, _ = build_archetypes(c, MatcherKind.SEMANTIC_EXACT)
    assert len(semantic) == 3
    keys = [a.key for a in semantic]
    assert keys[0].startswith("<unannotated:") and keys[1].startswith("<unannotated:")
    assert keys[0] != keys[1]


_names = st.lists(
    st.text(alphabet="abcABC ", min_size=1, max_size=4).filter(str.strip),
    min_size=1,
    max_size=12,
)
_concepts = st.lists(
    st.none() | st.sampled_from(["u1", "u2", "u3"]), min_size=1, max_size=12
)


@given(names=_names, concepts=_concepts, casefold=st.booleans())
def test_hash_route_agrees_with_pairwise_route(names, concepts, casefold):
    params = [
        param(n, concept=c)
        for n, c in zip(names, concepts + [None] * len(names))
    ]
    c = collection_from_dict(collection_doc(op("o", params, [])))
    instances = list(c.iter_instances())
    for kind in MatcherKind:
        archetypes, instance_map = build_archetypes(c, kind, casefold=casefold)
        grouped = [
            sorted(i for i, inst in enumerate(instances) if instance_map[id(inst)] == arch_id)
            for arch_id in range(len(archetypes))
        ]
        oracle = build_archetypes_pairwise(
            instances, lambda x, y: matches(kind, x, y, casefold=casefold)
        )
        assert sorted(map(tuple, grouped)) == sorted(map(tuple, oracle))


@given(names=_names, casefold=st.booleans())
def test_matches_is_an_equivalence_on_named_instances(names, casefold):
    instances = [_inst(n) for n in names]
    kind = MatcherKind.SYNTACTIC_EQUAL
    for a in instances:
        assert matches(kind, a, a, casefold=casefold)
        for b in instances:
            assert matches(kind, a, b, casefold=casefold) == matches(kind, b, a, casefold=casefold)
            for c in instances:
                if matches(kind, a, b, casefold=casefold) and matches(kind, b, c, casefold=casefold):
                    assert matches(kind, a, c, casefold=casefold)


def test_archetype_partition_is_total(k2_collection):
    archetypes, instance_map = build_archetypes(k2_collection, MatcherKind.SYNTACTIC_EQUAL)
    assert sum(a.instance_count for a in archetypes) == k2_collection.instance_count
    assert len(instance_map) == k2_collection.instance_count
    assert set(instance_map.values()) == set(range(len(archetypes)))

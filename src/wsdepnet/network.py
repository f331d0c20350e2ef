"""Directed parameter dependency networks: construction and serialization.

A link src -> dst means some operation consumes a member of archetype src
as an input and yields a member of archetype dst as an output. The graph
is simple: parallel dependencies accumulate in the link weight, and
self-dependencies are suppressed (counted, not stored), since all the
downstream metrics assume a loop-free unweighted graph.

A network is built once and never changed, so its adjacency lists are
derived from the links on first read and cached.
"""

from __future__ import annotations

import functools
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

from .errors import CollectionError
from .matching import Archetype, MatcherKind, build_archetypes
from .model import ParameterInstance, Role, ServiceCollection, nogc


@dataclass
class Link:
    weight: int
    witness_operations: list[str]


@dataclass
class DependencyNetwork:
    """Built once: no code changes `nodes` or `links` after construction, so
    the adjacency lists below are built on first read and shared by every
    metric, which must not change them either."""

    nodes: list[Archetype]
    links: dict[tuple[int, int], Link]
    matcher: MatcherKind
    self_loop_count: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def sorted_links(self) -> list[tuple[int, int]]:
        return sorted(self.links)

    @functools.cached_property
    def successors(self) -> list[list[int]]:
        """Link targets of each node, ascending."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.sorted_links():
            adj[src].append(dst)
        return adj

    @functools.cached_property
    def predecessors(self) -> list[list[int]]:
        """Link sources of each node, ascending."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for src, targets in enumerate(self.successors):
            for dst in targets:
                adj[dst].append(src)
        return adj

    @functools.cached_property
    def neighbors(self) -> list[list[int]]:
        """The simple undirected projection: neighbours of each node, ascending."""
        return [sorted({*out, *into}) for out, into in zip(self.successors, self.predecessors)]


@dataclass
class NetworkSummary:
    nodes: int
    links: int
    isolated_nodes: int
    isolated_fraction: float
    self_loop_count: int


def _accumulate(nodes: list[Archetype], matcher: MatcherKind, dependencies) -> DependencyNetwork:
    """A network from (src, dst, witness) dependencies: parallel ones add to
    one link's weight and witnesses, self-dependencies are only counted."""
    links: dict[tuple[int, int], Link] = {}
    self_loops = 0
    for src, dst, witness in dependencies:
        if src == dst:
            self_loops += 1
            continue
        link = links.get((src, dst))
        if link is None:
            links[(src, dst)] = Link(weight=1, witness_operations=[witness])
        else:
            link.weight += 1
            link.witness_operations.append(witness)
    return DependencyNetwork(nodes=nodes, links=links, matcher=matcher, self_loop_count=self_loops)


@nogc
def build_network(
    c: ServiceCollection,
    kind: MatcherKind,
    casefold: bool = False,
) -> DependencyNetwork:
    """Archetypes become nodes; every (input, output) instance pair of every
    operation contributes one directed dependency between their archetypes."""
    archetypes, instance_map = build_archetypes(c, kind, casefold=casefold)
    return _accumulate(archetypes, kind, (
        (instance_map[id(input_inst)], instance_map[id(output_inst)], op.id)
        for op in c.iter_operations()
        for input_inst in op.inputs
        for output_inst in op.outputs
    ))


def network_summary(n: DependencyNetwork) -> NetworkSummary:
    isolated = sum(1 for neighbors in n.neighbors if not neighbors)
    return NetworkSummary(
        nodes=n.node_count,
        links=n.link_count,
        isolated_nodes=isolated,
        isolated_fraction=isolated / n.node_count if n.node_count else 0.0,
        self_loop_count=n.self_loop_count,
    )


def network_from_edges(
    num_nodes: int,
    edges: list[tuple[int, int]],
    matcher: MatcherKind = MatcherKind.SYNTACTIC_EQUAL,
    labels: list[str] | None = None,
) -> DependencyNetwork:
    """Build a network from raw directed edges with synthetic single-member nodes."""
    nodes = []
    for i in range(num_nodes):
        label = labels[i] if labels else f"n{i}"
        inst = ParameterInstance(name=label, role=Role.INPUT, operation_id="synthetic")
        nodes.append(Archetype(id=i, label=label, key=label, members=[inst]))
    return _accumulate(nodes, matcher, ((src, dst, "synthetic") for src, dst in edges))


# -- serialization ------------------------------------------------------------

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def to_edgelist(n: DependencyNetwork) -> str:
    """TSV `source<TAB>target<TAB>weight`, sorted by (source, target)."""
    lines = [f"{src}\t{dst}\t{n.links[(src, dst)].weight}" for src, dst in n.sorted_links()]
    return "".join(line + "\n" for line in lines)


def to_graphml(n: DependencyNetwork) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<graphml xmlns="{GRAPHML_NS}">\n',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n',
        '  <key id="instance_count" for="node" attr.name="instance_count" attr.type="int"/>\n',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n',
        '  <graph id="G" edgedefault="directed">\n',
    ]
    for node in n.nodes:
        out.append(
            f'    <node id="n{node.id}">'
            f'<data key="label">{escape(node.label)}</data>'
            f'<data key="instance_count">{node.instance_count}</data>'
            "</node>\n"
        )
    for src, dst in n.sorted_links():
        out.append(
            f'    <edge source="n{src}" target="n{dst}">'
            f'<data key="weight">{n.links[(src, dst)].weight}</data>'
            "</edge>\n"
        )
    out.append("  </graph>\n</graphml>\n")
    return "".join(out)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(n: DependencyNetwork) -> str:
    out = ["digraph dependencies {\n"]
    for node in n.nodes:
        out.append(f"  n{node.id} [label={_dot_quote(node.label)}];\n")
    for src, dst in n.sorted_links():
        out.append(f"  n{src} -> n{dst} [weight={n.links[(src, dst)].weight}];\n")
    out.append("}\n")
    return "".join(out)


EXPORT_FORMATS = {"graphml": to_graphml, "dot": to_dot, "edgelist": to_edgelist}


def export(n: DependencyNetwork, format: str) -> str:
    try:
        renderer = EXPORT_FORMATS[format]
    except KeyError:
        raise ValueError(f"unknown export format {format!r}") from None
    return renderer(n)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


@nogc
def save_network(n: DependencyNetwork, path: str | Path) -> None:
    """Write the GraphML file plus a sidecar with matcher and archetype membership.

    The sidecar is one line of JSON with sorted keys, so the C encoder
    writes it; load_network reads any JSON layout of the same object.
    """
    path = Path(path)
    path.write_text(to_graphml(n), encoding="utf-8")
    meta = {
        "matcher": n.matcher.value,
        "self_loop_count": n.self_loop_count,
        "archetypes": [
            {
                "id": node.id,
                "key": node.key,
                "label": node.label,
                "members": [
                    {
                        "name": inst.name,
                        "role": inst.role.value,
                        "operation": inst.operation_id,
                        "type": inst.xsd_type,
                        "concept": inst.concept,
                    }
                    for inst in node.members
                ],
            }
            for node in n.nodes
        ],
        "links": [
            {"source": src, "target": dst, "witnesses": n.links[(src, dst)].witness_operations}
            for src, dst in n.sorted_links()
        ],
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


class _Values(dict):
    """Value -> member table of an enum; an unknown value raises ValueError naming it."""

    def __init__(self, what: str, enum_type):
        super().__init__((member.value, member) for member in enum_type)
        self.what = what

    def __missing__(self, value):
        raise ValueError(f"unknown {self.what} {value!r}")


_ROLES = _Values("role", Role)
_MATCHERS = _Values("matcher", MatcherKind)


def _entry(section: str, index: int | None) -> str:
    return section if index is None else f"{section}[{index}]"


@nogc
def load_network(path: str | Path) -> DependencyNetwork:
    """Read a network written by save_network (GraphML + sidecar).

    Fails closed: a malformed or inconsistent pair of files raises
    CollectionError naming the file and the key or entry at fault.
    """
    path = Path(path)
    meta_path = sidecar_path(path)
    if not path.exists():
        raise CollectionError(f"network file not found: {path}")
    if not meta_path.exists():
        raise CollectionError(f"missing network sidecar: {meta_path}")
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise CollectionError(f"{path}: malformed GraphML: {exc}") from exc
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CollectionError(f"{meta_path}: parse error: {exc}") from exc

    # one try per file, not a check per member: a failure is located by
    # the section and entry index reached when it was raised
    where, index = "top level", None
    try:
        matcher = _MATCHERS[meta["matcher"]]
        self_loop_count = meta["self_loop_count"]
        if type(self_loop_count) is not int or self_loop_count < 0:
            raise ValueError(f"self_loop_count must be an integer >= 0, got {self_loop_count!r}")
        where = "archetypes"
        nodes: list[Archetype] = []
        for index, entry in enumerate(meta["archetypes"]):
            members = [
                ParameterInstance(
                    name=m["name"],
                    role=_ROLES[m["role"]],
                    operation_id=m["operation"],
                    xsd_type=m.get("type"),
                    concept=m.get("concept"),
                )
                for m in entry["members"]
            ]
            label, key = entry["label"], entry["key"]
            if type(label) is not str or type(key) is not str:
                raise ValueError("label and key must be strings")
            nodes.append(Archetype(id=entry["id"], label=label, key=key, members=members))
        index = None
        nodes.sort(key=lambda a: a.id)
        if [a.id for a in nodes] != list(range(len(nodes))):
            raise ValueError("ids are not dense")
        where = "links"
        witnesses: dict[tuple[int, int], list[str]] = {}
        for index, entry in enumerate(meta["links"]):
            pair = (entry["source"], entry["target"])
            if pair in witnesses:
                raise ValueError(f"duplicate link {pair}")
            witnesses[pair] = list(entry["witnesses"])
    except KeyError as exc:
        raise CollectionError(f"{meta_path}: {_entry(where, index)}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CollectionError(f"{meta_path}: {_entry(where, index)}: {exc}") from None

    weights: dict[tuple[int, int], int] = {}
    graph = tree.getroot().find(f"{{{GRAPHML_NS}}}graph")
    if graph is None:
        raise CollectionError(f"{path}: no graph element")
    node_count = len(nodes)
    if len(graph.findall(f"{{{GRAPHML_NS}}}node")) != node_count:
        raise CollectionError(f"{path}: GraphML nodes and sidecar archetypes disagree")
    try:
        for index, edge in enumerate(graph.findall(f"{{{GRAPHML_NS}}}edge")):
            src = int(edge.get("source").lstrip("n"))
            dst = int(edge.get("target").lstrip("n"))
            if not (0 <= src < node_count and 0 <= dst < node_count) or src == dst:
                raise ValueError(f"link {src} -> {dst} outside a loop-free {node_count}-node network")
            weight = 1
            for data in edge.findall(f"{{{GRAPHML_NS}}}data"):
                if data.get("key") == "weight":
                    weight = int(data.text)
            if weight < 1:
                raise ValueError(f"weight must be >= 1, got {weight}")
            if (src, dst) in weights:
                raise ValueError(f"duplicate link {src} -> {dst}")
            weights[(src, dst)] = weight
    except (AttributeError, TypeError, ValueError) as exc:
        raise CollectionError(f"{path}: {_entry('edge', index)}: {exc}") from None

    if witnesses.keys() != weights.keys():
        for pair in witnesses:
            if pair not in weights:
                raise CollectionError(f"{meta_path}: link {pair} not present in GraphML")
        raise CollectionError(f"{path}: GraphML links and sidecar links disagree")
    links = {pair: Link(weight=weights[pair], witness_operations=ops) for pair, ops in witnesses.items()}
    return DependencyNetwork(nodes=nodes, links=links, matcher=matcher, self_loop_count=self_loop_count)

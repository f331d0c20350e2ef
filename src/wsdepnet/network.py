"""Directed parameter dependency networks: construction and serialization.

A node's id is its index in `nodes`. A link src -> dst means some operation
consumes a member of archetype src as an input and yields a member of
archetype dst as an output. The graph is simple: parallel dependencies
accumulate in one link, the list of its witnesses (an operation id per
dependency), whose length is its weight; self-dependencies are suppressed
(counted, not stored), since all the downstream metrics assume a loop-free
unweighted graph.

A network is built once and never changed. Its links are held in (source,
target) order, and the one adjacency derived from them, each node's
undirected neighbours, is built on first read and cached. save_network
writes a GraphML file and a JSON sidecar; load_network builds the network
from the sidecar and requires the GraphML file to be the bytes
save_network writes for it.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

from .errors import CollectionError
from .matching import Archetype, MatcherKind, build_archetypes
from .model import ParameterInstance, Role, ServiceCollection, nogc


@dataclass
class DependencyNetwork:
    """Built once: no code changes `nodes` or `links` after construction, so
    `neighbors` below is built on first read and shared by every metric,
    which must not change it either. `links` maps (source, target) to the
    witness operations, put in (source, target) order on construction."""

    nodes: list[Archetype]
    links: dict[tuple[int, int], list[str]]
    matcher: MatcherKind
    self_loop_count: int = 0

    def __post_init__(self):
        if not all(a < b for a, b in pairwise(self.links)):
            self.links = dict(sorted(self.links.items()))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    @functools.cached_property
    def neighbors(self) -> list[list[int]]:
        """The simple undirected projection: neighbours of each node, ascending."""
        ends: list[set[int]] = [set() for _ in self.nodes]
        for src, dst in self.links:
            ends[src].add(dst)
            ends[dst].add(src)
        return [sorted(around) for around in ends]


@dataclass
class NetworkSummary:
    isolated_nodes: int
    isolated_fraction: float


def _accumulate(nodes: list[Archetype], matcher: MatcherKind, dependencies) -> DependencyNetwork:
    """A network from (src, dst, witness) dependencies: parallel ones add to
    one link's witnesses, self-dependencies are only counted."""
    links: dict[tuple[int, int], list[str]] = {}
    self_loops = 0
    for src, dst, witness in dependencies:
        if src == dst:
            self_loops += 1
            continue
        links.setdefault((src, dst), []).append(witness)
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
    return NetworkSummary(isolated_nodes=isolated, isolated_fraction=isolated / n.node_count if n.node_count else 0.0)


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
        nodes.append(Archetype(label=label, key=label, members=[inst]))
    return _accumulate(nodes, matcher, ((src, dst, "synthetic") for src, dst in edges))


# -- serialization ------------------------------------------------------------

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def to_edgelist(n: DependencyNetwork) -> str:
    """TSV `source<TAB>target<TAB>weight`, sorted by (source, target)."""
    lines = [f"{src}\t{dst}\t{len(ops)}" for (src, dst), ops in n.links.items()]
    return "".join(line + "\n" for line in lines)


def _xml_escape(text: str) -> str:
    # The same bytes as xml.sax.saxutils.escape, whose module imports urllib.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_graphml(n: DependencyNetwork) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<graphml xmlns="{GRAPHML_NS}">\n',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n',
        '  <key id="instance_count" for="node" attr.name="instance_count" attr.type="int"/>\n',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n',
        '  <graph id="G" edgedefault="directed">\n',
    ]
    for i, node in enumerate(n.nodes):
        out.append(
            f'    <node id="n{i}">'
            f'<data key="label">{_xml_escape(node.label)}</data>'
            f'<data key="instance_count">{node.instance_count}</data>'
            "</node>\n"
        )
    for (src, dst), ops in n.links.items():
        out.append(
            f'    <edge source="n{src}" target="n{dst}">'
            f'<data key="weight">{len(ops)}</data>'
            "</edge>\n"
        )
    out.append("  </graph>\n</graphml>\n")
    return "".join(out)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(n: DependencyNetwork) -> str:
    out = ["digraph dependencies {\n"]
    for i, node in enumerate(n.nodes):
        out.append(f"  n{i} [label={_dot_quote(node.label)}];\n")
    for (src, dst), ops in n.links.items():
        out.append(f"  n{src} -> n{dst} [weight={len(ops)}];\n")
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
                "id": i,
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
            for i, node in enumerate(n.nodes)
        ],
        "links": [{"source": src, "target": dst, "witnesses": ops} for (src, dst), ops in n.links.items()],
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

    The network is built from the sidecar, and the GraphML file must hold
    exactly the bytes save_network writes for it. Fails closed: a malformed
    sidecar, or a GraphML file that differs from it, raises CollectionError
    naming the file and the key, entry or line at fault.
    """
    path = Path(path)
    meta_path = sidecar_path(path)
    if not path.exists():
        raise CollectionError(f"network file not found: {path}")
    if not meta_path.exists():
        raise CollectionError(f"missing network sidecar: {meta_path}")
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
            members = []
            for m in entry["members"]:
                name, role, operation = m["name"], _ROLES[m["role"]], m["operation"]
                xsd_type, concept = m.get("type"), m.get("concept")
                if type(name) is not str or type(operation) is not str:
                    raise ValueError(f"member name and operation must be strings, got {name!r}, {operation!r}")
                if not (xsd_type is None or type(xsd_type) is str) or not (concept is None or type(concept) is str):
                    raise ValueError(f"member type and concept must be strings or null, got {xsd_type!r}, {concept!r}")
                members.append(ParameterInstance(name, role, operation, xsd_type, concept))
            label, key, id_ = entry["label"], entry["key"], entry["id"]
            if type(label) is not str or type(key) is not str:
                raise ValueError("label and key must be strings")
            if type(id_) is not int:
                raise ValueError(f"id must be an integer, got {id_!r}")
            if id_ != index:
                raise ValueError(f"id {id_} is not its position {index}")
            nodes.append(Archetype(label=label, key=key, members=members))
        index = None
        node_count = len(nodes)
        where = "links"
        links: dict[tuple[int, int], list[str]] = {}
        for index, entry in enumerate(meta["links"]):
            src, dst = pair = (entry["source"], entry["target"])
            if type(src) is not int or type(dst) is not int:
                raise ValueError(f"source and target must be integers, got {src!r}, {dst!r}")
            if not (0 <= src < node_count and 0 <= dst < node_count) or src == dst:
                raise ValueError(f"link {src} -> {dst} outside a loop-free {node_count}-node network")
            if pair in links:
                raise ValueError(f"duplicate link {pair}")
            ops = entry["witnesses"]
            if type(ops) is not list or not all(type(op) is str for op in ops):
                raise ValueError("witnesses must be a list of strings")
            if not ops:
                raise ValueError("witnesses must not be empty: a link's weight is its witness count")
            links[pair] = ops
    except KeyError as exc:
        raise CollectionError(f"{meta_path}: {_entry(where, index)}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CollectionError(f"{meta_path}: {_entry(where, index)}: {exc}") from None

    network = DependencyNetwork(nodes=nodes, links=links, matcher=matcher, self_loop_count=self_loop_count)
    found, expected = path.read_bytes(), to_graphml(network).encode("utf-8")
    if found != expected:
        offset = len(os.path.commonprefix([found, expected]))
        number, start = found.count(b"\n", 0, offset) + 1, found.rfind(b"\n", 0, offset) + 1
        line = found[start:].split(b"\n", 1)[0]
        raise CollectionError(f"{path}: line {number} differs from what save_network writes for "
                              f"{meta_path}: {line[:80]!r}")
    return network

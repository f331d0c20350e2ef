"""Seeded input generators for the three benchmark workloads.

Each generator writes plain input files (a canonical JSON collection, a
GraphML network with its sidecar, or a SAWSDL directory tree) and returns
their sizes. The program under test only ever sees those files. The same
seed always writes the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


# -- paper-pair: canonical collection with a Zipf vocabulary --------------------

def _paper_services(rng: np.random.Generator, count: int, vocab: int) -> list[dict]:
    """Services whose parameters are Zipf-ranked concepts.

    Name variants of one concept (`p7_v1`, `p7_v2`) split a syntactic node
    that the semantic matcher merges, one generic name (`value`) merges
    concepts that the semantic matcher keeps apart, and a few parameters
    carry no concept, so the two networks differ the way real corpora do.
    """
    concepts = [f"http://onto.example.org/paper#C{v}" for v in range(vocab)]

    def draw(k: int) -> list[dict]:
        out: list[dict] = []
        while len(out) < k:
            v = int(rng.zipf(1.2)) - 1
            if v >= vocab:
                continue
            roll = rng.random()
            if roll < 0.40:
                name = f"p{v}_v{int(rng.integers(1, 3))}"
            elif roll < 0.44:
                name = "value"
            else:
                name = f"p{v}"
            entry = {"name": name, "concept": concepts[v]}
            if rng.random() < 0.03:
                del entry["concept"]
            out.append(entry)
        return out

    services = []
    for s in range(count):
        operations = [
            {
                "name": f"op{o}",
                "inputs": draw(int(rng.integers(1, 4))),
                "outputs": draw(int(rng.integers(1, 4))),
            }
            for o in range(int(rng.integers(1, 4)))
        ]
        services.append({"name": f"service{s}", "operations": operations})
    return services


def _syntactic_giant(services: list[dict]) -> tuple[int, int]:
    """(nodes, links) of the giant weak component under name equality.

    Computed here, independently of the program, so the generator can aim
    at a target size before the program sees the collection.
    """
    ids: dict[str, int] = {}
    links: set[tuple[int, int]] = set()
    for service in services:
        for op in service["operations"]:
            ins = [ids.setdefault(p["name"], len(ids)) for p in op["inputs"]]
            outs = [ids.setdefault(p["name"], len(ids)) for p in op["outputs"]]
            links.update((i, o) for i in ins for o in outs if i != o)
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, o in links:
        parent[find(i)] = find(o)
    roots = [find(x) for x in range(len(ids))]
    sizes: dict[int, int] = {}
    for r in roots:
        sizes[r] = sizes.get(r, 0) + 1
    giant = max(sizes, key=lambda r: (sizes[r], -r))
    return sizes[giant], sum(1 for i, _ in links if roots[i] == giant)


def paper_collection(seed: int, nodes: int, links: int, vocab: int) -> dict:
    """Canonical collection whose syntactic giant is within 1% of nodes and links.

    Draws a long list of services, keeps the shortest prefix whose giant
    reaches `links`, and redraws (from a stream derived from the seed)
    until the node count also lands in the window. Pinning the size keeps
    the per-seed work, and so the run-to-run spread, small.
    """
    node_tol = max(1, nodes // 100)
    link_tol = max(1, links // 100)
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        services = _paper_services(rng, 2 * links // 6 + 20, vocab)
        lo, hi = 1, len(services)
        while lo < hi:
            mid = (lo + hi) // 2
            if _syntactic_giant(services[:mid])[1] >= links:
                hi = mid
            else:
                lo = mid + 1
        n, m = _syntactic_giant(services[:lo])
        if abs(n - nodes) <= node_tol and abs(m - links) <= link_tol:
            return {"services": services[:lo]}
    raise RuntimeError(f"no collection near {nodes}/{links} for seed {seed}")


def write_paper_pair(workdir: Path, seed: int, nodes: int, links: int, vocab: int) -> dict:
    doc = paper_collection(seed, nodes, links, vocab)
    path = workdir / "collection.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    instances = sum(
        len(op["inputs"]) + len(op["outputs"]) for s in doc["services"] for op in s["operations"]
    )
    return {"collection": path, "services": len(doc["services"]), "instances": instances}


# -- scale-10x: heavy-tailed directed network with domain structure ------------

def planted_edges(rng: np.random.Generator, nodes: int, links: int, groups: int) -> list[tuple[int, int]]:
    """Weakly connected simple digraph with exactly `nodes` nodes and `links` links.

    Nodes fall into `groups` equal domains and carry Pareto(1.5) weights,
    so degrees are heavy-tailed. A spanning tree (each node joins an
    earlier node of its own domain, or of the whole graph for a domain's
    first node) keeps it connected; the other links join weight-drawn
    endpoints, inside the source's domain with probability 0.7.

    The domains make Walktrap's work nearly the same for every seed: on a
    graph without them its merge cost varied twofold between seeds.
    """
    size = nodes // groups
    domain = np.minimum(np.arange(nodes) // size, groups - 1)
    weight = rng.pareto(1.5, nodes) + 1.0
    edges: set[tuple[int, int]] = set()
    for i in range(1, nodes):
        first = domain[i] * size
        earlier = np.arange(first if i > first else 0, i)
        j = int(rng.choice(earlier, p=weight[earlier] / weight[earlier].sum()))
        edges.add((i, j) if rng.random() < 0.5 else (j, i))
    p = weight / weight.sum()
    while len(edges) < links:
        s = int(rng.choice(nodes, p=p))
        if rng.random() < 0.7:
            members = np.flatnonzero(domain == domain[s])
            d = int(rng.choice(members, p=weight[members] / weight[members].sum()))
        else:
            d = int(rng.choice(nodes, p=p))
        if s != d:
            edges.add((s, d))
    return sorted(edges)


def write_network(path: Path, labels: list[str], edges: list[tuple[int, int]]) -> None:
    """GraphML plus `.meta.json` sidecar in the format `wsdepnet extract` writes."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<graphml xmlns="{GRAPHML_NS}">\n',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n',
        '  <key id="instance_count" for="node" attr.name="instance_count" attr.type="int"/>\n',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n',
        '  <graph id="G" edgedefault="directed">\n',
    ]
    for i, label in enumerate(labels):
        out.append(f'    <node id="n{i}"><data key="label">{label}</data><data key="instance_count">1</data></node>\n')
    for s, d in edges:
        out.append(f'    <edge source="n{s}" target="n{d}"><data key="weight">1</data></edge>\n')
    out.append("  </graph>\n</graphml>\n")
    path.write_text("".join(out), encoding="utf-8")
    meta = {
        "matcher": "syntactic-equal",
        "self_loop_count": 0,
        "archetypes": [
            {
                "id": i,
                "key": label,
                "label": label,
                "members": [{"name": label, "role": "input", "operation": "synthetic", "type": None, "concept": None}],
            }
            for i, label in enumerate(labels)
        ],
        "links": [{"source": s, "target": d, "witnesses": [f"op{k}"]} for k, (s, d) in enumerate(edges)],
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_scale_network(workdir: Path, seed: int, nodes: int, links: int, groups: int, satellites: int) -> dict:
    """Giant of exactly nodes/links plus `satellites` two-node components outside it."""
    rng = np.random.default_rng(seed)
    edges = planted_edges(rng, nodes, links, groups)
    edges += [(nodes + 2 * k, nodes + 2 * k + 1) for k in range(satellites)]
    total = nodes + 2 * satellites
    path = workdir / "scale.graphml"
    write_network(path, [f"p{i}" for i in range(total)], edges)
    return {"network": path, "nodes": total, "links": len(edges)}


# -- corpus-extract: SAWSDL directory tree ---------------------------------------

DOMAINS = ("communication", "economy", "education", "food", "geography", "medical", "travel", "weapon")

_WSDL_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" '
    'xmlns:sawsdl="http://www.w3.org/ns/sawsdl" xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
    'xmlns:tns="urn:{name}" name="{name}" targetNamespace="urn:{name}">\n'
)


def _sawsdl_document(rng: np.random.Generator, name: str, domain: str, vocab: int) -> str:
    """One WSDL 1.1 service: 1-3 operations, parts annotated with a Zipf concept.

    About 3% of parts carry no annotation; a quarter use a numbered name
    variant of their concept, so the two matchers build different networks.
    """
    messages: list[str] = []
    operations: list[str] = []
    for o in range(int(rng.integers(1, 4))):
        for side in ("Request", "Response"):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                v = min(int(rng.zipf(1.3)), vocab) - 1
                pname = f"{domain}{v}" if rng.random() < 0.75 else f"{domain}{v}_v{int(rng.integers(1, 3))}"
                if rng.random() < 0.03:
                    parts.append(f'    <wsdl:part name="{pname}" type="xsd:string"/>\n')
                else:
                    concept = f"http://onto.example.org/{domain}#C{v}"
                    parts.append(
                        f'    <wsdl:part name="{pname}" type="xsd:string" sawsdl:modelReference="{concept}"/>\n'
                    )
            messages.append(f'  <wsdl:message name="op{o}{side}">\n{"".join(parts)}  </wsdl:message>\n')
        operations.append(
            f'    <wsdl:operation name="op{o}">\n'
            f'      <wsdl:input message="tns:op{o}Request"/>\n'
            f'      <wsdl:output message="tns:op{o}Response"/>\n'
            "    </wsdl:operation>\n"
        )
    return (
        _WSDL_HEAD.format(name=name)
        + "".join(messages)
        + f'  <wsdl:portType name="{name}PortType">\n'
        + "".join(operations)
        + "  </wsdl:portType>\n"
        + f'  <wsdl:service name="{name}"/>\n'
        + "</wsdl:definitions>\n"
    )


def write_sawsdl_corpus(workdir: Path, seed: int, files: int, vocab: int) -> dict:
    rng = np.random.default_rng(seed)
    root = workdir / "corpus"
    for domain in DOMAINS:
        (root / domain).mkdir(parents=True, exist_ok=True)
    size = 0
    for k in range(files):
        domain = DOMAINS[k % len(DOMAINS)]
        suffix = ".sawsdl" if k % 5 == 0 else ".wsdl"
        text = _sawsdl_document(rng, f"Service{k}", domain, vocab)
        data = text.encode("utf-8")
        (root / domain / f"service{k:05d}{suffix}").write_bytes(data)
        size += len(data)
    return {"corpus": root, "files": files, "bytes": size}

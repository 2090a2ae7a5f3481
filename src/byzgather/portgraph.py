"""Anonymous, connected, undirected graphs with local port numbering.

Nodes carry integer indices for simulation bookkeeping only; the protocol
layer never sees them.  Each node labels its incident edges with ports
1..d(v), and crossing an edge reports the entry port on the far side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Base class for graph construction and navigation errors."""


class SelfLoop(GraphError):
    def __init__(self, node: int):
        super().__init__(f"self-loop at node {node}")
        self.node = node


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge {{{u}, {v}}}")
        self.edge = (u, v)


class DuplicatePort(GraphError):
    def __init__(self, node: int, detail: str):
        super().__init__(f"bad port assignment at node {node}: {detail}")
        self.node = node


class DisconnectedGraph(GraphError):
    def __init__(self, node: int):
        super().__init__(f"node {node} is unreachable from node 0")
        self.node = node


class PortOutOfRange(GraphError):
    def __init__(self, node: int, port: int, degree: int):
        super().__init__(f"port {port} out of range at node {node} (degree {degree})")
        self.node = node
        self.port = port


class InvalidFamilyParameters(GraphError):
    pass


FAMILY_KINDS = ("ring", "complete", "path", "random-tree", "random-connected")

#: Smallest node count of each family that needs more than one node.
FAMILY_MIN_NODES = {"ring": 3, "complete": 2}


@dataclass(frozen=True)
class GraphFamily:
    """Benchmark scenario descriptor: a named generator plus its parameters."""

    kind: str
    node_count: int
    seed: int = 0


class PortGraph:
    """Immutable port-numbered graph.

    ``adj[v][p - 1] == (u, q)`` means port ``p`` at ``v`` crosses to ``u``,
    arriving through port ``q``.  Instances are safe to share between
    concurrently running scenarios.
    """

    __slots__ = ("node_count", "adj")

    def __init__(self, node_count: int, adj: Sequence[Sequence[tuple[int, int]]]):
        self.node_count = node_count
        self.adj = tuple(tuple(row) for row in adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbor(self, v: int, p: int) -> tuple[int, int]:
        """Cross port ``p`` at node ``v``; returns (far node, entry port)."""
        row = self.adj[v]
        if not 1 <= p <= len(row):
            raise PortOutOfRange(v, p, len(row))
        return row[p - 1]

    def fingerprint(self) -> tuple:
        """Canonical identity of the labeled graph, usable as a cache key."""
        return (self.node_count, self.adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, PortGraph) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        return f"PortGraph(n={self.node_count}, m={sum(map(len, self.adj)) // 2})"


def build(
    node_count: int,
    edge_list: Iterable[tuple[int, int]],
    port_assignment: dict[int, Sequence[int]] | None = None,
) -> PortGraph:
    """Build and validate a PortGraph from an edge list.

    ``port_assignment`` optionally gives, per node, the neighbor order that
    defines ports 1..d(v).  Nodes without an entry use ascending neighbor
    index order.
    """
    if node_count < 1:
        raise InvalidFamilyParameters(f"node_count must be >= 1, got {node_count}")
    seen: set[frozenset[int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edge_list:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise GraphError(f"edge ({u}, {v}) references an unknown node")
        if u == v:
            raise SelfLoop(u)
        key = frozenset((u, v))
        if key in seen:
            raise DuplicateEdge(u, v)
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)

    order: list[list[int]] = []
    for v in range(node_count):
        if port_assignment is not None and v in port_assignment:
            want = list(port_assignment[v])
            if len(set(want)) != len(want):
                raise DuplicatePort(v, "repeated neighbor in port order")
            if sorted(want) != sorted(nbrs[v]):
                raise DuplicatePort(v, "port order does not match the neighbor set")
            order.append(want)
        else:
            order.append(sorted(nbrs[v]))

    port_of = [{u: p + 1 for p, u in enumerate(order[v])} for v in range(node_count)]
    adj = [[(u, port_of[u][v]) for u in order[v]] for v in range(node_count)]
    g = PortGraph(node_count, adj)

    unreached = _unreached_node(g)
    if unreached is not None:
        raise DisconnectedGraph(unreached)
    return g


def _unreached_node(g: PortGraph) -> int | None:
    """Breadth-first reachability from node 0; returns an unreached node."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u, _ in g.adj[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    for v in range(g.node_count):
        if v not in seen:
            return v
    return None


def generate(family: GraphFamily) -> PortGraph:
    """Deterministically generate a benchmark graph for ``family``.

    Port assignments are canonical for the deterministic families and
    seed-shuffled for the random ones.
    """
    kind, n, seed = family.kind, family.node_count, family.seed
    if kind not in FAMILY_KINDS:
        raise InvalidFamilyParameters(f"unknown family kind {kind!r}")
    least = FAMILY_MIN_NODES.get(kind, 1)
    if n < least:
        raise InvalidFamilyParameters(f"{kind} needs at least {least} nodes")

    if kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
        return build(n, edges)
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
        return build(n, edges)
    if kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return build(n, edges)

    rng = random.Random(seed)
    edges = _random_tree_edges(n, rng)
    if kind == "random-connected":
        present = {frozenset(e) for e in edges}
        for u in range(n):
            for v in range(u + 1, n):
                if frozenset((u, v)) not in present and rng.random() < 0.3:
                    edges.append((u, v))
                    present.add(frozenset((u, v)))
    ports = _shuffled_ports(n, edges, rng)
    return build(n, edges, ports)


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random spanning tree by attaching each node to an earlier one."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((order[j], order[i]))
    return edges


def _shuffled_ports(n: int, edges: list[tuple[int, int]], rng: random.Random) -> dict[int, list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    ports = {}
    for v in range(n):
        order = sorted(nbrs[v])
        rng.shuffle(order)
        ports[v] = order
    return ports


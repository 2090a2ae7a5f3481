"""Certified deterministic exploration walks.

A walk is driven by a fixed offset sequence: entering a degree-d node
through port e at step i, the walker leaves through
``exit_port(offsets[i], e, d)``.  A sequence is *certified* for a
bound N when, on every registered benchmark graph with at most N nodes
and from every start node, the walk visits all nodes within its length.

Sequences are built by drawing random offsets and certifying them,
doubling the length on failure.  The certified length is the move count
used by every piece of phase arithmetic downstream.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple

from .portgraph import PortGraph


#: Draws ``build_sequence`` makes, doubling the length each time, before it gives up.
MAX_ATTEMPTS = 14


class ExplorationError(ValueError):
    pass


class CertificationFailedAfterRetries(ExplorationError):
    def __init__(self, attempts: int, failure: "CertResult"):
        super().__init__(
            f"no certified sequence after {attempts} attempts; "
            f"last failure: start {failure.start}, uncovered node {failure.uncovered}"
        )
        self.failure = failure


class CertResult(NamedTuple):
    passed: bool
    start: int | None = None
    uncovered: int | None = None


class ExplorationSequence:
    """An offset sequence together with the bound it was certified for."""

    __slots__ = ("offsets", "certified_bound", "seed")

    def __init__(self, offsets: Iterable[int], certified_bound: int, seed: int = 0):
        self.offsets = tuple(offsets)
        self.certified_bound = certified_bound
        self.seed = seed

    @property
    def length(self) -> int:
        return len(self.offsets)

    def __repr__(self) -> str:
        return f"ExplorationSequence(N={self.certified_bound}, length={self.length}, seed={self.seed})"


def exit_port(offset: int, entry_port: int | None, degree: int) -> int:
    """The walk rule: exit port of one step at a degree-``degree`` node.

    ``entry_port`` None marks the first move of a walk, which counts as
    entering through port 1.
    """
    e = 1 if entry_port is None else entry_port
    return (e - 1 + offset) % degree + 1


def walk_visits(seq: ExplorationSequence, g: PortGraph, start: int) -> set[int]:
    """Simulate the walk from ``start``; returns the set of visited nodes.

    Stops early once every node has been seen.  On a single-node graph the
    walk cannot move and the start is the whole cover.
    """
    visited = {start}
    n = g.node_count
    if n == 1:
        return visited
    pos, entry = start, None
    adj = g.adj
    for offset in seq.offsets:
        row = adj[pos]
        pos, entry = row[exit_port(offset, entry, len(row)) - 1]
        if pos not in visited:
            visited.add(pos)
            if len(visited) == n:
                break
    return visited


def certify(seq: ExplorationSequence, g: PortGraph) -> CertResult:
    """Check full coverage from every start node; failure is a result."""
    if g.node_count > seq.certified_bound:
        raise ExplorationError(
            f"graph has {g.node_count} nodes, above the certified bound {seq.certified_bound}"
        )
    for start in range(g.node_count):
        visited = walk_visits(seq, g, start)
        if len(visited) != g.node_count:
            uncovered = min(v for v in range(g.node_count) if v not in visited)
            return CertResult(False, start, uncovered)
    return CertResult(True)


def build_sequence(N: int, seed: int, benchmark_graphs: list[PortGraph]) -> ExplorationSequence:
    """Draw seeded random offsets and certify them against the benchmark set.

    Starts at ``max(4*N, 8)`` moves and doubles the length (with a fresh
    draw) until every benchmark graph certifies from every start.
    """
    if N < 1:
        raise ExplorationError("bound N must be >= 1")
    for g in benchmark_graphs:
        if g.node_count > N:
            raise ExplorationError(f"benchmark graph {g!r} exceeds the bound N={N}")
    length = max(4 * N, 8)
    last_failure = CertResult(False)
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(1_000_003 * seed + attempt)
        cand = ExplorationSequence(
            (rng.randrange(N) for _ in range(length)), N, seed
        )
        result = CertResult(True)
        for g in benchmark_graphs:
            result = certify(cand, g)
            if not result.passed:
                last_failure = result
                break
        if result.passed:
            return cand
        length *= 2
    raise CertificationFailedAfterRetries(MAX_ATTEMPTS, last_failure)


def save_sequence(seq: ExplorationSequence, path: str) -> None:
    """Write a sequence as two lines: "bound seed length", then the offsets."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{seq.certified_bound} {seq.seed} {seq.length}\n")
        fh.write(" ".join(map(str, seq.offsets)) + "\n")

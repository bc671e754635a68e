"""Latency-aware redundant-link placement for broker meshes.

``build_broker_mesh`` turns the tree overlay into a mesh by adding
chords.  Where a chord lands decides what it buys: every tree edge on
the cycle a chord closes becomes survivable (the overlay stays connected
if that edge dies), so a chord "protects" exactly the tree edges on the
tree path between its endpoints.  Uniform-random chords — the original
policy, kept as the ``placement="random"`` ablation — routinely burn
their budget on short cycles that re-protect the same few edges while
leaving long latency detours.

:func:`plan_extra_links` spends the same budget greedily: each step adds
the chord protecting the most not-yet-protected tree edges, among
candidates whose direct latency stays within ``STRETCH_BOUND`` times the
mean tree-link latency (a chord from Scotland to Australia protects a
lot of edges, but every message re-routed over it pays its length).
Delays come from the latency model's jitter-free ``typical_s`` estimate,
so the plan is a pure function of broker positions — same positions,
same plan.

The module also carries the graph metrics the E5 placement phase
reports: remaining :func:`bridges` (tree edges no chord protects — each
one a single point of partition) and :func:`detour_stretch` (how much
longer the best detour around a protected edge is than the edge it
replaces).
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.geo import Position
    from repro.net.latency import LatencyModel

# Chord planning prices links by payload-sized messages, not heartbeats.
PLAN_MESSAGE_BYTES = 256
# A chord may be at most this many mean tree-link delays long.
STRETCH_BOUND = 3.0


def typical_delay(
    latency: "LatencyModel", a: "Position", b: "Position",
    size_bytes: int = PLAN_MESSAGE_BYTES,
) -> float:
    """Deterministic delay estimate between two positions.

    Prefers the model's jitter-free ``typical_s``; models without one
    are sampled with a fixed-seed rng so planning stays deterministic.
    """
    typical = getattr(latency, "typical_s", None)
    if typical is not None:
        return typical(a, b, size_bytes)
    return latency.delay(a, b, size_bytes, random.Random(0))


def tree_paths(
    count: int, tree_edges: list[tuple[int, int]]
) -> dict[tuple[int, int], frozenset]:
    """Tree-path edge sets for every node pair, keyed ``(i, j)`` with
    ``i < j``; each edge is a ``frozenset({u, v})``."""
    adjacency: dict[int, list[int]] = {i: [] for i in range(count)}
    for u, v in tree_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    paths: dict[tuple[int, int], frozenset] = {}
    for root in range(count):
        # BFS from root, recording each node's path-from-root edge set.
        seen: dict[int, frozenset] = {root: frozenset()}
        queue = [root]
        while queue:
            node = queue.pop(0)
            for neighbour in adjacency[node]:
                if neighbour in seen:
                    continue
                seen[neighbour] = seen[node] | {frozenset((node, neighbour))}
                queue.append(neighbour)
        for node, edges in seen.items():
            if root < node:
                paths[(root, node)] = edges
    return paths


def plan_extra_links(
    positions: "list[Position]",
    tree_edges: list[tuple[int, int]],
    count: int,
    latency: "LatencyModel",
) -> list[tuple[int, int]]:
    """Choose ``count`` chords for the tree, greedily and deterministically.

    Each step picks the candidate (non-adjacent pair) protecting the
    most not-yet-protected tree edges, restricted to chords whose direct
    typical delay is at most ``STRETCH_BOUND`` times the mean tree-link
    delay; ties break toward the lower-latency chord, then the lower
    pair index.  Once every tree edge is protected (or no admissible
    chord protects anything new), remaining budget goes to the shortest
    admissible chords — extra parallel capacity beats none.  If the
    bound admits nothing, it is ignored for that pick rather than
    returning fewer links than asked.
    """
    n = len(positions)
    existing = {frozenset(e) for e in tree_edges}
    paths = tree_paths(n, tree_edges)
    delays = {
        pair: typical_delay(latency, positions[pair[0]], positions[pair[1]])
        for pair in paths
    }
    tree_delays = [delays[(min(u, v), max(u, v))] for u, v in tree_edges]
    mean_link = sum(tree_delays) / len(tree_delays) if tree_delays else 0.0
    budget = STRETCH_BOUND * mean_link
    candidates = [
        pair for pair in sorted(paths) if frozenset(pair) not in existing
    ]
    chosen: list[tuple[int, int]] = []
    covered: set[frozenset] = set()
    while len(chosen) < count and candidates:
        best = None
        best_key = None
        for pair in candidates:
            gain = len(paths[pair] - covered)
            admissible = delays[pair] <= budget
            # Rank: admissible beats not, then protection gain, then
            # shorter chord, then stable pair order.
            key = (admissible, gain, -delays[pair], (-pair[0], -pair[1]))
            if best_key is None or key > best_key:
                best, best_key = pair, key
        chosen.append(best)
        covered |= paths[best]
        candidates.remove(best)
    return chosen


def protected_edges(
    chords: list[tuple[int, int]],
    paths: dict[tuple[int, int], frozenset],
) -> set[frozenset]:
    """Tree edges survivable under the given chords (union of their
    closed cycles' tree segments)."""
    covered: set[frozenset] = set()
    for i, j in chords:
        covered |= paths[(min(i, j), max(i, j))]
    return covered


def bridges(count: int, edges: list[tuple[int, int]]) -> set[frozenset]:
    """Bridge edges of the graph — each one a single point of partition.

    Iterative Tarjan low-link; an edge is a bridge iff no other path
    connects its endpoints, i.e. the mesh still partitions if it dies.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(count)}
    for index, (u, v) in enumerate(edges):
        adjacency[u].append((v, index))
        adjacency[v].append((u, index))
    visited: dict[int, int] = {}
    low: dict[int, int] = {}
    result: set[frozenset] = set()
    counter = 0
    for start in range(count):
        if start in visited:
            continue
        stack: list[tuple[int, int, int]] = [(start, -1, 0)]
        while stack:
            node, via_edge, child_at = stack[-1]
            if child_at == 0:
                visited[node] = low[node] = counter
                counter += 1
            if child_at < len(adjacency[node]):
                stack[-1] = (node, via_edge, child_at + 1)
                neighbour, edge_index = adjacency[node][child_at]
                if edge_index == via_edge:
                    continue
                if neighbour in visited:
                    low[node] = min(low[node], visited[neighbour])
                else:
                    stack.append((neighbour, edge_index, 0))
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > visited[parent]:
                        result.add(frozenset((parent, node)))
    return result


def detour_stretch(
    positions: "list[Position]",
    edges: list[tuple[int, int]],
    latency: "LatencyModel",
) -> dict[frozenset, float]:
    """Per-edge latency stretch of the best detour around that edge.

    For each non-bridge edge ``{u, v}``: shortest-path delay from ``u``
    to ``v`` with the edge removed, divided by the direct edge delay —
    the factor traffic pays while the self-healing overlay routes around
    the kill.  Bridge edges (no detour exists) are omitted.
    """
    n = len(positions)
    weights = {
        frozenset((u, v)): typical_delay(latency, positions[u], positions[v])
        for u, v in edges
    }
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    stretches: dict[frozenset, float] = {}
    for u, v in edges:
        removed = frozenset((u, v))
        # Dijkstra from u to v, skipping the removed edge.
        dist = {u: 0.0}
        heap = [(0.0, u)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == v:
                break
            if d > dist.get(node, float("inf")):
                continue
            for neighbour in adjacency[node]:
                edge = frozenset((node, neighbour))
                if edge == removed:
                    continue
                nd = d + weights[edge]
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
        if v in dist:
            stretches[removed] = dist[v] / max(weights[removed], 1e-12)
    return stretches

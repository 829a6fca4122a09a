"""Gossip overlay topology.

The Internet Computer's peer-to-peer layer connects each node to a bounded
set of peers.  We model the overlay as a random d-regular connected graph
(via networkx, seeded for determinism).  The overlay determines which pairs
of parties exchange gossip traffic; the underlying latency of each overlay
link still comes from the simulator's delay model.  networkx is imported
inside the two functions, so only a run that builds an overlay (ICC1) loads
it.
"""

from __future__ import annotations


def build_overlay(n: int, degree: int, seed: int = 0) -> dict[int, list[int]]:
    """Adjacency lists (party index -> sorted neighbours) for n parties.

    Falls back to a complete graph when n is too small for the requested
    degree.  Regenerates until connected (random regular graphs are almost
    always connected for d >= 3, so this terminates immediately in
    practice).
    """
    import networkx as nx

    if n < 2:
        return {1: []} if n == 1 else {}
    d = min(degree, n - 1)
    if d >= n - 1:
        return {i: [j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)}
    if (n * d) % 2 == 1:
        d += 1  # regular graphs need an even degree sum
        if d >= n - 1:
            return {i: [j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)}
    for attempt in range(100):
        graph = nx.random_regular_graph(d, n, seed=seed + attempt)
        if nx.is_connected(graph):
            # networkx labels 0..n-1; shift to 1-based party indices.
            return {
                node + 1: sorted(neighbor + 1 for neighbor in graph.neighbors(node))
                for node in graph.nodes
            }
    raise RuntimeError(f"could not build a connected {d}-regular overlay for n={n}")


def overlay_diameter(adjacency: dict[int, list[int]]) -> int:
    """Diameter of the overlay — bounds gossip propagation hops."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    for node, neighbors in adjacency.items():
        graph.add_edges_from((node, other) for other in neighbors)
    return nx.diameter(graph)

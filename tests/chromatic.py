"""Exact chromatic number at desk scale: the test oracle for colourings.

`exact_chromatic` brackets the answer between a greedy clique and the
greedy colouring along the reverse degeneracy order, then tries every
palette size in between with `_k_colorable`'s backtracking.  It refuses
graphs above `vertex_cap` vertices.  test_graph.py, test_closure.py and
test_acceptance.py use it to build homomorphisms into complete graphs.
"""

from __future__ import annotations

from typing import Optional

from oddwalk.errors import RefusalError
from oddwalk.graph import Graph, degeneracy_order, greedy_coloring


def _greedy_clique(g: Graph) -> list[int]:
    """Greedy clique from the highest-degree vertex; a cheap lower bound."""
    if g.n == 0:
        return []
    best: list[int] = []
    for seed in sorted(range(g.n), key=lambda v: -g.degree(v))[: min(g.n, 8)]:
        clique = [seed]
        candidates = set(g.adj[seed])
        while candidates:
            v = min(candidates, key=lambda u: (-len(candidates & g.adj[u]), u))
            clique.append(v)
            candidates &= g.adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _k_colorable(g: Graph, k: int) -> Optional[dict[int, int]]:
    """Backtracking k-colorability with symmetry breaking on new colors."""
    order = degeneracy_order(g)[0][::-1]
    assignment: dict[int, int] = {}

    def backtrack(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {assignment[w] for w in g.adj[v] if w in assignment}
        limit = min(k, used + 1)
        for c in range(limit):
            if c in forbidden:
                continue
            assignment[v] = c
            if backtrack(i + 1, max(used, c + 1)):
                return True
            del assignment[v]
        return False

    return dict(assignment) if backtrack(0, 0) else None


def exact_chromatic(g: Graph, vertex_cap: int = 30) -> int:
    """Exact chromatic number via branch and bound, refused above vertex_cap."""
    if g.n > vertex_cap:
        raise RefusalError(
            f"graph has {g.n} > {vertex_cap} vertices; use degeneracy/clique bounds instead"
        )
    if g.n == 0:
        return 0
    if not g.num_edges():
        return 1
    order, degen = degeneracy_order(g)
    upper = greedy_coloring(g, order[::-1]).colors_used()
    lower = max(2, len(_greedy_clique(g)))
    for k in range(lower, upper):
        if _k_colorable(g, k) is not None:
            return k
    return upper

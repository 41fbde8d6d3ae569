"""Undirected simple graphs on dense integer vertex ids, plus the parity,
girth, degeneracy and small-scale chromatic utilities the rest of the
library is built on.

Vertices are 0..n-1.  Edges are always handled in canonical form
(min, max); `canon_edge` is the single place that normalization happens.
All graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParseError, RefusalError

INFINITE = math.inf


def canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph.

    `adj` is a tuple of frozensets; `edges` is the sorted tuple of canonical
    edges.  No self-loops, no parallel edges, adjacency is symmetric.
    """

    __slots__ = ("n", "adj", "edges", "_c4_partition")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add(canon_edge(u, v))
        self.n = n
        self.edges = tuple(sorted(seen))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)
        self._c4_partition = None  # closure.c4_partition's result, built on first use

    @classmethod
    def from_sorted_unique(cls, n: int, edges) -> "Graph":
        """Bulk constructor for edges already canonical, sorted, deduplicated
        and range-checked (sample builders); skips per-edge validation."""
        g = cls.__new__(cls)
        g.n = n
        g.edges = tuple(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        g.adj = tuple(frozenset(s) for s in adj)
        g._c4_partition = None
        return g

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def sorted_neighbors(self, v: int) -> list[int]:
        return sorted(self.adj[v])

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adj[u]

    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def subgraph_on_edges(self, edge_set: Iterable[tuple[int, int]]) -> "Graph":
        """Spanning subgraph keeping only the given edges (same vertex ids)."""
        return Graph(self.n, [canon_edge(*e) for e in edge_set])


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Optional first data line "n <count>" declares the vertex count (allowing
    isolated vertices); otherwise it is 1 + the largest id seen.  One edge
    per line as "u v".  Lines starting with "#" and blank lines are ignored.
    Duplicate edges collapse; self-loops are rejected.
    """
    declared_n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_data and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            saw_data = True
            continue
        saw_data = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.append(canon_edge(u, v))
        max_id = max(max_id, u, v)
    n = max_id + 1 if declared_n is None else declared_n
    if declared_n is not None and max_id >= declared_n:
        raise ParseError(f"vertex id {max_id} exceeds declared count {declared_n}")
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; emits the header and lexicographically sorted edges."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


@dataclass
class Coloring:
    """Partial or total vertex coloring with an explicit palette size."""

    assignment: dict[int, int]
    palette_size: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not (0 <= c < self.palette_size):
                raise InputError(f"color {c} of vertex {v} outside palette [0, {self.palette_size})")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def is_proper(self, g: Graph, require_total: bool = True) -> bool:
        if require_total and len(self.assignment) < g.n:
            return False
        a = self.assignment
        for u, v in g.edges:
            if u in a and v in a and a[u] == a[v]:
                return False
        return True


# ---------------------------------------------------------------------------
# parity / girth


def is_bipartite(g: Graph) -> tuple[bool, object]:
    """Two-color the graph if possible.

    Returns (True, side map) with a proper 2-coloring, or (False, walk) where
    the walk is a closed odd walk witnessing non-bipartiteness.
    """
    side: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.sorted_neighbors(u):
                if w not in side:
                    side[w] = 1 - side[u]
                    parent[w] = u
                    queue.append(w)
                elif side[w] == side[u]:
                    return (False, _odd_closed_walk(parent, u, w))
    return (True, side)


def _odd_closed_walk(parent, u, w):
    """Closed odd walk u..lca..w..u through the conflict edge (u, w)."""
    up, wp = [u], [w]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    while parent[wp[-1]] is not None:
        wp.append(parent[wp[-1]])
    # drop the shared part strictly above the lowest common ancestor
    while len(up) >= 2 and len(wp) >= 2 and up[-2] == wp[-2]:
        up.pop()
        wp.pop()
    # u -> lca (up as-is), lca -> w (wp reversed, lca dropped), then edge w-u
    walk = up + wp[-2::-1] + [u]
    assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 1
    return walk


def double_cover_odd_walk(g: Graph, v: int) -> Optional[list[int]]:
    """Shortest odd closed walk through v, via BFS in the bipartite double cover.

    Returns the walk as a vertex list (v ... v) or None if no odd closed walk
    passes through v.
    """
    start = (v, 0)
    dist = {start: 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    queue = deque([start])
    target = (v, 1)
    while queue:
        (u, p) = queue.popleft()
        if (u, p) == target:
            break
        for w in g.sorted_neighbors(u):
            nxt = (w, 1 - p)
            if nxt not in dist:
                dist[nxt] = dist[(u, p)] + 1
                parent[nxt] = (u, p)
                queue.append(nxt)
    if target not in dist:
        return None
    walk = []
    cur = target
    while cur != start:
        walk.append(cur[0])
        cur = parent[cur]
    walk.append(v)
    return walk[::-1]


def odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; INFINITE when bipartite.

    Shortest odd closed walks never repeat vertices, so the double-cover
    distance from (v, 0) to (v, 1), minimized over v, is the odd girth.
    """
    best = INFINITE
    for v in range(g.n):
        walk = double_cover_odd_walk(g, v)
        if walk is not None:
            best = min(best, len(walk) - 1)
    return best


def shortest_odd_cycle(g: Graph) -> Optional[list[int]]:
    """A shortest odd cycle as a closed vertex list, or None if bipartite."""
    best: Optional[list[int]] = None
    for v in range(g.n):
        walk = double_cover_odd_walk(g, v)
        if walk is not None and (best is None or len(walk) < len(best)):
            best = walk
    if best is None:
        return None
    assert len(set(best[:-1])) == len(best) - 1, "shortest odd closed walk must be a cycle"
    return best


# ---------------------------------------------------------------------------
# fixed-length cycle search

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


@dataclass
class CycleSearch:
    status: str
    witness: Optional[list[int]] = None  # closed vertex list, length k+1
    expansions: int = 0


def has_cycle_of_length(g: Graph, k: int, budget: int = 10**7) -> CycleSearch:
    """Search for a simple cycle with exactly k vertices.

    Exhaustive DFS anchored at the smallest cycle vertex, pruned by BFS
    distance back to the anchor.  `budget` caps node expansions; exceeding
    it yields UNKNOWN rather than a wrong NO.
    """
    if k < 3:
        raise InputError("cycle length must be at least 3")
    expansions = 0
    for s in range(g.n):
        # distances from s, for pruning
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        path = [s]
        on_path = {s}

        def dfs(u: int, remaining: int) -> Optional[list[int]]:
            nonlocal expansions
            expansions += 1
            if expansions > budget:
                raise _BudgetExceeded
            if remaining == 0:
                return path + [s] if s in g.adj[u] else None
            for w in g.sorted_neighbors(u):
                if w <= s or w in on_path:
                    continue
                if dist.get(w, k + 1) > remaining:
                    continue
                path.append(w)
                on_path.add(w)
                found = dfs(w, remaining - 1)
                if found is not None:
                    return found
                path.pop()
                on_path.remove(w)
            return None

        try:
            found = dfs(s, k - 1)
        except _BudgetExceeded:
            return CycleSearch(UNKNOWN, None, expansions)
        if found is not None:
            return CycleSearch(YES, found, expansions)
    return CycleSearch(NO, None, expansions)


class _BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# BFS layers / degeneracy


def bfs_layers(g: Graph, v: int) -> list[set[int]]:
    """Partition of v's component by BFS distance; layer 0 is {v}."""
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    dist = {v: 0}
    layers = [{v}]
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                if dist[w] == len(layers):
                    layers.append(set())
                layers[dist[w]].add(w)
                queue.append(w)
    return layers


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal (ties to the smallest id).

    Returns (removal order, degeneracy).  Greedy coloring along the reversed
    order uses at most degeneracy + 1 colors.
    """
    deg = {v: g.degree(v) for v in range(g.n)}
    removed: set[int] = set()
    order: list[int] = []
    degeneracy = 0
    for _ in range(g.n):
        v = min((u for u in deg if u not in removed), key=lambda u: (deg[u], u))
        degeneracy = max(degeneracy, deg[v])
        order.append(v)
        removed.add(v)
        for w in g.adj[v]:
            if w not in removed:
                deg[w] -= 1
    return order, degeneracy


def greedy_coloring(g: Graph, order: Sequence[int], palette_size: Optional[int] = None) -> Coloring:
    """First-fit coloring along `order` (which may cover a vertex subset)."""
    assignment: dict[int, int] = {}
    top = 0
    subset = set(order)
    for v in order:
        used = {assignment[w] for w in g.adj[v] if w in assignment and w in subset}
        c = 0
        while c in used:
            c += 1
        assignment[v] = c
        top = max(top, c + 1)
    return Coloring(assignment, palette_size if palette_size is not None else max(top, 1))


def connected_components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# exact chromatic number at desk scale


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
    if not g.edges:
        return 1
    order, degen = degeneracy_order(g)
    upper = greedy_coloring(g, order[::-1]).colors_used()
    lower = max(2, len(_greedy_clique(g)))
    for k in range(lower, upper):
        if _k_colorable(g, k) is not None:
            return k
    return upper

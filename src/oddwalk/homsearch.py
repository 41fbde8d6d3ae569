"""Homomorphism existence by constraint search, and quotient hunting by
repeated identification of non-adjacent vertices.

The backtracker is exact: NONE is only reported after exhausting the
search space, TIMEOUT whenever the node budget runs out first.  The fold
search is deliberately incomplete (beam search), so its result is an upper
bound on the smallest admissible quotient, never a lower bound.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .closure import GraphHom
from .errors import InputError
from .graph import NO, UNKNOWN, YES, Graph, csr_from_darts, csr_rows, has_cycle_of_length
from .rng import Stream, derive_seed
from .traverse import simple_path_dfs

FOUND = "FOUND"
NONE = "NONE"
TIMEOUT = "TIMEOUT"


@dataclass
class HomSearchResult:
    status: str
    hom: Optional[GraphHom] = None
    nodes: int = 0
    seconds: float = 0.0


def hom_exists(g: Graph, h: Graph, node_budget: int = 10**6) -> HomSearchResult:
    """Backtracking search for a homomorphism g -> h.

    Values are tried by descending target degree; the next variable is the
    one with the smallest remaining domain, ties to the smallest id;
    assigning a vertex prunes its neighbors' domains to the image's
    neighborhood (forward checking).
    Each stack frame holds a variable, its untried values and the domains
    its current value trimmed.
    """
    start = time.perf_counter()
    if g.n == 0:
        return HomSearchResult(FOUND, GraphHom(g, h, ()), 0, time.perf_counter() - start)
    if h.n == 0:
        return HomSearchResult(NONE, None, 0, time.perf_counter() - start)
    value_order = sorted(range(h.n), key=lambda x: (-h.degree(x), x))
    domains: dict[int, list[int]] = {v: list(value_order) for v in range(g.n)}
    assignment: dict[int, int] = {}
    nodes = 0
    # lazy min-heap of (domain size, vertex), sorted and so a heap to start
    # with: an entry is current while its vertex is unassigned with that
    # domain size, and every change of either pushes a current entry
    queue = [(h.n, v) for v in range(g.n)]

    def select() -> int:
        while True:
            size, v = queue[0]
            if v not in assignment and len(domains[v]) == size:
                return v
            heapq.heappop(queue)

    def set_domain(w: int, values: list[int]) -> None:
        domains[w] = values
        heapq.heappush(queue, (len(values), w))

    def forward_check(v: int, x: int, trimmed: list) -> bool:
        for w in g.adj[v]:
            if w in assignment:
                if not h.has_edge(x, assignment[w]):
                    return False
                continue
            allowed = [y for y in domains[w] if h.has_edge(x, y)]
            if not allowed:
                return False
            trimmed.append((w, domains[w]))
            set_domain(w, allowed)
        return True

    stack: list[tuple[int, Iterator[int], list[tuple[int, list[int]]]]] = []
    outcome: Optional[bool] = False
    descend = True
    while True:
        if descend:
            if len(assignment) == g.n:
                outcome = True
                break
            v = select()
            stack.append((v, iter(list(domains[v])), []))
        if not stack:
            break
        v, values, trimmed = stack[-1]
        if v in assignment:  # retract the value tried last
            for w, old in trimmed:
                set_domain(w, old)
            trimmed.clear()
            del assignment[v]
            heapq.heappush(queue, (len(domains[v]), v))
        x = next(values, None)
        if x is None:
            stack.pop()
            descend = False
            continue
        nodes += 1
        if nodes > node_budget:
            outcome = None  # budget exhausted
            break
        assignment[v] = x
        descend = forward_check(v, x, trimmed)
    elapsed = time.perf_counter() - start
    if outcome is None:
        return HomSearchResult(TIMEOUT, None, nodes, elapsed)
    if not outcome:
        return HomSearchResult(NONE, None, nodes, elapsed)
    phi = GraphHom(g, h, tuple(assignment[v] for v in range(g.n)))
    return HomSearchResult(FOUND, phi, nodes, elapsed)


# ---------------------------------------------------------------------------
# fold search


@dataclass
class FoldStep:
    kept: int      # quotient label that absorbed the other vertex
    merged: int    # quotient label removed (labels > merged shift down by 1)
    check_log: dict


@dataclass
class FoldTrace:
    steps: list[FoldStep]
    final_graph: Graph
    mapping: tuple[int, ...]  # original vertex -> final quotient vertex

    def describe(self) -> dict:
        return {
            "merges": [[s.kept, s.merged] for s in self.steps],
            "final_vertices": self.final_graph.n,
            "final_edges": [list(e) for e in self.final_graph.edges],
            "check_log": [s.check_log for s in self.steps],
        }


def _merge(g: Graph, keep: int, drop: int) -> tuple[Graph, np.ndarray]:
    """Identify two non-adjacent vertices; labels above `drop` shift down.

    Both ends of every edge are relabelled, and the CSR build drops the
    duplicates that the common neighbours of keep and drop leave.  Returns
    the quotient and the label of every vertex of g in it.
    """
    label = np.arange(g.n)
    label[drop] = keep
    label -= label > drop
    tails = label[csr_rows(g.indptr)]
    merged = csr_from_darts(g.n - 1, tails, label[g.indices])
    return Graph.from_sorted_unique(g.n - 1, *merged), label


def _ranked_pairs(g: Graph, stream: Stream, cap: int) -> list[tuple[int, int]]:
    """The first `cap` non-adjacent pairs u < v by descending codegree
    |N(u) & N(v)|, ties broken by one stream draw per pair.

    Pairs are listed by u, then v, and each draws from the stream in that
    order.  The codegrees are one float32 product of the adjacency matrix,
    exact below 2**24 vertices.  Only the pairs at or above the cap-th
    largest codegree can rank, so only their draws are computed, and one
    stable `np.lexsort` orders them.
    """
    n = g.n
    adjacency = np.zeros((n, n), dtype=np.float32)
    adjacency[csr_rows(g.indptr), g.indices] = 1
    pairs = np.flatnonzero(np.triu(adjacency == 0, 1))  # u * n + v, ascending
    codegree = (adjacency @ adjacency).ravel()[pairs]
    if 0 < cap < len(pairs):
        floor = np.partition(codegree, len(pairs) - cap)[len(pairs) - cap]
        ranked = np.flatnonzero(codegree >= floor)
    else:
        ranked = np.arange(len(pairs))
    draws = stream.next_u64s(len(pairs), at=ranked)
    ranked = ranked[np.lexsort((draws, -codegree[ranked]))[:cap]]
    us, vs = np.divmod(pairs[ranked], max(n, 1))
    return list(zip(us.tolist(), vs.tolist()))


def fold_search(
    g: Graph,
    forbidden_odd_lengths: set[int],
    beam: int = 4,
    budget: int = 10**6,
    seed: int = 0,
    candidate_cap: int = 64,
) -> FoldTrace:
    """Beam search for a small quotient avoiding the forbidden cycle lengths.

    A merge of two non-adjacent vertices is admissible when every forbidden
    length gets a clean NO from a budgeted cycle search through the merged
    vertex (UNKNOWN counts as inadmissible, keeping claimed quotients
    honest).  Each search is `simple_path_dfs` without `prune`, whose
    last two layers are counted in closed form; it gets a quarter of the
    budget left (at least 1,000 expansions), and what it spends decides
    which merges get tried.  Candidate pairs come from `_ranked_pairs`:
    shared neighbourhood size first, one seeded stream draw per
    non-adjacent pair breaking ties, `candidate_cap` per state.
    """
    if beam < 1:
        raise InputError("beam must be at least 1")
    for length in sorted(forbidden_odd_lengths):
        if length % 2 == 0 or length < 3:
            raise InputError("forbidden lengths must be odd and at least 3")
        check = has_cycle_of_length(g, length, budget=10**7)
        if check.status == YES:
            raise InputError(f"input already contains a {length}-cycle")
        if check.status == UNKNOWN:
            raise InputError(f"could not certify the input {length}-cycle-free")

    stream = Stream(derive_seed(seed, "fold"))
    spent = 0

    def admissible(candidate: Graph, merged_vertex: int):
        nonlocal spent
        log = {}
        for length in sorted(forbidden_odd_lengths):
            # a simple cycle of exactly `length` through the merged vertex; no
            # distance pruning, since its expansions are spent from the fold's
            # budget and decide which merges get tried
            share = max(1000, (budget - spent) // 4)
            status, _, used = simple_path_dfs(
                candidate, merged_vertex, length - 1, merged_vertex, budget=share
            )
            spent += used
            log[str(length)] = status
            if status != NO:
                return False, log
        return True, log

    # beam state: (graph, mapping original->current, steps)
    initial = (g, tuple(range(g.n)), [])
    level = [initial]
    best = initial
    while level and spent < budget:
        next_level = []
        for graph, mapping, steps in level:
            scored = _ranked_pairs(graph, stream, candidate_cap)
            for u, v in scored:
                if spent >= budget:
                    break
                candidate, label = _merge(graph, u, v)
                ok, log = admissible(candidate, u)
                if not ok:
                    continue
                new_mapping = tuple(label[list(mapping)].tolist())
                next_level.append((candidate, new_mapping, steps + [FoldStep(u, v, log)]))
        next_level.sort(key=lambda e: (e[0].n, e[0].num_edges()))
        level = next_level[:beam]
        if level and level[0][0].n < best[0].n:
            best = level[0]
    graph, mapping, steps = best
    GraphHom(g, graph, mapping)  # raises unless the quotient map is a homomorphism
    return FoldTrace(steps, graph, mapping)

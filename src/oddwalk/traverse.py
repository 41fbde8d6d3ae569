"""The graph-search kernels every traversal in oddwalk goes through:
breadth-first search over any successor function, a depth-bounded layered
breadth-first search for odd closed walks, a budgeted simple-path
depth-first search with an explicit stack, and a bidirectional
meet-in-the-middle search over move-reachable states.

All of them are iterative, so input size never turns into recursion depth,
and deterministic: states are discovered in the order the successor
function yields them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


def bfs(sources: Iterable, successors: Callable, goal=None) -> dict:
    """Breadth-first search from `sources`, in their order.

    Returns the parent map in discovery order: sources map to None, every
    other reached state to the state it was discovered from.  With a goal,
    the search stops as soon as the goal is discovered.
    """
    parent = dict.fromkeys(sources)
    if goal in parent:
        return parent
    queue = deque(parent)
    while queue:
        u = queue.popleft()
        for w in successors(u):
            if w not in parent:
                parent[w] = u
                if w == goal:
                    return parent
                queue.append(w)
    return parent


def path_to_root(parent: dict, state) -> list:
    """States from `state` back to the source it was reached from."""
    path = [state]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def depths(parent: dict) -> dict:
    """Distance from the nearest source of every state of a `bfs` parent map."""
    dist: dict = {}
    for state, prev in parent.items():
        dist[state] = 0 if prev is None else dist[prev] + 1
    return dist


def odd_closed_walk_length(nbrs, root: int, bound: float) -> Optional[int]:
    """Length of a shortest odd closed walk through `root`, if below `bound`.

    `nbrs[u]` holds u's neighbours.  If k is the first BFS layer from
    `root` that contains an edge, the answer is 2k + 1.  Returns None
    when no layer before the first with 2k + 1 >= `bound` has an inner
    edge, or when the component runs out first.  Layer k is checked for
    inner edges in the same pass that discovers layer k + 1.
    """
    seen = {root}
    layer = [root]
    k = 0
    while layer and 2 * k + 1 < bound:
        reached = set()
        for u in layer:
            reached.update(nbrs[u])
        if not reached.isdisjoint(layer):
            return 2 * k + 1
        layer = reached - seen
        seen |= layer
        k += 1
    return None


def simple_path_dfs(
    g,
    start: int,
    steps: int,
    end: int,
    budget: float = math.inf,
    lowest: int = 0,
    blocked: Optional[int] = None,
    dist: Optional[dict] = None,
) -> tuple[str, Optional[list[int]], int]:
    """Depth-first search for a simple path start, v1, ..., v_steps
    (steps >= 1) whose last vertex is adjacent to `end`.

    Neighbours are tried in sorted order, so the first path found is the
    lexicographically smallest.  Vertices below `lowest`, the `blocked`
    vertex and vertices already on the path are never entered.  With
    `dist` (graph distances to `end`), a vertex entered with r vertices
    still to add is kept only when its distance to `end` is at most r + 1.
    Every vertex entered, the start included, is one expansion; the search
    gives up once expansions exceed `budget`.

    The deepest layers are counted, not walked: with `dist` the last one
    (`_pruned_last_layer`), without it the last two (`_counted_last_layers`).
    Each count is what entering those vertices one by one would charge, up
    to and including the vertex that closes the first path.  Without
    `dist`, a path ending at u with two vertices left charges, when no path
    closes below u, |C| + sum_{w in C} d(w) - sum_{p} |N(p) & C| in closed
    form, where C is the set of neighbours of u that may be entered, d(w)
    counts w's neighbours >= `lowest`, and p runs over the vertices >=
    `lowest` on the path or blocked.  A count that passes the budget ends the search where
    the walk would have, at floor(budget) + 1 expansions.

    Returns (YES, path, expansions), (NO, None, expansions) after an
    exhaustive search, or (UNKNOWN, None, expansions) over budget.
    """
    expansions = 1
    if expansions > budget:
        return UNKNOWN, None, expansions
    path = [start]
    on_path = {start}
    if blocked is not None:
        on_path.add(blocked)
    if dist is None:
        counted, count = 2, _counted_last_layers(g, steps, end, lowest, on_path)
        indices, bounds = g.indices, g.indptr.tolist()

        def nbrs(v: int) -> list[int]:
            return indices[bounds[v] : bounds[v + 1]].tolist()
    else:
        counted, count = 1, _pruned_last_layer(g, end, lowest, on_path)
        nbrs = g.sorted_adj.__getitem__

    def finish():
        """Charge the counted layers below the end of the path.  Returns the
        finished result, or None when no path closes."""
        nonlocal expansions
        charged, rest = count(path)
        expansions += charged
        if expansions > budget:  # stop where entering one by one would have
            return UNKNOWN, None, math.floor(budget) + 1
        return (YES, path + rest, expansions) if rest else None

    if steps <= counted:
        return finish() or (NO, None, expansions)
    stack = [iter(nbrs(start))]
    while stack:
        remaining = steps - len(stack) + 1  # vertices left to add, this one included
        for w in stack[-1]:
            if w < lowest or w in on_path or (dist is not None and dist[w] > remaining):
                continue
            expansions += 1
            if expansions > budget:
                return UNKNOWN, None, expansions
            path.append(w)
            if remaining == counted + 1:
                found = finish()
                if found:
                    return found
                path.pop()
                continue
            on_path.add(w)
            stack.append(iter(nbrs(w)))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return NO, None, expansions


def _pruned_last_layer(g, end: int, lowest: int, on_path: set) -> Callable:
    """The last-layer count of the search with distances to `end`, once
    the path holds `steps` vertices.

    The vertices that could be entered last are the neighbours of the
    path's end vertex that pass the filters and lie within distance 1 of
    `end`: `end` itself and N(end).  The first of them in sorted order
    that lies in N(end) is the hit.  The count is the candidates up to and
    including the hit, or all of them when there is none.  `on_path` is
    the search's live set.
    """
    adj = g.adj
    closers = {w for w in adj[end] if w >= lowest} - on_path

    def count(path: list) -> tuple[int, Optional[list]]:
        v = path[-1]
        hits = closers & adj[v]
        hits.difference_update(path)
        hit = min(hits) if hits else None
        # the only candidate outside N(end) is `end` itself
        early_end = (
            end in adj[v] and end >= lowest and end not in on_path
            and (hit is None or end < hit)
        )
        return (hit is not None) + early_end, None if hit is None else [hit]

    return count


def _counted_last_layers(g, steps: int, end: int, lowest: int, on_path: set) -> Callable:
    """Counts of the last layers of the search without distances, from bit
    rows: the last two, or the last one when steps == 1.

    Bit w of rows[v] is set when w is a neighbour of v.  `taken` is the
    path together with `on_path` as the search starts (the start and the
    blocked vertex), and free = {w >= lowest} minus taken.
    - One vertex left to add after v: the candidates are N(v) & free, and
      the hit is the smallest of them in N(end).  The count is the
      candidates up to and including the hit, or all of them.
    - Two left after u: each w in C = N(u) & free costs one expansion and
      then its own last layer, N(w) & free (u is taken).  When no w in C
      has a neighbour in N(end) & free, no path closes below u, and with
      d(w) = |N(w) & {>= lowest}| the count is
          |C| + sum_{w in C} d(w) - sum_{p in taken, p >= lowest} |N(p) & C|.
      The middle sum is a per-vertex sum of d over N(u) & {>= lowest},
      less d(p) for each taken p in N(u), so the count takes O(|path|)
      word operations.  Only the members of C & reach, where reach is the
      union of the rows of the closing vertices, are tested for such a
      neighbour.  When one has it, u is counted w by w up to the hit; that
      happens at most once per search, which then ends with YES or over
      budget.

    The rows are set from the CSR arrays in numpy: n * n / 8 bytes.
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    tails = np.repeat(np.arange(n), np.diff(indptr))
    width = -(-n // 8)  # bytes per row
    packed = np.bincount(
        tails * width + (indices >> 3), weights=1 << (indices & 7), minlength=n * width
    )
    raw = packed.astype(np.uint8).tobytes()
    rows = [int.from_bytes(raw[v * width : (v + 1) * width], "little") for v in range(n)]
    upper = indices >= lowest
    degree = np.bincount(tails[upper], minlength=n)  # d(v)
    degree_sums = np.bincount(tails[upper], weights=degree[indices[upper]], minlength=n)
    degree, degree_sums = degree.tolist(), degree_sums.astype(np.int64).tolist()
    above = ((1 << n) - 1) >> lowest << lowest
    before = frozenset(on_path)
    reach = 0
    for x in _members(rows[end] & above & ~sum(1 << p for p in before)):
        reach |= rows[x]

    def last(v: int, free: int, goal: int) -> tuple[int, Optional[list]]:
        candidates = rows[v] & free
        hits = candidates & goal
        if not hits:
            return candidates.bit_count(), None
        hit = (hits & -hits).bit_length() - 1
        return (candidates & ((2 << hit) - 1)).bit_count(), [hit]

    def count(path: list) -> tuple[int, Optional[list]]:
        u = path[-1]
        taken = before.union(path)
        free = above & ~sum(1 << p for p in taken)
        goal = rows[end] & free
        if len(path) == steps:
            return last(u, free, goal)
        block = rows[u] & free
        probe = block & reach
        if probe and any(rows[w] & goal for w in _members(probe)):
            charged = 0
            for w in _members(block):
                used, rest = last(w, free, goal)
                charged += 1 + used
                if rest:
                    return charged, [w] + rest
        charged = block.bit_count() + degree_sums[u]
        for p in taken:
            if p >= lowest:
                charged -= (rows[p] & block).bit_count()
                if rows[u] >> p & 1:
                    charged -= degree[p]
        return charged, None

    return count


def _members(bits: int) -> Iterator[int]:
    """The positions of the set bits of `bits`, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def meet_in_the_middle(
    start: Hashable, goal: Hashable, successors: Callable, state_cap: int
) -> tuple[int, Optional[tuple[list, list]]]:
    """Bidirectional breadth-first search between two states.

    `successors(state)` yields (label, next state) pairs.  Each round
    expands the whole frontier of the side with the smaller frontier (the
    start side on ties, never an empty one) and ends the search when a
    newly discovered state is known to the other side.  The search gives
    up once `state_cap` states have been expanded or both sides are
    exhausted.

    Returns (states expanded, chains).  `chains` is None when the search
    gave up; otherwise it is (forward, backward), the (state, label) steps
    from `start` and from `goal` to the meeting state, each in the order
    they were taken.
    """
    if start == goal:
        return 0, ([], [])
    sides = [({start: None}, deque([start])), ({goal: None}, deque([goal]))]
    explored = 0
    while sides[0][1] or sides[1][1]:
        if explored >= state_cap:
            return explored, None
        idx = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        if not sides[idx][1]:
            idx = 1 - idx
        seen, frontier = sides[idx]
        other = sides[1 - idx][0]
        for _ in range(len(frontier)):
            state = frontier.popleft()
            explored += 1
            if explored > state_cap:
                return explored, None
            for label, succ in successors(state):
                if succ in seen:
                    continue
                seen[succ] = (state, label)
                frontier.append(succ)
                if succ in other:
                    return explored, (_steps(sides[0][0], succ), _steps(sides[1][0], succ))
    return explored, None


def _steps(seen: dict, state) -> list:
    """(state before, label) pairs from the side's root to `state`."""
    chain = []
    while seen[state] is not None:
        chain.append(seen[state])
        state = seen[state][0]
    return chain[::-1]

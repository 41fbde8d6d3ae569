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
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Hashable, Iterable, Optional

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

    The last layer is counted, not walked.  Once the path holds `steps`
    vertices, the vertices that could be entered last are the neighbours
    of its end vertex that pass the filters; with `dist` that is those in
    {end} and N(end), the vertices at distance at most 1.  The first of
    them in sorted order that lies in N(end) is the hit.  The search
    charges one expansion per candidate up to the hit, or all of them when
    there is none, exactly as entering them one by one would.

    Returns (YES, path, expansions), (NO, None, expansions) after an
    exhaustive search, or (UNKNOWN, None, expansions) over budget.
    """
    adj, nbrs = g.adj, g.sorted_adj
    expansions = 1
    if expansions > budget:
        return UNKNOWN, None, expansions
    path = [start]
    on_path = {start}
    if blocked is not None:
        on_path.add(blocked)
    # vertices that may be entered last and close the path at `end`
    closers = {w for w in adj[end] if w >= lowest} - on_path

    def close(v: int):
        """Charge the last layer once the path, ending at v, holds `steps`
        vertices.  Returns the finished result, or None when no path closes."""
        nonlocal expansions
        hits = closers & adj[v]
        hits.difference_update(path)
        hit = min(hits) if hits else None
        if dist is not None:
            # the only candidate outside N(end) is `end` itself
            early_end = (
                end in adj[v] and end >= lowest and end not in on_path
                and (hit is None or end < hit)
            )
            expansions += (hit is not None) + early_end
        else:
            row = nbrs[v]
            top = len(row) if hit is None else bisect_right(row, hit)
            window = row[bisect_left(row, lowest) : top]
            expansions += len(window) - len(on_path.intersection(window))
        if expansions > budget:  # stop where entering one by one would have
            return UNKNOWN, None, math.floor(budget) + 1
        if hit is not None:
            return YES, path + [hit], expansions
        return None

    if steps == 1:
        found = close(start)
        return found if found else (NO, None, expansions)
    stack = [iter(nbrs[start])]
    while stack:
        remaining = steps - len(stack) + 1  # vertices left to add after this one
        for w in stack[-1]:
            if w < lowest or w in on_path or (dist is not None and dist[w] > remaining):
                continue
            expansions += 1
            if expansions > budget:
                return UNKNOWN, None, expansions
            path.append(w)
            if remaining == 2:
                found = close(w)
                if found:
                    return found
                path.pop()
                continue
            on_path.add(w)
            stack.append(iter(nbrs[w]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return NO, None, expansions


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

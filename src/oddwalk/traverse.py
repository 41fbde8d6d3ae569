"""The graph-search kernels every traversal in oddwalk goes through:
breadth-first search over any successor function, a budgeted simple-path
depth-first search with an explicit stack, and a bidirectional
meet-in-the-middle search over move-reachable states.  (The odd girth's
layered search runs on bit columns, in `graph.shortest_odd_cycle`.)

All of them are iterative, so input size never turns into recursion depth,
and deterministic: states are discovered in the order the successor
function lists them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Optional

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


def simple_path_dfs(
    g,
    start: int,
    steps: int,
    end: int,
    budget: float = math.inf,
    lowest: int = 0,
    blocked: Optional[int] = None,
    prune: bool = False,
) -> tuple[str, Optional[list[int]], int]:
    """Depth-first search for a simple path start, v1, ..., v_steps
    (steps >= 1) whose last vertex is adjacent to `end`.

    Neighbours are tried in sorted order, so the first path found is the
    lexicographically smallest.  Vertices below `lowest`, the `blocked`
    vertex and vertices already on the path are never entered.  With
    `prune`, a vertex entered with r vertices still to add is kept only
    when its distance to `end` in g is at most r + 1, so a vertex that
    `end` cannot reach is never entered.  Every vertex entered, the start
    included, is one expansion; the search gives up once expansions
    exceed `budget`.

    The search reads the graph's bit rows (`g.bit_rows`: bit w of rows[v]
    is set when w is a neighbour of v) and keeps the set of vertices it may
    still enter as one such int as the path moves.  With `prune` it grows
    the balls around `end` from the same rows, ring by ring: balls[0] is
    end's bit, and balls[j] ORs the rows of the members of ring j - 1
    (balls[j - 1] less balls[j - 2]) into balls[j - 1], for j up to
    max(steps, 2).  A vertex is in balls[j] iff its distance to `end` is
    at most j.

    The layers above the last two are walked, each layer's candidates
    masked with the ball of its distance bound; the last two are counted,
    not walked, at what entering their vertices one by one would charge,
    up to and including the vertex that closes the first path.  The last
    vertex must lie in A1 and the one before it in A2: with `prune`, A1 =
    balls[1] = N[end] and A2 = balls[2] = N[N[end]], otherwise every
    vertex.  Let free be the vertices >= `lowest` that are off the path
    and not blocked.
    - One vertex left to add after v: the candidates are N(v) & free & A1,
      and the hit is the smallest of them in N(end).  The count is the
      candidates up to and including the hit, or all of them.
    - Two left after u: each w in C = N(u) & free & A2 costs one expansion
      and then its own last layer.  When some w in C has a neighbour in
      N(end) & free (only C & reach is tested, reach the union of the rows
      of the closing vertices), u is counted w by w up to the hit.  So is
      a C no larger than the path: its |C| last-layer counts cost no more
      than the closed form's pass over the path.  Otherwise no path
      closes below u, and with d(w) = |N(w) & A1 & {>= lowest}| the count
      is, in closed form,
          |C| + sum_{w in C} d(w) - sum_{p} |N(p) & C|,
      p running over the path and blocked vertices in A1 & {>= lowest}.
      The middle sum is the sum of d over N(u) & A2 & {>= lowest}, less
      d(p) for each such p that is taken, so the count takes O(|path|)
      word operations.  That sum is computed once per u, or, without
      `prune` and with `lowest` 0, read from `g.bit_rows.degree_sums`.
    A count that passes the budget ends the search where the walk would
    have, at floor(budget) + 1 expansions.  Set-up takes O(deg(end)) row
    operations, and with `prune` one more for each vertex within
    max(steps, 2) - 1 of `end`.

    Returns (YES, path, expansions), (NO, None, expansions) after an
    exhaustive search, or (UNKNOWN, None, expansions) over budget.
    """
    expansions = 1
    if expansions > budget:
        return UNKNOWN, None, expansions
    rows = g.bit_rows
    path = [start]
    also_taken = [] if blocked in (None, start) else [blocked]
    high = -1 << lowest  # the vertices >= lowest
    free = high & ~sum(1 << p for p in path + also_taken)  # kept up to date with the path
    closing = rows[end] & high
    reach = 0
    for x in _members(closing & free):
        reach |= rows[x]
    balls = [-1] * (max(steps, 2) + 1)  # balls[j]: the vertices within j of end
    if prune:
        balls[0] = ring = 1 << end
        for j in range(1, len(balls)):
            balls[j] = balls[j - 1]
            for x in _members(ring):
                balls[j] |= rows[x]
            ring = balls[j] & ~balls[j - 1]
    near, nearer = balls[1], balls[2]
    counted = near & high  # d(w) = |N(w) & counted|
    # when every vertex counts, d(w) is w's degree and the sums come with the rows
    degree_sums = rows.degree_sums if counted == nearer == -1 else {}

    def last(v: int, goal: int) -> tuple[int, Optional[list]]:
        candidates = rows[v] & free & near
        hits = candidates & goal
        if not hits:
            return candidates.bit_count(), None
        hit = (hits & -hits).bit_length() - 1
        return (candidates & ((2 << hit) - 1)).bit_count(), [hit]

    def count() -> tuple[int, Optional[list]]:
        u = path[-1]
        goal = closing & free
        if len(path) == steps:
            return last(u, goal)
        block = rows[u] & free & nearer
        probe = block & reach
        # a small block is cheaper to walk than to count in closed form
        if block.bit_count() <= len(path) or probe and any(
            rows[w] & goal for w in _members(probe)
        ):
            charged = 0
            for w in _members(block):
                used, rest = last(w, goal)
                charged += 1 + used
                if rest:
                    return charged, [w] + rest
            return charged, None
        around = rows[u] & nearer & high
        if u not in degree_sums:
            degree_sums[u] = sum([(rows[w] & counted).bit_count() for w in _members(around)])
        charged = block.bit_count() + degree_sums[u]
        for p in path + also_taken:
            if counted >> p & 1:  # off the last layer of every w in C
                charged -= (rows[p] & block).bit_count()
            if around >> p & 1:  # not in C
                charged -= (rows[p] & counted).bit_count()
        return charged, None

    def finish():
        """Charge the counted layers below the end of the path.  Returns the
        finished result, or None when no path closes."""
        nonlocal expansions
        charged, rest = count()
        expansions += charged
        if expansions > budget:  # stop where entering one by one would have
            return UNKNOWN, None, math.floor(budget) + 1
        return (YES, path + rest, expansions) if rest else None

    if steps <= 2:
        return finish() or (NO, None, expansions)
    stack = [_members(rows[start] & free & balls[steps])]
    while stack:
        remaining = steps - len(stack) + 1  # vertices left to add, this one included
        for w in stack[-1]:
            expansions += 1
            if expansions > budget:
                return UNKNOWN, None, expansions
            path.append(w)
            free ^= 1 << w
            if remaining == 3:
                found = finish()
                if found:
                    return found
                path.pop()
                free |= 1 << w
                continue
            stack.append(_members(rows[w] & free & balls[remaining - 1]))
            break
        else:
            stack.pop()
            free |= 1 << path.pop()
    return NO, None, expansions


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

    `successors(state)` returns the list of next states, in a fixed order;
    it may hold repeats and states already seen.  Each round expands the
    whole frontier of the side with the smaller frontier (the start side on
    ties, never an empty one).  An expansion keeps the successors its side
    has not seen, first occurrences in list order, each with the expanded
    state as its parent; the search ends at the first of them the other
    side already holds.  It gives up once `state_cap` states have been
    expanded or both sides are exhausted.  Only parents are stored: a
    caller that needs the move between two states recomputes it from the
    chain.

    Returns (states expanded, chains).  `chains` is None when the search
    gave up; otherwise it is (forward, backward), the states from `start`
    and from `goal` to the meeting state, both ends included.
    """
    if start == goal:
        return 0, ([start], [goal])
    sides = [({start: None}, [start]), ({goal: None}, [goal])]
    explored = 0
    while sides[0][1] or sides[1][1]:
        if explored >= state_cap:
            return explored, None
        idx = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        if not sides[idx][1]:
            idx = 1 - idx
        seen, frontier = sides[idx]
        other = sides[1 - idx][0]
        grown: list = []
        sides[idx] = seen, grown
        for state in frontier:
            explored += 1
            if explored > state_cap:
                return explored, None
            fresh = dict.fromkeys([s for s in successors(state) if s not in seen], state)
            seen.update(fresh)
            grown.extend(fresh)
            if not other.keys().isdisjoint(fresh):
                meet = next(s for s in fresh if s in other)
                return explored, tuple(path_to_root(side[0], meet)[::-1] for side in sides)
    return explored, None


"""Pure-Python reference versions of the traversals `oddwalk.traverse` replaced.

These are the hand-rolled BFS loops, recursive DFSes and bidirectional
searches the library used before its traversal kernels;
test_traverse.py requires the library to agree with them exactly: same
walks, witnesses, statuses, expansion counts, node counts and
states_explored.  The recursive ones are only run on inputs shallow
enough for Python's recursion limit.  `shortest_odd_cycle` is the
n-pass odd-girth search that the depth cut-off replaced.
`odd_closed_walk_length` is the search with that cut-off, one layered
BFS on Python sets per root, that `graph.shortest_odd_cycle` replaced by
searching a block of roots at once on bit columns; the tests check its
per-root lengths against `double_cover_odd_walk`.  `legal_moves` is the
list-building move generator that `are_homotopic` used before its search
ran on vertex tuples.  `degeneracy_order` is the
minimum scan over every remaining vertex that the bucket queue replaced.
`simple_path_dfs` is the budgeted path search that entered every vertex
one by one, the last two layers included, before those layers were
counted from the graph's bit rows (with and without distances), and
`ranked_pairs` the fold search's candidate ranking before it became one
array sort.  `color_closure_subgraph` is the closure colouring that ran one
BFS per cycle vertex and took each vertex's nearest one as the minimum of
(distance, cycle vertex), before one multi-source BFS carried the anchors.
`c4_chain` is the shortest chain of edges through shared 4-cycles over
every bundle that `closure_reference.c4_bundles` lists; the ear chains of
ear_chain.py walk it.  `connected_components` is the one-BFS-per-component
split that `graph.is_connected` counted before it became a single BFS.
"""

import math
from collections import deque
from typing import Optional

from closure_reference import c4_bundles
from oddwalk import graph
from oddwalk.closure import GraphHom, InvariantOracle, c4_partition
from oddwalk.coloring import color_ball, shortest_odd_cycle_meeting
from oddwalk.errors import HypothesisError, ViolationError
from oddwalk.graph import NO, UNKNOWN, YES, Coloring, CycleSearch, canon_edge
from oddwalk.homotopy import (
    DEL,
    HOMOTOPIC,
    INS,
    NOT_HOMOTOPIC,
    SUB,
    HomotopyVerdict,
    Move,
    Walk,
    apply_move,
    inverse_move,
    replay_moves,
)
from oddwalk.homsearch import FOUND, NONE, TIMEOUT
from oddwalk.ncomplex import _edgepath_moves
from oddwalk.traverse import bfs, depths


def connected_components(g):
    seen = set()
    comps = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = set(bfs([v], g.sorted_neighbors))
        seen |= comp
        comps.append(comp)
    return comps


def is_bipartite(g):
    side = {}
    parent = {}
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(g.adj[u]):
                if w not in side:
                    side[w] = 1 - side[u]
                    parent[w] = u
                    queue.append(w)
                elif side[w] == side[u]:
                    return (False, _odd_closed_walk(parent, u, w))
    return (True, side)


def _odd_closed_walk(parent, u, w):
    up, wp = [u], [w]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    while parent[wp[-1]] is not None:
        wp.append(parent[wp[-1]])
    while len(up) >= 2 and len(wp) >= 2 and up[-2] == wp[-2]:
        up.pop()
        wp.pop()
    return up + wp[-2::-1] + [u]


def double_cover_odd_walk(g, v):
    start = (v, 0)
    dist = {start: 0}
    parent = {}
    queue = deque([start])
    target = (v, 1)
    while queue:
        (u, p) = queue.popleft()
        if (u, p) == target:
            break
        for w in sorted(g.adj[u]):
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


def odd_closed_walk_length(nbrs, root, bound):
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


def shortest_odd_cycle(g):
    # one full double-cover BFS per vertex, no depth cut-off; the library's
    # walk is used, which the tests check against double_cover_odd_walk above
    best = None
    for v in range(g.n):
        walk = graph.double_cover_odd_walk(g, v)
        if walk is not None and (best is None or len(walk) < len(best)):
            best = walk
    return best


class _BudgetExceeded(Exception):
    pass


def has_cycle_of_length(g, k, budget=10**7):
    expansions = 0
    for s in range(g.n):
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

        def dfs(u, remaining):
            nonlocal expansions
            expansions += 1
            if expansions > budget:
                raise _BudgetExceeded
            if remaining == 0:
                return path + [s] if s in g.adj[u] else None
            for w in sorted(g.adj[u]):
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


def cycle_through_edge(h, e, length):
    x, y = e
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in h.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    path = [y]
    on_path = {y}

    def dfs(u, remaining):
        if remaining == 0:
            return list(path) if u == x else None
        for w in sorted(h.adj[u]):
            if w in on_path or dist.get(w, length + 1) > remaining:
                continue
            if w == x and remaining != 1:
                continue
            path.append(w)
            on_path.add(w)
            found = dfs(w, remaining - 1)
            if found is not None:
                return found
            path.pop()
            on_path.remove(w)
        return None

    found = dfs(y, length - 1)
    if found is None:
        return None
    return [x] + found


def cycle_through_vertex_status(g, w, length, budget):
    expansions = 0
    path = [w]
    on_path = {w}

    class Budget(Exception):
        pass

    def dfs(u, remaining):
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise Budget
        if remaining == 0:
            return w in g.adj[u]
        for x in sorted(g.adj[u]):
            if x in on_path:
                continue
            path.append(x)
            on_path.add(x)
            if dfs(x, remaining - 1):
                return True
            path.pop()
            on_path.remove(x)
        return False

    try:
        return (YES, expansions) if dfs(w, length - 1) else (NO, expansions)
    except Budget:
        return (UNKNOWN, expansions)


def _bundle_c4(u, w, common, e1, e2):
    """A 4-cycle of the bundle containing both edges (as canonical pairs)."""

    def spoke(e):
        if u in e:
            return (u, e[0] if e[1] == u else e[1])
        return (w, e[0] if e[1] == w else e[1])

    hub1, a = spoke(e1)
    hub2, b = spoke(e2)
    if a != b:
        return (u, a, w, b)
    alt = next(x for x in common if x != a)
    return (u, a, w, alt)


def c4_chain(h, start_edges, goal):
    goal = canon_edge(*goal)
    starts = sorted(canon_edge(*e) for e in start_edges)
    if goal in starts:
        return []
    bundles = c4_bundles(h)
    edge_bundles = {}
    for idx, (u, w, common) in enumerate(bundles):
        for x in common:
            for hub in (u, w):
                edge_bundles.setdefault(canon_edge(hub, x), []).append(idx)
    parent = {e: None for e in starts}
    queue = deque(starts)
    spent = set()
    while queue:
        e = queue.popleft()
        if e == goal:
            break
        for idx in edge_bundles.get(e, []):
            if idx in spent:
                continue
            spent.add(idx)
            u, w, common = bundles[idx]
            members = sorted(
                {canon_edge(u, x) for x in common} | {canon_edge(w, x) for x in common}
            )
            for e2 in members:
                if e2 not in parent:
                    parent[e2] = (e, _bundle_c4(u, w, common, e, e2))
                    queue.append(e2)
    if goal not in parent:
        return None
    chain = []
    cur = goal
    while parent[cur] is not None:
        prev, four = parent[cur]
        chain.append((prev, four, cur))
        cur = prev
    return chain[::-1]


def legal_moves(walk, length_cap):
    """All (move, successor) pairs within the length cap, in sorted order."""
    g = walk.graph
    vs = walk.vertices
    k = walk.length
    out = []
    for i in range(1, k):
        if vs[i - 1] == vs[i + 1]:
            out.append((Move(DEL, i), Walk(g, vs[:i] + vs[i + 2 :])))
        common = g.adj[vs[i - 1]] & g.adj[vs[i + 1]]
        for v in sorted(common):
            if v != vs[i]:
                out.append((Move(SUB, i, v), Walk(g, vs[:i] + (v,) + vs[i + 1 :])))
    if k + 2 <= length_cap:
        for i in range(k + 1):
            for w in g.sorted_neighbors(vs[i]):
                out.append((Move(INS, i, w), Walk(g, vs[: i + 1] + (w, vs[i]) + vs[i + 1 :])))
    return out


def are_homotopic(g, p, q, length_cap=None, state_cap=10**6):
    if length_cap is None:
        length_cap = max(p.length, q.length) + 6
    if (p.start, p.end) != (q.start, q.end):
        return HomotopyVerdict(NOT_HOMOTOPIC, separator="endpoints differ")
    if p.parity() != q.parity():
        return HomotopyVerdict(NOT_HOMOTOPIC, separator="parity differs")
    oracle = InvariantOracle(GraphHom.identity(g))
    spec = oracle.separating_spec(p.edge_multiset(), q.edge_multiset())
    if spec is not None:
        return HomotopyVerdict(NOT_HOMOTOPIC, separator=spec)
    if p.vertices == q.vertices:
        return HomotopyVerdict(HOMOTOPIC, moves=[])
    sides = [
        {"seen": {p.vertices: None}, "frontier": deque([p.vertices])},
        {"seen": {q.vertices: None}, "frontier": deque([q.vertices])},
    ]
    explored = 0
    meet = None
    while meet is None and (sides[0]["frontier"] or sides[1]["frontier"]):
        if explored >= state_cap:
            return HomotopyVerdict(UNKNOWN, states_explored=explored)
        idx = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        if not sides[idx]["frontier"]:
            idx = 1 - idx
        side, other = sides[idx], sides[1 - idx]
        for _ in range(len(side["frontier"])):
            state = side["frontier"].popleft()
            explored += 1
            if explored > state_cap:
                return HomotopyVerdict(UNKNOWN, states_explored=explored)
            for move, succ in legal_moves(Walk(g, state), length_cap):
                key = succ.vertices
                if key in side["seen"]:
                    continue
                side["seen"][key] = (state, move)
                side["frontier"].append(key)
                if key in other["seen"]:
                    meet = key
                    break
            if meet is not None:
                break
    if meet is None:
        return HomotopyVerdict(UNKNOWN, states_explored=explored)
    forward = _path_moves(sides[0]["seen"], meet)
    backward = _path_moves(sides[1]["seen"], meet)
    moves = [move for _, move in forward]
    current = Walk(g, meet)
    for before_vertices, move in reversed(backward):
        inv = inverse_move(Walk(g, before_vertices), move)
        moves.append(inv)
        current = apply_move(current, inv)
    assert replay_moves(p, moves) == q
    return HomotopyVerdict(HOMOTOPIC, moves=moves, states_explored=explored)


def _path_moves(seen, state):
    chain = []
    while seen[state] is not None:
        prev, move = seen[state]
        chain.append((prev, move))
        state = prev
    return chain[::-1]


def equivalent_edge_paths(k, q1, q2, length_cap=None, state_cap=10**5):
    if q1.vertices == q2.vertices:
        return HOMOTOPIC
    if length_cap is None:
        length_cap = max(len(q1.vertices), len(q2.vertices)) + 4
    sides = [
        {"seen": {q1.vertices}, "frontier": deque([q1.vertices])},
        {"seen": {q2.vertices}, "frontier": deque([q2.vertices])},
    ]
    explored = 0
    while sides[0]["frontier"] or sides[1]["frontier"]:
        idx = 0 if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else 1
        if not sides[idx]["frontier"]:
            idx = 1 - idx
        side, other = sides[idx], sides[1 - idx]
        for _ in range(len(side["frontier"])):
            state = side["frontier"].popleft()
            explored += 1
            if explored > state_cap:
                return UNKNOWN
            for succ in _edgepath_moves(k, state, length_cap):
                if succ in side["seen"]:
                    continue
                side["seen"].add(succ)
                side["frontier"].append(succ)
                if succ in other["seen"]:
                    return HOMOTOPIC
    return UNKNOWN


def hom_exists(g, h, node_budget=10**6):
    """(status, vertex map or None, nodes) of the recursive backtracker."""
    if g.n == 0:
        return FOUND, (), 0
    if h.n == 0:
        return NONE, None, 0
    value_order = sorted(range(h.n), key=lambda x: (-h.degree(x), x))
    domains = {v: list(value_order) for v in range(g.n)}
    assignment = {}
    nodes = 0

    def select():
        return min(
            (v for v in range(g.n) if v not in assignment),
            key=lambda v: (len(domains[v]), v),
        )

    def search() -> Optional[bool]:
        nonlocal nodes
        if len(assignment) == g.n:
            return True
        v = select()
        for x in list(domains[v]):
            nodes += 1
            if nodes > node_budget:
                return None
            assignment[v] = x
            trimmed = []
            ok = True
            for w in g.adj[v]:
                if w in assignment:
                    if not h.has_edge(x, assignment[w]):
                        ok = False
                        break
                    continue
                allowed = [y for y in domains[w] if h.has_edge(x, y)]
                if not allowed:
                    ok = False
                    break
                trimmed.append((w, domains[w]))
                domains[w] = allowed
            if ok:
                result = search()
                if result:
                    return True
                if result is None:
                    return None
            for w, old in trimmed:
                domains[w] = old
            del assignment[v]
        return False

    outcome = search()
    if outcome is None:
        return TIMEOUT, None, nodes
    if not outcome:
        return NONE, None, nodes
    return FOUND, tuple(assignment[v] for v in range(g.n)), nodes


def degeneracy_order(g):
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
            if remaining == 1:
                if end in adj[w]:
                    return YES, path, expansions
                path.pop()
                continue
            on_path.add(w)
            stack.append(iter(nbrs[w]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return NO, None, expansions


def ranked_pairs(g, stream, cap):
    """Every non-adjacent pair u < v in order, sorted by descending codegree
    with one stream draw per pair as the tie-break; the first `cap`."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return sorted(pairs, key=lambda p: (-len(g.adj[p[0]] & g.adj[p[1]]), stream.next_u64()))[:cap]


def color_closure_subgraph(h, f, r):
    """The closure colouring with one BFS per cycle vertex (h has edge f, r >= 2)."""
    f = canon_edge(*f)
    closure = c4_partition(h).class_edges(f)
    found = shortest_odd_cycle_meeting(h, closure, 2 * r - 1)
    if found is None:
        raise HypothesisError(
            f"no odd cycle of length at most {2 * r - 1} meets the closure of {f}"
        )
    cycle, _ = found
    cycle_edges = {canon_edge(a, b) for a, b in zip(cycle, cycle[1:])}
    h1 = h.subgraph_on_edges(cycle_edges | closure)
    cycle_vertices = sorted(set(cycle[:-1]))
    dist_from = {cv: depths(bfs([cv], h1.sorted_neighbors)) for cv in cycle_vertices}
    closure_vertices = {v for e in closure for v in e}
    all_vertices = closure_vertices | set(cycle_vertices)
    nearest = {}
    for wv in sorted(all_vertices):
        best = min(
            ((dist_from[cv].get(wv), cv) for cv in cycle_vertices if wv in dist_from[cv]),
            default=(None, None),
        )
        if best[0] is None:
            raise ViolationError(f"vertex {wv} is unreachable from the anchor cycle", witness=wv)
        if wv in closure_vertices and best[0] > r - 1:
            raise ViolationError(
                f"closure vertex {wv} is at distance {best[0]} > {r - 1} from the cycle",
                witness=wv,
            )
        nearest[wv] = best[1]
    assignment = {}
    for idx, cv in enumerate(cycle_vertices):
        members = [wv for wv, c in nearest.items() if c == cv]
        if not members:
            continue
        ball = color_ball(h1, cv, r)
        offset = idx * 4 * r
        for wv in members:
            assignment[wv] = ball.assignment[wv] + offset
    return Coloring(assignment, len(cycle_vertices) * 4 * r)

"""Constructive coloring pipeline for graphs mapped into targets without a
fixed odd cycle length.

Given a homomorphism phi from a (caller-certified) simply connected graph
into a target free of (2r+1)-cycles, plus one odd cycle whose image uses at
most 2r+2 vertices, the pipeline produces a verified proper coloring with
fewer than 8r^2 colors: a pivot edge's closure class either leaves a
bipartite-times-bipartite product (4 colors) or is colored through the
target closure's short odd cycle by disjoint layered balls and then
extended across the complement through parity-consistent walks.

The ear-chain machinery is the witness side of the same story: it connects
any closure edge back to the base cycle through 4-cycles, exhibiting at
every step a short odd cycle through the current edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .closure import (
    GraphHom,
    InvariantSpec,
    c4_bundles,
    c4_partition,
    find_pivot_edge,
    phi_partition,
)
from .errors import HypothesisError, InputError, ViolationError
from .graph import (
    NO,
    YES,
    Coloring,
    Graph,
    bfs_layers,
    canon_edge,
    degeneracy_order,
    greedy_coloring,
    has_cycle_of_length,
    is_bipartite,
    is_connected,
    odd_girth,
)
from .homotopy import Walk

PRODUCT_4COLOR = "PRODUCT_4COLOR"
EXTENSION = "EXTENSION"


@dataclass
class StableSplit:
    """Partition of the source's edges into two stable sets."""

    a_edges: frozenset
    b_edges: frozenset
    hom: GraphHom

    def validate(self):
        edges = set(self.hom.source.edges)
        if not (self.a_edges | self.b_edges) == edges or (self.a_edges & self.b_edges):
            raise InputError("split must partition the source's edges")
        part = phi_partition(self.hom)
        for side in (self.a_edges, self.b_edges):
            if side and not part.is_stable(frozenset(side)):
                raise InputError("split sides must be unions of closure classes")


def extend_coloring(phi: GraphHom, split: StableSplit, gamma0: Coloring) -> Coloring:
    """Extend a fiber-constant proper coloring of the A-side across B-walks.

    Every vertex is colored by walking through B-edges to the A-side: keep
    the anchor's color on even walks, shift by one otherwise.  When two
    walks from one vertex disagree (parity or target fiber), the hypotheses
    fail and the conflict is raised with both walks as a certificate.
    """
    g = phi.source
    split.validate()
    a_vertices = {v for e in split.a_edges for v in e}
    if not a_vertices:
        raise InputError("A-side has no edges")
    g_a = g.subgraph_on_edges(split.a_edges)
    bip_a, _ = is_bipartite(g_a)
    if bip_a:
        raise InputError("A-side must be non-bipartite")
    comps = _components_within(g_a, a_vertices)
    if len(comps) != 1:
        raise InputError("A-side must be connected")
    for v in a_vertices:
        if v not in gamma0.assignment:
            raise InputError(f"base coloring misses vertex {v}")
    for u, v in split.a_edges:
        if gamma0.assignment[u] == gamma0.assignment[v]:
            raise InputError("base coloring is not proper on the A-side")
    by_fiber: dict[int, int] = {}
    for v in a_vertices:
        img = phi.mapping[v]
        if img in by_fiber and by_fiber[img] != gamma0.assignment[v]:
            raise InputError("base coloring is not constant on fibers")
        by_fiber[img] = gamma0.assignment[v]
    r = gamma0.palette_size
    if r < 2:
        raise InputError("palette must have at least two colors")

    # multi-source BFS from the A-side through B-edges
    b_adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in split.b_edges:
        b_adj[u].append(v)
        b_adj[v].append(u)
    dist: dict[int, int] = {}
    anchor: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    queue = deque()
    for v in sorted(a_vertices):
        dist[v] = 0
        anchor[v] = v
        parent[v] = None
        queue.append(v)
    while queue:
        u = queue.popleft()
        for w in sorted(b_adj[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                anchor[w] = anchor[u]
                parent[w] = u
                queue.append(w)

    missing = [v for v in range(g.n) if v not in dist]
    if missing:
        raise HypothesisError(
            f"vertex {missing[0]} cannot reach the A-side through B-edges "
            "(source is disconnected)",
            certificate={"unreachable": missing},
        )

    def walk_to_anchor(v):
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    for u, v in sorted(split.b_edges):
        walk_u = walk_to_anchor(u)
        walk_v = [u] + walk_to_anchor(v)  # the other walk from u, through v
        if (dist[u] + dist[v]) % 2 == 0:
            raise HypothesisError(
                f"two B-walks from vertex {u} disagree in parity "
                f"(odd closed walk through B-edge ({u}, {v}))",
                certificate={"walks": (walk_u, walk_v)},
            )
        if phi.mapping[anchor[u]] != phi.mapping[anchor[v]]:
            raise HypothesisError(
                f"two B-walks from vertex {u} end in different fibers "
                f"({anchor[u]} vs {anchor[v]})",
                certificate={"walks": (walk_u, walk_v)},
            )

    assignment = {}
    for v in range(g.n):
        base = gamma0.assignment[anchor[v]]
        assignment[v] = base if dist[v] % 2 == 0 else (base + 1) % r
    out = Coloring(assignment, r)
    if not out.is_proper(g):
        raise ViolationError("extension produced an improper coloring", witness=out)
    return out


def _components_within(g: Graph, vertices: set[int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = {v}
        seen.add(v)
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w in vertices and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def color_ball(h: Graph, v: int, r: int) -> Coloring:
    """Color the radius-r ball around v with at most 4r colors.

    Each breadth-first layer gets a greedy coloring along its reversed
    degeneracy order (at most 2r colors when the target has no (2r+1)-cycle),
    with even layers on palette [0, 2r) and odd layers on [2r, 4r).
    """
    if r < 1:
        raise InputError("radius must be at least 1")
    layers = bfs_layers(h, v)[: r + 1]
    assignment: dict[int, int] = {}
    for s, layer in enumerate(layers):
        sub = h.subgraph_on_edges(
            [e for e in h.edges if e[0] in layer and e[1] in layer]
        )
        order, _ = degeneracy_order(sub)
        layer_order = [w for w in reversed(order) if w in layer]
        col = greedy_coloring(sub, layer_order)
        used = col.colors_used()
        if used > 2 * r:
            raise ViolationError(
                f"layer {s} needed {used} > {2 * r} colors "
                "(the target cannot be free of the forbidden odd cycle)",
                witness=sub,
            )
        offset = 0 if s % 2 == 0 else 2 * r
        for w in layer:
            assignment[w] = col.assignment[w] + offset
    out = Coloring(assignment, 4 * r)
    ball = set(assignment)
    for a, b in h.edges:
        if a in ball and b in ball and assignment[a] == assignment[b]:
            raise ViolationError("ball coloring is improper", witness=out)
    return out


def _cycle_through_edge(h: Graph, e: tuple[int, int], length: int) -> Optional[list[int]]:
    """A simple cycle of exactly `length` through edge e, or None.

    DFS for a simple path between the endpoints with exact remaining length,
    pruned by breadth-first distance; deterministic via sorted neighbors.
    """
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
        for w in h.sorted_neighbors(u):
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
    return [x] + found  # found runs y..x, so this closes at x


def shortest_odd_cycle_meeting(
    h: Graph, closure: frozenset, max_length: int
) -> Optional[tuple[list[int], tuple[int, int]]]:
    """Shortest odd cycle (up to max_length) containing a closure edge.

    Scans lengths ascending and closure edges in canonical order, so the
    first hit is the deterministic winner.  Returns (cycle, edge) or None.
    """
    for length in range(3, max_length + 1, 2):
        for e in sorted(closure):
            cycle = _cycle_through_edge(h, e, length)
            if cycle is not None:
                return cycle, e
    return None


def color_closure_subgraph(h: Graph, f: tuple[int, int], r: int) -> Coloring:
    """Color the closure class of f (plus its anchor cycle) with < 8r^2 colors.

    Finds the shortest odd cycle through the closure (length at most 2r-1),
    restricts to the closure-plus-cycle subgraph, checks that every closure
    vertex sits within distance r-1 of the cycle, and colors each vertex in
    the ball of its nearest cycle vertex with per-cycle-vertex disjoint 4r
    palettes.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    f = canon_edge(*f)
    if not h.has_edge(*f):
        raise InputError(f"{f} is not an edge of the target")
    part = c4_partition(h)
    closure = part.class_edges(f)
    found = shortest_odd_cycle_meeting(h, closure, 2 * r - 1)
    if found is None:
        raise HypothesisError(
            f"no odd cycle of length at most {2 * r - 1} meets the closure of {f}"
        )
    cycle, _ = found
    cycle_edges = {canon_edge(a, b) for a, b in zip(cycle, cycle[1:])}
    h1 = h.subgraph_on_edges(cycle_edges | closure)
    cycle_vertices = sorted(set(cycle[:-1]))
    dist_from: dict[int, dict[int, int]] = {}
    for cv in cycle_vertices:
        dmap = {cv: 0}
        queue = deque([cv])
        while queue:
            u = queue.popleft()
            for w in h1.adj[u]:
                if w not in dmap:
                    dmap[w] = dmap[u] + 1
                    queue.append(w)
        dist_from[cv] = dmap
    closure_vertices = {v for e in closure for v in e}
    all_vertices = closure_vertices | set(cycle_vertices)
    nearest: dict[int, int] = {}
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
    assignment: dict[int, int] = {}
    for idx, cv in enumerate(cycle_vertices):
        members = [wv for wv, c in nearest.items() if c == cv]
        if not members:
            continue
        ball = color_ball(h1, cv, r)
        offset = idx * 4 * r
        for wv in members:
            assignment[wv] = ball.assignment[wv] + offset
    palette = len(cycle_vertices) * 4 * r
    out = Coloring(assignment, palette)
    colored = set(assignment)
    for a, b in h1.edges:
        if a in colored and b in colored and assignment[a] == assignment[b]:
            raise ViolationError("closure coloring is improper", witness=out)
    if palette >= 8 * r * r:
        raise ViolationError(
            f"palette {palette} is not below {8 * r * r}", witness=out
        )
    return out


@dataclass
class PipelineTrace:
    """Auditable record of one pipeline run; every step re-validates."""

    pivot_edge: tuple[int, int]
    invariant: InvariantSpec
    a_edges: frozenset
    b_edges: frozenset
    branch: str
    target_odd_cycle: list[int]
    provenance: dict[int, tuple]
    coloring: Coloring

    def describe(self) -> dict:
        invariant = {
            "class_size": len(self.invariant.stable_set),
            "anchor": self.invariant.anchor,
        }
        if len(self.invariant.stable_set) <= 200:
            invariant["stable_set"] = sorted(list(e) for e in self.invariant.stable_set)
        return {
            "pivot_edge": list(self.pivot_edge),
            "invariant": invariant,
            "branch": self.branch,
            "a_size": len(self.a_edges),
            "b_size": len(self.b_edges),
            "target_odd_cycle": list(self.target_odd_cycle),
            "palette_size": self.coloring.palette_size,
            "colors_used": self.coloring.colors_used(),
            "provenance": {str(v): list(p) for v, p in sorted(self.provenance.items())},
            "coloring": {str(v): c for v, c in sorted(self.coloring.assignment.items())},
        }

    def validate(self, phi: GraphHom, c: Walk, r: int):
        f = c.edge_multiset()
        from .closure import eval_invariant

        if eval_invariant(self.invariant, f, phi) != 1:
            raise ViolationError("recorded invariant no longer evaluates to 1")
        if not self.coloring.is_proper(phi.source):
            raise ViolationError("recorded coloring is improper")
        if self.coloring.palette_size >= 8 * r * r and self.branch == EXTENSION:
            raise ViolationError("recorded palette breaks the bound")
        if self.branch == PRODUCT_4COLOR and self.coloring.palette_size > 4:
            raise ViolationError("product branch must use at most 4 colors")


def bounded_coloring_pipeline(
    phi: GraphHom,
    c: Walk,
    r: int,
    sc_certificate: bool = False,
    freeness_budget: int = 10**7,
) -> tuple[Coloring, PipelineTrace]:
    """Run the full pipeline; returns a verified coloring and its trace.

    The caller asserts (via sc_certificate) that the source is simply
    connected or has cyclic walk classes; false assertions surface later as
    hypothesis errors carrying counterexample certificates.
    """
    g, h = phi.source, phi.target
    if r < 2:
        raise InputError("r must be at least 2")
    if not sc_certificate:
        raise InputError(
            "caller must assert the source's simple connectivity (sc_certificate)"
        )
    if c.graph != g:
        raise InputError("cycle must live in the source")
    if not c.is_cycle() or c.parity() != 1:
        raise InputError("c must be an odd cycle")
    image_size = len({phi.mapping[v] for v in c.vertices})
    if image_size > 2 * r + 2:
        raise InputError(
            f"cycle image uses {image_size} > {2 * r + 2} target vertices"
        )
    if not is_connected(g):
        raise HypothesisError("source is disconnected; it cannot be simply connected")
    freeness = has_cycle_of_length(h, 2 * r + 1, budget=freeness_budget)
    if freeness.status == YES:
        raise HypothesisError(
            f"target contains a {2 * r + 1}-cycle", certificate=freeness.witness
        )
    if freeness.status != NO:
        raise HypothesisError(
            f"could not certify the target free of {2 * r + 1}-cycles within budget"
        )

    pivot, spec, target_cycle = find_pivot_edge(phi, c.edge_multiset())
    a_edges = spec.stable_set
    b_edges = frozenset(e for e in g.edges if e not in a_edges)
    split = StableSplit(a_edges, b_edges, phi)
    g_a = g.subgraph_on_edges(a_edges)
    bip_a, side_a = is_bipartite(g_a)

    if bip_a:
        g_b = g.subgraph_on_edges(b_edges)
        bip_b, side_b = is_bipartite(g_b)
        if not bip_b:
            raise HypothesisError(
                "complement of the pivot class is not bipartite "
                "(simple connectivity was asserted falsely)",
                certificate={"odd_walk": side_b},
            )
        assignment = {v: 2 * side_a[v] + side_b[v] for v in range(g.n)}
        coloring = Coloring(assignment, 4)
        provenance = {
            v: ("product", side_a[v], side_b[v]) for v in range(g.n)
        }
        branch = PRODUCT_4COLOR
    else:
        f_target = phi.edge_image(pivot)
        if (len(target_cycle) - 1) > 2 * r - 1:
            raise HypothesisError(
                f"pivot odd cycle has length {len(target_cycle) - 1} > {2 * r - 1}"
            )
        closure_coloring = color_closure_subgraph(h, f_target, r)
        a_vertices = sorted({v for e in a_edges for v in e})
        gamma0 = Coloring(
            {v: closure_coloring.assignment[phi.mapping[v]] for v in a_vertices},
            closure_coloring.palette_size,
        )
        coloring = extend_coloring(phi, split, gamma0)
        provenance = {}
        for v in range(g.n):
            if v in gamma0.assignment:
                provenance[v] = ("closure", phi.mapping[v])
            else:
                provenance[v] = ("extended",)
        branch = EXTENSION

    if not coloring.is_proper(g):
        raise ViolationError("pipeline produced an improper coloring", witness=coloring)
    if coloring.palette_size >= 8 * r * r and branch == EXTENSION:
        raise ViolationError(
            f"palette {coloring.palette_size} is not below {8 * r * r}"
        )
    trace = PipelineTrace(
        pivot_edge=pivot,
        invariant=spec,
        a_edges=a_edges,
        b_edges=b_edges,
        branch=branch,
        target_odd_cycle=target_cycle,
        provenance=provenance,
        coloring=coloring,
    )
    trace.validate(phi, c, r)
    return coloring, trace


# ---------------------------------------------------------------------------
# ear chains


@dataclass
class CEar:
    """Path whose distinct endpoints lie on the base cycle, interior off it."""

    path: Walk
    base_cycle: Walk

    def validate(self):
        cyc = set(self.base_cycle.vertices[:-1])
        vs = self.path.vertices
        if len(vs) < 3:
            raise InputError("an ear has length at least 2")
        if vs[0] == vs[-1]:
            raise InputError("ear endpoints must be distinct")
        if vs[0] not in cyc or vs[-1] not in cyc:
            raise InputError("ear endpoints must lie on the base cycle")
        if len(set(vs)) != len(vs):
            raise InputError("an ear is a path (no repeated vertices)")
        for w in vs[1:-1]:
            if w in cyc:
                raise InputError(f"interior vertex {w} lies on the base cycle")

    def odd_cycle(self) -> Walk:
        """Close the ear with whichever base-cycle arc yields odd total length."""
        g = self.path.graph
        cyc = list(self.base_cycle.vertices[:-1])
        a, b = self.path.start, self.path.end
        ia = cyc.index(a)
        forward = cyc[ia:] + cyc[:ia]  # cycle rotated to start at a
        pos_b = forward.index(b)
        arc1 = forward[: pos_b + 1]                    # a -> b one way around
        arc2 = [a] + forward[: pos_b - 1 : -1]         # a -> b the other way
        # choose the arc of parity opposite to the ear, so the cycle is odd
        want = 1 - (self.path.length % 2)
        arc = arc1 if (len(arc1) - 1) % 2 == want else arc2
        back = arc[::-1]  # b -> a
        cycle_vertices = list(self.path.vertices) + back[1:]
        out = Walk(g, cycle_vertices)
        if not out.is_cycle() or out.parity() != 1:
            raise ViolationError("ear closure failed to produce an odd cycle", witness=out)
        return out


@dataclass
class ChainLink:
    edge: tuple[int, int]
    four_cycle: tuple[int, int, int, int]
    ear: CEar
    cycle: Walk
    prec_witness: dict[int, Walk] = field(default_factory=dict)


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


def c4_chain(h: Graph, start_edges, goal: tuple[int, int]):
    """Shortest chain of edges start -> goal where consecutive edges share a
    4-cycle; returns [(edge, four_cycle, edge), ...] or None."""
    goal = canon_edge(*goal)
    starts = sorted(canon_edge(*e) for e in start_edges)
    if goal in starts:
        return []
    bundles = c4_bundles(h)
    edge_bundles: dict[tuple[int, int], list[int]] = {}
    for idx, (u, w, common) in enumerate(bundles):
        for x in common:
            for hub in (u, w):
                edge_bundles.setdefault(canon_edge(hub, x), []).append(idx)
    parent: dict[tuple[int, int], tuple] = {e: None for e in starts}
    queue = deque(starts)
    spent: set[int] = set()
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


def _locate_edge(path: list[int], e: tuple[int, int]) -> Optional[int]:
    for i in range(len(path) - 1):
        if canon_edge(path[i], path[i + 1]) == canon_edge(*e):
            return i
    return None


def _splice_ear(path: list[int], cyc: set[int], x: int, y1: int, y2: int) -> list[int]:
    """Reroute an ear containing edge (x, y1) to one containing (x, y2).

    y2 must already lie on the ear or on the base cycle; the result drops
    the detour between x and y2 (or truncates to y2 when it sits on the
    cycle), staying inside the old vertices plus y2.
    """
    p = _locate_edge(path, (x, y1))
    assert p is not None, "ear must contain the pivot edge"
    # orient so the pivot edge is not the last edge
    if p == len(path) - 2:
        path = path[::-1]
    i = path.index(x)
    if y2 in path:
        j = path.index(y2)
        if j < i:
            return path[: j + 1] + path[i:]
        return path[: i + 1] + path[j:]
    assert y2 in cyc, "rerouting target must lie on the ear or the base cycle"
    return path[: i + 1] + [y2]


def _replace_pair(path: list[int], a: int, b: int, inner: list[int]) -> list[int]:
    """Replace the consecutive pair a,b (either orientation) by a,*inner,b."""
    for i in range(len(path) - 1):
        if path[i] == a and path[i + 1] == b:
            return path[: i + 1] + inner + path[i + 1 :]
        if path[i] == b and path[i + 1] == a:
            return path[: i + 1] + inner[::-1] + path[i + 1 :]
    raise ViolationError(f"pair ({a}, {b}) is not consecutive on the ear")


def _ear_step_adjacent(
    cyc_vertices: set[int], path: list[int], e_prev, e_next, four
) -> list[tuple[tuple[int, int], list[int]]]:
    """Reroute between adjacent edges of a shared 4-cycle.

    Returns the (edge, ear) stages produced: one stage normally, two when
    the reroute must pass through the side edge first (the intermediate ear
    is a genuine chain element and keeps every per-stage cycle-length jump
    at most 2).
    """
    e_prev, e_next = canon_edge(*e_prev), canon_edge(*e_next)
    shared = set(e_prev) & set(e_next)
    assert len(shared) == 1
    x2 = shared.pop()
    x1 = e_prev[0] if e_prev[1] == x2 else e_prev[1]
    x3 = e_next[0] if e_next[1] == x2 else e_next[1]
    x4 = next(v for v in four if v not in (x1, x2, x3))
    w = set(path) | cyc_vertices
    if x3 in w:
        return [(e_next, _splice_ear(path, cyc_vertices, x2, x1, x3))]
    if x4 not in w:
        return [(e_next, _replace_pair(path, x1, x2, [x4, x3]))]
    # x3 off everything, x4 on the ear or cycle: reroute through (x1, x4) first
    side = canon_edge(x1, x4)
    path4 = _splice_ear(path, cyc_vertices, x1, x2, x4)
    w4 = set(path4) | cyc_vertices
    assert _locate_edge(path4, side) is not None
    # does path4 traverse x4, x1, x2 consecutively (either direction)?
    sub_ok = any(
        path4[i : i + 3] in ([x4, x1, x2], [x2, x1, x4])
        for i in range(len(path4) - 2)
    )
    if sub_ok:
        return [(side, path4), (e_next, [x3 if v == x1 else v for v in path4])]
    assert x2 not in w4, "rerouted ear must either keep the old corner or drop it"
    return [(side, path4), (e_next, _replace_pair(path4, x1, x4, [x2, x3]))]


def _base_ear(h: Graph, cyc_vertices: set[int], four, e0, e1) -> list[int]:
    """Initial ear inside the first 4-cycle, which contains a cycle edge."""
    e0 = canon_edge(*e0)
    # rotate the 4-cycle so it reads x1, x2, x3, x4 with e0 = (x1, x2)
    ring = list(four)
    for _ in range(4):
        if canon_edge(ring[0], ring[1]) == e0:
            break
        ring = ring[1:] + ring[:1]
    else:
        raise ViolationError("first 4-cycle does not contain the base edge")
    x1, x2, x3, x4 = ring
    on3, on4 = x3 in cyc_vertices, x4 in cyc_vertices
    if not on3 and not on4:
        return [x2, x3, x4, x1]
    if on3 and not on4:
        return [x3, x4, x1]
    if on4 and not on3:
        return [x2, x3, x4]
    raise ViolationError("both off-edge corners of the first 4-cycle lie on the cycle")


def ear_chain_witness(
    h: Graph, c: Walk, e0: tuple[int, int], e: tuple[int, int], r: int
) -> list[ChainLink]:
    """Ear chain connecting a closure edge back to the base cycle.

    Walks the shortest 4-cycle chain from the cycle's edges to e, rerouting
    an ear along every step (opposite edges of a 4-cycle go through a shared
    adjacent edge, contributing an extra link).  Every link's closing odd
    cycle stays below 2r+1, with the two-cycle listing as its witness that
    lengths never jump by more than 2.
    """
    e0 = canon_edge(*e0)
    e = canon_edge(*e)
    if not c.is_cycle() or c.parity() != 1:
        raise InputError("base must be an odd cycle")
    if (c.length) != odd_girth(h):
        raise InputError("base cycle must be a shortest odd cycle")
    if c.length >= 2 * r + 1:
        raise InputError(f"base cycle length {c.length} must be below {2 * r + 1}")
    cycle_edges = {canon_edge(a, b) for a, b in zip(c.vertices, c.vertices[1:])}
    if e0 not in cycle_edges:
        raise InputError("e0 must be an edge of the base cycle")
    part = c4_partition(h)
    if part.class_id(e) != part.class_id(e0):
        raise InputError("edge is not in the closure of the base edge")
    if e in cycle_edges:
        return []
    chain = c4_chain(h, cycle_edges, e)
    if chain is None:
        raise ViolationError("closure edges must be chain-connected", witness=e)
    cyc_vertices = set(c.vertices[:-1])
    links: list[ChainLink] = []

    def push(edge, four, path, prev_cycle):
        ear = CEar(Walk(h, path), c)
        ear.validate()
        assert _locate_edge(path, edge) is not None, "ear must contain its chain edge"
        cyc = ear.odd_cycle()
        if cyc.length >= 2 * r + 1:
            raise ViolationError(
                f"ear cycle reached forbidden length {cyc.length}", witness=cyc
            )
        witness = {}
        if prev_cycle is not None:
            if cyc.length > prev_cycle.length + 2:
                raise ViolationError(
                    "ear cycle grew by more than 2", witness=(prev_cycle, cyc)
                )
            if cyc.length >= prev_cycle.length:
                witness[prev_cycle.length] = prev_cycle
                witness[cyc.length] = cyc
        links.append(ChainLink(edge, four, ear, cyc, witness))
        return cyc

    first_prev, first_four, first_edge = chain[0]
    path = _base_ear(h, cyc_vertices, first_four, first_prev, first_edge)
    prev_cycle = push(first_edge, first_four, path, c)
    for prev_e, four, next_e in chain[1:]:
        prev_e, next_e = canon_edge(*prev_e), canon_edge(*next_e)
        if set(prev_e) & set(next_e):
            hops = [(prev_e, next_e)]
        else:
            a, b, cc, d = four
            ring_edges = [
                canon_edge(a, b), canon_edge(b, cc), canon_edge(cc, d), canon_edge(d, a)
            ]
            middle = min(
                m for m in ring_edges
                if set(m) & set(prev_e) and set(m) & set(next_e)
            )
            hops = [(prev_e, middle), (middle, next_e)]
        for hop_from, hop_to in hops:
            path = list(links[-1].ear.path.vertices)
            for stage_edge, stage_path in _ear_step_adjacent(
                cyc_vertices, path, hop_from, hop_to, four
            ):
                prev_cycle = push(stage_edge, four, stage_path, prev_cycle)
    assert links[-1].edge == e
    return links

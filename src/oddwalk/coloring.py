"""Constructive coloring pipeline for graphs mapped into targets without a
fixed odd cycle length.

Given a homomorphism phi from a (caller-certified) simply connected graph
into a target free of (2r+1)-cycles, plus one odd cycle whose image uses at
most 2r+2 vertices, the pipeline produces a verified proper coloring with
fewer than 8r^2 colors: a pivot edge's closure class either leaves a
bipartite-times-bipartite product (4 colors) or is colored through the
target closure's short odd cycle by disjoint layered balls and then
extended across the complement through parity-consistent walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .closure import (
    GraphHom,
    InvariantSpec,
    c4_partition,
    eval_invariant,
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
)
from .homotopy import Walk
from .traverse import bfs, depths, path_to_root, simple_path_dfs

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
    if len(bfs([min(a_vertices)], g_a.sorted_neighbors)) != len(a_vertices):
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
    parent = bfs(sorted(a_vertices), g.subgraph_on_edges(split.b_edges).sorted_neighbors)
    dist = depths(parent)
    anchor: dict[int, int] = {}
    for v, prev in parent.items():
        anchor[v] = v if prev is None else anchor[prev]

    missing = [v for v in range(g.n) if v not in dist]
    if missing:
        raise HypothesisError(
            f"vertex {missing[0]} cannot reach the A-side through B-edges "
            "(source is disconnected)",
            certificate={"unreachable": missing},
        )

    for u, v in sorted(split.b_edges):
        walk_u = path_to_root(parent, u)
        walk_v = [u] + path_to_root(parent, v)  # the other walk from u, through v
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
    # proper by the checks above: every edge is an A-edge or a B-edge; A-edges
    # keep gamma0's colours, and a B-edge joins opposite parities over one
    # fiber, so its ends get base and base + 1 mod r >= 2
    return Coloring(assignment, r)


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
    # proper: each layer is coloured properly, and an edge joins one layer or
    # two consecutive ones, whose palettes are disjoint
    return Coloring(assignment, 4 * r)


def _cycle_through_edge(h: Graph, e: tuple[int, int], length: int) -> Optional[list[int]]:
    """A simple cycle of exactly `length` through edge e, or None.

    DFS for a simple path from y to a neighbour of x that avoids x, pruned by
    distance to x (read off balls of bit rows around x); deterministic via
    sorted neighbors.
    """
    x, y = e
    _, path, _ = simple_path_dfs(h, y, length - 2, x, blocked=x, prune=True)
    return None if path is None else [x] + path + [x]


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
    the ball of its nearest cycle vertex (the smallest, on a tie) with
    per-cycle-vertex disjoint 4r palettes.
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
    # one BFS from the ascending cycle vertices: its queue stays sorted by
    # (depth, anchor), so a vertex's anchor is its smallest nearest cycle vertex
    parent = bfs(cycle_vertices, h1.sorted_neighbors)
    dist = depths(parent)
    anchor: dict[int, int] = {}
    for v, prev in parent.items():
        anchor[v] = v if prev is None else anchor[prev]
    closure_vertices = {v for e in closure for v in e}
    members: dict[int, list[int]] = {cv: [] for cv in cycle_vertices}
    for wv in sorted(closure_vertices | set(cycle_vertices)):
        if wv not in dist:
            raise ViolationError(f"vertex {wv} is unreachable from the anchor cycle", witness=wv)
        if wv in closure_vertices and dist[wv] > r - 1:
            raise ViolationError(
                f"closure vertex {wv} is at distance {dist[wv]} > {r - 1} from the cycle",
                witness=wv,
            )
        members[anchor[wv]].append(wv)
    assignment: dict[int, int] = {}
    for idx, cv in enumerate(cycle_vertices):
        ball = color_ball(h1, cv, r)
        offset = idx * 4 * r
        for wv in members[cv]:
            assignment[wv] = ball.assignment[wv] + offset
    # proper: the ends of an edge share a proper ball colouring or get
    # different offsets; at most 2r - 1 cycle vertices keep the palette at
    # 8r^2 - 4r colours
    return Coloring(assignment, len(cycle_vertices) * 4 * r)


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
        if eval_invariant(self.invariant, f, phi) != 1:
            raise ViolationError("recorded invariant no longer evaluates to 1")
        if not self.coloring.is_proper(phi.source):
            raise ViolationError("recorded coloring is improper", witness=self.coloring)
        if self.coloring.palette_size >= 8 * r * r and self.branch == EXTENSION:
            raise ViolationError("recorded palette breaks the bound")
        if self.branch == PRODUCT_4COLOR and self.coloring.palette_size > 4:
            raise ViolationError("product branch must use at most 4 colors")


def bounded_coloring_pipeline(
    phi: GraphHom,
    c: Walk,
    r: int,
    sc_certificate: bool = False,
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
    freeness = has_cycle_of_length(h, 2 * r + 1, budget=10**7)
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

"""Ear chains: the witness side of the paper's colouring argument.

The ear-chain lemma connects any edge of a 4-cycle closure class back to
the base odd cycle through 4-cycles, exhibiting at every step a short odd
cycle through the current edge.  `ear_chain_witness` builds such a chain
and checks every link; test_coloring.py runs it on small graphs.  No
command reaches it: the pipeline checks its colouring directly.  It walks
the shortest chain that `traversal_reference.c4_chain` finds over the
listed 4-cycle bundles, which costs nothing at the sizes tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from oddwalk.closure import c4_partition
from oddwalk.errors import InputError, ViolationError
from oddwalk.graph import Graph, canon_edge, odd_girth
from oddwalk.homotopy import Walk
from traversal_reference import c4_chain


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

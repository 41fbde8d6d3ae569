"""Edge equivalence under shared 4-cycles, its pullback along graph
homomorphisms, and the mod-2 intersection functionals built on top.

The 4-cycle relation on edges of a target graph H is generated by "lie on a
common 4-cycle".  A homomorphism phi: G -> H pulls each target class back to
an edge set of G; the connected pieces of those pullbacks partition E(G).
Unions of pieces are the "stable" sets: counting a walk's edges inside a
stable set mod 2 (optionally restricted to edges touching one target
vertex's fiber) is invariant under walk moves, which is what makes these
functionals useful as separators and as the engine of the pivot-edge search.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import HypothesisError, InputError, ParseError, ViolationError
from .graph import Graph, canon_edge, csr_rows, degree_steps, int_rows, pack_rows
from .traverse import _members


@dataclass(frozen=True)
class GraphHom:
    """Vertex map source -> target sending edges to edges."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]
    # phi_partition's result, built on first use
    _pullback: Optional["ClosurePartition"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise InputError("homomorphism must map every source vertex")
        for x in self.mapping:
            if not (0 <= x < self.target.n):
                raise InputError(f"image vertex {x} out of range")
        label = np.asarray(self.mapping, dtype=np.int64)
        us, vs = self.source.edge_ends()
        missing = np.flatnonzero(self.target.edge_ids(label[us], label[vs]) < 0)
        if len(missing):
            u, v = int(us[missing[0]]), int(vs[missing[0]])
            raise InputError(
                f"edge ({u}, {v}) maps to non-edge ({self.mapping[u]}, {self.mapping[v]})"
            )

    @classmethod
    def identity(cls, g: Graph) -> "GraphHom":
        return cls(g, g, tuple(range(g.n)))

    def edge_image(self, e: tuple[int, int]) -> tuple[int, int]:
        return canon_edge(self.mapping[e[0]], self.mapping[e[1]])


def parse_hom(text: str, source: Graph, target: Graph) -> GraphHom:
    """Parse "u -> x" lines into a validated homomorphism."""
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace("->", " ").split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u -> x', got {raw!r}")
        try:
            u, x = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer id in {raw!r}")
        if u in mapping:
            raise ParseError(f"line {lineno}: duplicate entry for vertex {u}")
        mapping[u] = x
    missing = [v for v in range(source.n) if v not in mapping]
    if missing:
        raise ParseError(f"missing image for vertices {missing}")
    return GraphHom(source, target, tuple(mapping[v] for v in range(source.n)))


def serialize_hom(phi: GraphHom) -> str:
    return "\n".join(f"{u} -> {phi.mapping[u]}" for u in range(phi.source.n)) + "\n"


@dataclass
class EdgeMultiset:
    """Multiset of edges of one graph, keys canonical, multiplicities >= 1."""

    counts: Counter
    owner: Graph

    def __post_init__(self):
        for e, m in self.counts.items():
            if m <= 0:
                raise InputError(f"multiplicity of {e} must be positive")
            if not self.owner.has_edge(*e):
                raise InputError(f"{e} is not an edge of the owner graph")

    @classmethod
    def from_edges(cls, owner: Graph, edges: Iterable[tuple[int, int]]) -> "EdgeMultiset":
        return cls(Counter(canon_edge(*e) for e in edges), owner)

    @classmethod
    def from_walk_vertices(cls, owner: Graph, vertices) -> "EdgeMultiset":
        return cls.from_edges(owner, zip(vertices, vertices[1:]))

    def size(self) -> int:
        return sum(self.counts.values())

    def without_edges(self, edge_set) -> "EdgeMultiset":
        return EdgeMultiset(
            Counter({e: m for e, m in self.counts.items() if e not in edge_set}), self.owner
        )


@dataclass(frozen=True, eq=False)
class ClosurePartition:
    """Partition of a graph's edges, either by the 4-cycle relation in the
    graph itself (`c4_partition`) or by pulling target classes back along a
    homomorphism and splitting into connected pieces (`phi_partition`).

    Stored as `labels`, the class id of each edge id (index into
    owner.edges), classes numbered by their smallest edge.  The views
    `sizes` (edges per class), `class_of` (edge -> class id, class by class,
    each in edge order) and `classes` (frozensets) are built on first read.
    Partitions are cached on the graph or homomorphism they were built for
    and shared by every caller, so they are read-only.
    """

    owner: Graph
    labels: np.ndarray

    def __post_init__(self):
        self.labels.flags.writeable = False

    def _edge_lists(self) -> list[list]:
        members: list[list] = [[] for _ in range(len(self.sizes))]
        for e, cid in zip(self.owner.edges, self.labels.tolist()):
            members[cid].append(e)
        return members

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels)

    @cached_property
    def class_of(self) -> dict:
        return {e: cid for cid, es in enumerate(self._edge_lists()) for e in es}

    @cached_property
    def classes(self) -> tuple[frozenset, ...]:
        return tuple(map(frozenset, self._edge_lists()))

    def class_id(self, e: tuple[int, int]) -> int:
        try:
            return self.class_of[canon_edge(*e)]
        except KeyError:
            raise InputError(f"{tuple(e)} is not an edge of the partitioned graph") from None

    def class_edges(self, e: tuple[int, int]) -> frozenset:
        return self.classes[self.class_id(e)]

    def is_stable(self, edge_set: frozenset) -> bool:
        """True iff the set is a union of whole classes; False on a pair not in class_of."""
        try:
            hits = Counter(self.class_of[e] for e in edge_set)
        except KeyError:
            return False
        return all(self.sizes[cid] == k for cid, k in hits.items())

    def dump(self) -> str:
        lines = []
        for cid, edges in enumerate(self._edge_lists()):
            body = " ".join(f"{u}-{v}" for u, v in edges)
            lines.append(f"class {cid}: {body}")
        return "\n".join(lines) + "\n"


def _components(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The component id of each of `count` items joined by the pairs
    (a[i], b[i]), components numbered by their smallest item.

    Union-find over arrays: every round hooks the larger root of each
    unmerged pair under the smaller one, then jumps pointers until every
    label is a root again.  Pointers only ever decrease, so each component
    ends up rooted at its minimum.
    """
    labels = np.arange(count)
    while True:
        la, lb = labels[a], labels[b]
        open_ = la != lb
        if not open_.any():
            return (np.cumsum(labels == np.arange(count)) - 1)[labels]
        a, b, la, lb = a[open_], b[open_], la[open_], lb[open_]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _c4_pairs(h: Graph) -> list[int]:
    """Per vertex u, the int whose bit w is set for each w != u with at
    least two neighbors in common with u, by exact integer work on bit rows
    (`pack_rows`), no BLAS call.  Step k of `degree_steps` ORs the k-th
    neighbour's row of every vertex into `one`, as `or_rows` does; a bit
    that `one` already holds marks a second common neighbour in `two`.
    O(m n / 64) word operations, O(n^2) bits."""
    rows = pack_rows(h.indptr, h.indices)
    order, steps = degree_steps(h.indptr[:-1], h.indptr[1:], h.indices)
    one, two = np.zeros_like(rows), np.zeros_like(rows)
    for heads in steps:
        c, x = len(heads), rows.take(heads, axis=0)
        two[:c] |= one[:c] & x
        one[:c] |= x
    # a vertex of degree >= 2 shares all its neighbours with itself
    return [row & ~(1 << u) for u, row in enumerate(int_rows(two[np.argsort(order)]))]


def _c4_labels(h: Graph) -> np.ndarray:
    """Per edge id (index into h.edges), its class id, classes numbered by
    their smallest edge.

    Edges (x, u) and (x, w) lie on a common 4-cycle x-u-y-w exactly when u
    and w have a common neighbor y other than x, i.e. codegree >= 2, and
    these wedges generate the relation (a bundle's edges are all joined
    through wedges at u, w and the common neighbors).  At each vertex x a
    wedge component of N(x) grows from its smallest member, the lowest bit
    left in x's row, by ORing the `_c4_pairs` rows of its newest members
    masked by the bits still left; the edge to each member joins the edge
    to that root: deg(x) pairs at x, 2m in all.
    """
    two, rows = _c4_pairs(h), h.bit_rows
    darts = array("q")  # (w, root) per dart (x, w), in order of x; no int objects
    for x in range(h.n):
        left = rows[x]
        while left:
            frontier = left & -left
            root = frontier.bit_length() - 1
            while frontier:
                left ^= frontier
                reach = 0
                for w in _members(frontier):
                    reach |= two[w]
                    darts.append(w)
                    darts.append(root)
                frontier = reach & left
    # the darts' tails x are in CSR order
    ends = np.frombuffer(darts, dtype=np.int64).reshape(-1, 2)
    ids = h.edge_ids(csr_rows(h.indptr)[:, None], ends)
    return _components(h.num_edges(), ids[:, 0], ids[:, 1])


def c4_partition(h: Graph) -> ClosurePartition:
    """Edge classes generated by co-membership in a 4-cycle.

    Built once per graph and cached on it.  Cost: O(m n / 64) bit-row word
    operations for the codegree >= 2 rows (no BLAS), one OR of such a row
    per dart to grow the wedge components, and one array union-find over
    2m pairs; memory O(n^2) bits plus O(m).
    """
    if h._c4_partition is None:
        h._c4_partition = ClosurePartition(h, _c4_labels(h))
    return h._c4_partition


def phi_partition(phi: GraphHom) -> ClosurePartition:
    """Connected pieces of the preimages of the target's 4-cycle classes.

    Built once per homomorphism and cached on it.  For the identity this is
    the 4-cycle partition itself: every 4-cycle class is connected through
    shared vertices, so pulling it back splits nothing.
    """
    if phi._pullback is None:
        object.__setattr__(phi, "_pullback", _pullback(phi))
    return phi._pullback


def _pullback(phi: GraphHom) -> ClosurePartition:
    g = phi.source
    if g == phi.target and phi.mapping == tuple(range(g.n)):
        return c4_partition(g)
    target = c4_partition(phi.target)
    m = g.num_edges()
    us, ws = g.edge_ends()
    label = np.asarray(phi.mapping, dtype=np.int64)
    cls = target.labels[phi.target.edge_ids(label[us], label[ws])]
    # source edges of one target class meeting at a vertex are joined: key
    # each edge end by (class, vertex) and tie it to the first edge of its key
    keys = np.concatenate([cls * g.n + us, cls * g.n + ws])
    ids = np.tile(np.arange(m), 2)
    distinct, group = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), m)
    np.minimum.at(first, group, ids)
    return ClosurePartition(g, _components(m, ids, first[group]))


@dataclass(frozen=True)
class InvariantSpec:
    """A stable edge set plus an optional anchor vertex of the target.

    Evaluation counts a multiset's edges inside the stable set mod 2; with an
    anchor u, only edges with an endpoint mapping to u are counted.
    """

    stable_set: frozenset
    anchor: Optional[int] = None

    def describe(self) -> dict:
        return {
            "stable_set": sorted(list(e) for e in self.stable_set),
            "anchor": self.anchor,
        }


def eval_invariant(spec: InvariantSpec, f: EdgeMultiset, phi: GraphHom) -> int:
    """Parity of |f ∩ A| (or |f ∩ A_u| with an anchor).  Requires A stable."""
    _require_source(f, phi)
    partition = phi_partition(phi)
    if not partition.is_stable(spec.stable_set):
        raise InputError("stable_set is not a union of closure classes")
    u = spec.anchor
    total = sum(
        m
        for e, m in f.counts.items()
        if e in spec.stable_set and (u is None or u in (phi.mapping[e[0]], phi.mapping[e[1]]))
    )
    return total % 2


def _require_source(f: EdgeMultiset, phi: GraphHom) -> None:
    if f.owner != phi.source:
        raise InputError("the multiset is not over the homomorphism's source graph")


class InvariantOracle:
    """Precomputed evaluator for all single-class invariants of one hom.

    Exposes the class parities and anchored parities of a multiset in one
    pass; used by the homotopy search and the fuzz suites in place of one
    eval_invariant call (a stability check and a scan of f) per class.
    """

    def __init__(self, phi: GraphHom):
        self.phi = phi
        self.partition = phi_partition(phi)

    def profile(self, f: EdgeMultiset) -> tuple:
        """(class parities, anchored parities) of f, as nested tuples."""
        _require_source(f, self.phi)
        plain = [0] * len(self.partition.sizes)
        anchored: Counter = Counter()
        us, ws = np.array(list(f.counts), dtype=np.int64).reshape(-1, 2).T
        cids = self.partition.labels[self.partition.owner.edge_ids(us, ws)].tolist()
        for (e, m), cid in zip(f.counts.items(), cids):
            plain[cid] ^= m & 1
            if m & 1:
                for u in {self.phi.mapping[e[0]], self.phi.mapping[e[1]]}:
                    anchored[(cid, u)] ^= 1
        anchored_items = tuple(sorted(k_ for k_, v in anchored.items() if v))
        return tuple(plain), anchored_items

    def separating_spec(self, f1: EdgeMultiset, f2: EdgeMultiset) -> Optional[InvariantSpec]:
        """An invariant valuing f1 and f2 differently, if one exists."""
        p1, a1 = self.profile(f1)
        p2, a2 = self.profile(f2)
        for cid, (x, y) in enumerate(zip(p1, p2)):
            if x != y:
                return InvariantSpec(self.partition.classes[cid], None)
        diff = set(a1) ^ set(a2)
        if diff:
            cid, u = min(diff)
            return InvariantSpec(self.partition.classes[cid], u)
        return None


# ---------------------------------------------------------------------------
# pivot-edge search


def _eulerian_tour(adjacency: dict[int, Counter], start: int) -> list[int]:
    """Hierholzer tour consuming the multigraph; smallest neighbor first."""
    stack = [start]
    tour: list[int] = []
    while stack:
        u = stack[-1]
        nbrs = adjacency[u]
        w = None
        for cand in sorted(nbrs):
            if nbrs[cand] > 0:
                w = cand
                break
        if w is None:
            tour.append(stack.pop())
        else:
            nbrs[w] -= 1
            adjacency[w][u] -= 1
            stack.append(w)
    return tour[::-1]


def _extract_odd_cycle(walk: list[int]) -> list[int]:
    """Odd cycle inside an odd closed walk, by splitting at the first repeat
    and keeping the odd piece until no vertex repeats."""
    assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 1
    while True:
        inner = walk[:-1]
        seen: dict[int, int] = {}
        for i, v in enumerate(inner):
            if v in seen:
                j = seen[v]
                piece1 = walk[j : i + 1]          # closed at v
                piece2 = inner[:j] + inner[i:] + [walk[0]]  # the rest, still closed
                walk = piece1 if (len(piece1) - 1) % 2 == 1 else piece2
                break
            seen[v] = i
        else:
            return walk


def find_pivot_edge(
    phi: GraphHom, f: EdgeMultiset
) -> tuple[tuple[int, int], InvariantSpec, list[int]]:
    """Locate an edge whose closure class carries odd intersection with f.

    Requires |f| odd and every target vertex to meet f's image evenly (both
    checked).  The image of f then decomposes into closed walks; an odd one
    yields an odd cycle in the target, one of whose edges lifts into f.  If
    no invariant of that edge's class is odd on f, the class is discarded
    from f and the search repeats on the strictly smaller remainder.

    Returns (edge, spec, odd cycle in the target as a closed vertex list)
    with eval(spec, f) = 1 and the cycle inside the support of phi(f).
    """
    _require_source(f, phi)
    if f.size() % 2 != 1:
        raise HypothesisError(
            "whole-edge-set invariant of f is 0, expected 1 (|f| must be odd)",
            certificate={"size": f.size()},
        )
    oracle = InvariantOracle(phi)
    # anchored invariants over the full edge set must all vanish
    image_degree: Counter = Counter()
    for e, m in f.counts.items():
        image_degree[phi.mapping[e[0]]] += m
        image_degree[phi.mapping[e[1]]] += m
    odd_vertices = [u for u, d in image_degree.items() if d % 2 == 1]
    if odd_vertices:
        raise HypothesisError(
            f"anchored invariant at target vertex {odd_vertices[0]} is 1, expected 0",
            certificate={"odd_anchors": sorted(odd_vertices)},
        )
    return _pivot_search(phi, f, oracle)


def _pivot_search(phi, f, oracle):
    f_original = f
    while True:
        if f.size() == 0:
            # cannot happen when the hypotheses hold: parity is preserved downward
            raise ViolationError("pivot search exhausted the multiset", witness=f_original)
        # multigraph on the target with edge multiset phi(f)
        adjacency: dict[int, Counter] = {}
        for e, m in f.counts.items():
            a, b = phi.edge_image(e)
            adjacency.setdefault(a, Counter())[b] += m
            adjacency.setdefault(b, Counter())[a] += m
        odd_cycle = None
        for start in sorted(adjacency):
            if sum(adjacency[start].values()) == 0:
                continue
            tour = _eulerian_tour(adjacency, start)
            if (len(tour) - 1) % 2 == 1:
                odd_cycle = _extract_odd_cycle(tour)
                break
        if odd_cycle is None:
            raise ViolationError("no odd closed walk in the image multigraph", witness=f)
        cycle_edges = sorted(canon_edge(a, b) for a, b in zip(odd_cycle, odd_cycle[1:]))
        # lift: smallest source edge in f mapping onto an edge of the cycle
        lifted = None
        for e in sorted(f.counts):
            if phi.edge_image(e) in cycle_edges:
                lifted = e
                break
        assert lifted is not None, "odd cycle must be inside the image of f"
        cls = oracle.partition.class_edges(lifted)
        plain, anchored = oracle.profile(f)
        cid = oracle.partition.class_id(lifted)
        if plain[cid] == 1:
            return lifted, InvariantSpec(cls, None), odd_cycle
        anchored_hits = [u for (c, u) in anchored if c == cid]
        if anchored_hits:
            return lifted, InvariantSpec(cls, min(anchored_hits)), odd_cycle
        f = f.without_edges(cls)


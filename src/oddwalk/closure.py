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

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import HypothesisError, InputError, ParseError, ViolationError
from .graph import Graph, canon_edge, is_bipartite


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
        for u, v in self.source.edges:
            if not self.target.has_edge(self.mapping[u], self.mapping[v]):
                raise InputError(
                    f"edge ({u}, {v}) maps to non-edge ({self.mapping[u]}, {self.mapping[v]})"
                )

    @classmethod
    def identity(cls, g: Graph) -> "GraphHom":
        return cls(g, g, tuple(range(g.n)))

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def edge_image(self, e: tuple[int, int]) -> tuple[int, int]:
        return canon_edge(self.mapping[e[0]], self.mapping[e[1]])

    def fiber(self, u: int) -> frozenset[int]:
        return frozenset(v for v in range(self.source.n) if self.mapping[v] == u)


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

    def __add__(self, other: "EdgeMultiset") -> "EdgeMultiset":
        if other.owner is not self.owner and other.owner != self.owner:
            raise InputError("cannot add multisets over different graphs")
        return EdgeMultiset(self.counts + other.counts, self.owner)

    def restricted_size(self, edge_set) -> int:
        return sum(m for e, m in self.counts.items() if e in edge_set)

    def support(self) -> frozenset:
        return frozenset(self.counts)

    def without_edges(self, edge_set) -> "EdgeMultiset":
        return EdgeMultiset(
            Counter({e: m for e, m in self.counts.items() if e not in edge_set}), self.owner
        )


@dataclass(frozen=True)
class ClosurePartition:
    """Partition of a graph's edges, either by the 4-cycle relation in the
    graph itself (`c4_partition`) or by pulling target classes back along a
    homomorphism and splitting into connected pieces (`phi_partition`).

    Classes are numbered by their smallest edge.  Partitions are cached on
    the graph or homomorphism they were built for and shared by every
    caller, so they are read-only.
    """

    owner: Graph
    class_of: dict
    classes: tuple[frozenset, ...]

    def class_id(self, e: tuple[int, int]) -> int:
        return self.class_of[canon_edge(*e)]

    def class_edges(self, e: tuple[int, int]) -> frozenset:
        return self.classes[self.class_id(e)]

    def is_stable(self, edge_set: frozenset) -> bool:
        """True iff the set is a union of whole classes."""
        hits = Counter(self.class_of[e] for e in edge_set)
        return all(len(self.classes[cid]) == k for cid, k in hits.items())

    def dump(self) -> str:
        lines = []
        for cid, edges in enumerate(self.classes):
            body = " ".join(f"{u}-{v}" for u, v in sorted(edges))
            lines.append(f"class {cid}: {body}")
        return "\n".join(lines) + "\n"


def _components(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of `count` items with the smallest item joined to it
    through the pairs (a[i], b[i]).

    Union-find over arrays: every round hooks the larger root of each
    unmerged pair under the smaller one, then jumps pointers until every
    label is a root again.  Pointers only ever decrease, so each component
    ends up labelled by its minimum.
    """
    labels = np.arange(count)
    while True:
        la, lb = labels[a], labels[b]
        open_ = la != lb
        if not open_.any():
            return labels
        a, b, la, lb = a[open_], b[open_], la[open_], lb[open_]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _dense_components(adjacent: np.ndarray) -> np.ndarray:
    """Smallest index in each row's component of a symmetric boolean
    matrix, by min-label propagation with pointer jumping (faster than
    `_components` on the dense wedge matrices of one vertex)."""
    d = len(adjacent)
    labels = np.arange(d)
    while True:
        step = np.minimum(labels, np.where(adjacent, labels, d).min(axis=1))
        step = step[step]
        if np.array_equal(step, labels):
            return labels
        labels = step


def _c4_pairs(h: Graph) -> np.ndarray:
    """Boolean n x n matrix of the vertex pairs u != w with at least two
    common neighbors, from the codegree matrix A.A.  The float32 product
    is exact: codegrees stay far below 2**24."""
    a = np.zeros((h.n, h.n), dtype=np.float32)
    if h.edges:
        ends = np.array(h.edges)
        a[ends[:, 0], ends[:, 1]] = 1.0
        a[ends[:, 1], ends[:, 0]] = 1.0
    pairs = (a @ a) >= 2
    np.fill_diagonal(pairs, False)
    return pairs


def c4_bundles(h: Graph) -> list[tuple[int, int, list[int]]]:
    """Bundles (u, w, sorted common neighbors) for every pair u < w with at
    least two common neighbors, pairs in lexicographic order.  Each bundle's
    edges lie pairwise on shared 4-cycles, and the bundles generate the
    4-cycle relation."""
    us, ws = np.nonzero(np.triu(_c4_pairs(h), 1))
    return [(u, w, sorted(h.adj[u] & h.adj[w])) for u, w in zip(us.tolist(), ws.tolist())]


def _c4_labels(h: Graph) -> np.ndarray:
    """Per edge id (index into h.edges), the smallest edge id of its class.

    Edges (x, u) and (x, w) lie on a common 4-cycle x-u-y-w exactly when u
    and w have a common neighbor y other than x, i.e. codegree >= 2, and
    these wedges generate the relation (a bundle's edges are all joined
    through wedges at u, w and the common neighbors).  At each vertex x only
    a spanning forest of the wedges is merged: the edge to each neighbor
    joins the edge to the smallest neighbor of its component in the
    codegree >= 2 graph on N(x).  That is at most deg(x) - 1 pairs per
    vertex, O(m) in all.
    """
    m = len(h.edges)
    pairs = _c4_pairs(h)
    ends = np.array(h.edges, dtype=np.int64).reshape(-1, 2)
    # darts sorted by tail, then head: each vertex's sorted neighbors and edge ids
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.lexsort((head, tail))
    head, eid = head[order], np.tile(np.arange(m), 2)[order]
    bounds = np.searchsorted(tail[order], np.arange(h.n + 1))
    left, right = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for x in range(h.n):
        lo, hi = bounds[x], bounds[x + 1]
        if hi - lo < 2:
            continue
        nbrs, ids = head[lo:hi], eid[lo:hi]
        root = _dense_components(pairs[nbrs][:, nbrs])
        moved = np.flatnonzero(root != np.arange(hi - lo))
        left.append(ids[moved])
        right.append(ids[root[moved]])
    return _components(m, np.concatenate(left), np.concatenate(right))


def _partition(owner: Graph, labels: np.ndarray) -> ClosurePartition:
    """Partition from per-edge labels; classes numbered by smallest edge."""
    roots, cids = np.unique(labels, return_inverse=True)
    members: list[list] = [[] for _ in range(len(roots))]
    for e, cid in zip(owner.edges, cids.tolist()):
        members[cid].append(e)
    class_of = {e: cid for cid, es in enumerate(members) for e in es}
    return ClosurePartition(owner, class_of, tuple(frozenset(es) for es in members))


def c4_partition(h: Graph) -> ClosurePartition:
    """Edge classes generated by co-membership in a 4-cycle.

    Built once per graph and cached on it.  Cost: one n x n float32 matrix
    product for the codegrees, O(deg(x)^2) array work per vertex x for its
    wedge components (sum of deg^2 in all, vectorised), and an array
    union-find over O(m) pairs; memory O(n^2) bytes plus O(m).
    """
    if h._c4_partition is None:
        h._c4_partition = _partition(h, _c4_labels(h))
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
    m = len(g.edges)
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    cls = np.array([target.class_of[phi.edge_image(e)] for e in g.edges], dtype=np.int64)
    # source edges of one target class meeting at a vertex are joined: key
    # each edge end by (class, vertex) and tie it to the first edge of its key
    keys = np.concatenate([cls * g.n + ends[:, 0], cls * g.n + ends[:, 1]])
    ids = np.tile(np.arange(m), 2)
    distinct, group = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), m)
    np.minimum.at(first, group, ids)
    return _partition(g, _components(m, ids, first[group]))


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
    partition = phi_partition(phi)
    if not partition.is_stable(spec.stable_set):
        raise InputError("stable_set is not a union of closure classes")
    return _eval_raw(spec, f, phi)


def _eval_raw(spec: InvariantSpec, f: EdgeMultiset, phi: GraphHom) -> int:
    if spec.anchor is None:
        total = sum(m for e, m in f.counts.items() if e in spec.stable_set)
    else:
        u = spec.anchor
        total = sum(
            m
            for e, m in f.counts.items()
            if e in spec.stable_set and (phi.mapping[e[0]] == u or phi.mapping[e[1]] == u)
        )
    return total % 2


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
        k = len(self.partition.classes)
        plain = [0] * k
        anchored: Counter = Counter()
        for e, m in f.counts.items():
            cid = self.partition.class_of[e]
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


def verify_bipartite_complement(phi: GraphHom, spec: InvariantSpec, cycle_vertices) -> bool:
    """Check that the source minus the stable set is bipartite.

    `cycle_vertices` must be an odd cycle of the source on which the given
    invariant evaluates to 1; with a simply connected source this
    bipartiteness is guaranteed, so the check doubles as a validation
    harness.
    """
    g = phi.source
    if cycle_vertices[0] != cycle_vertices[-1] or (len(cycle_vertices) - 1) % 2 != 1:
        raise InputError("witness walk must be an odd closed walk")
    f = EdgeMultiset.from_walk_vertices(g, cycle_vertices)
    if eval_invariant(spec, f, phi) != 1:
        raise InputError("spec does not evaluate to 1 on the witness cycle")
    complement = [e for e in g.edges if e not in spec.stable_set]
    return is_bipartite(g.subgraph_on_edges(complement))[0]

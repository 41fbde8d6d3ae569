"""Reference implementations of the 4-cycle closure kernels.

Three generations of the library's kernel, each the reference of the next:
- the dictionary union-find versions that `oddwalk.closure` and
  `oddwalk.coloring` used before the array kernel (`c4_partition`,
  `phi_partition`, `c4_bundles`), the semantic reference.  `c4_bundles`
  also lists the bundles that `traversal_reference.c4_chain` searches for
  the ear chains of ear_chain.py.  `oracle_profile` is
  `InvariantOracle.profile` reading each class id from the dictionary view
  `class_of` instead of the partition's labels;
- the codegree matrix product that found the vertex pairs with two common
  neighbours before the bit-row kernel (`c4_pairs`);
- the array kernel that merged a spanning forest of each vertex's wedges
  from dense per-vertex wedge matrices, with its own min-label union-find,
  before the wedge components grew on the codegree bit rows with one
  union-find (`c4_labels`, `dense_components`), the scale reference: it
  handles samples of thousands of vertices, where the dictionary versions
  would take minutes.

The differential tests in test_closure_kernel.py require the library to
agree with them exactly: same pairs, same per-edge labels, same class
numbering, same class contents, same invariant profiles.
"""

from collections import Counter

import numpy as np

from oddwalk.closure import _components
from oddwalk.graph import canon_edge, csr_rows


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller canonical key wins as representative
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def finish_partition(find, keys):
    """(classes, class_of): the keys grouped by `find`, classes ordered by
    their smallest edge."""
    groups = {}
    for e in keys:
        groups.setdefault(find(e), []).append(e)
    ordered = sorted(groups.values(), key=lambda es: min(es))
    class_of = {}
    classes = []
    for cid, es in enumerate(ordered):
        classes.append(frozenset(es))
        for e in es:
            class_of[e] = cid
    return tuple(classes), class_of


def c4_partition(h):
    """Merge every bundle of a vertex pair with two or more common neighbors."""
    uf = UnionFind(h.edges)
    for u in range(h.n):
        for w in range(u + 1, h.n):
            common = h.adj[u] & h.adj[w]
            if len(common) < 2:
                continue
            bundle = [canon_edge(u, x) for x in common] + [canon_edge(w, x) for x in common]
            first = bundle[0]
            for e in bundle[1:]:
                uf.union(first, e)
    return finish_partition(uf.find, h.edges)


def phi_partition(phi):
    """Connected pieces of the preimages of the target's 4-cycle classes."""
    _, target_class_of = c4_partition(phi.target)
    uf = UnionFind(phi.source.edges)
    by_class = {}
    for e in phi.source.edges:
        by_class.setdefault(target_class_of[phi.edge_image(e)], []).append(e)
    for edges in by_class.values():
        incident = {}
        for e in edges:
            for v in e:
                if v in incident:
                    uf.union(incident[v], e)
                else:
                    incident[v] = e
    return finish_partition(uf.find, phi.source.edges)


def c4_bundles(h):
    """Bundles (u, w, sorted common neighbors) for pairs u < w in order."""
    bundles = []
    for u in range(h.n):
        for w in range(u + 1, h.n):
            common = sorted(h.adj[u] & h.adj[w])
            if len(common) >= 2:
                bundles.append((u, w, common))
    return bundles


def non_edge_message(source, target, mapping):
    """GraphHom's edge check as a loop over `source.edges`: the message
    naming the first edge that `mapping` sends to a non-edge, or None."""
    for u, v in source.edges:
        if not target.has_edge(mapping[u], mapping[v]):
            return f"edge ({u}, {v}) maps to non-edge ({mapping[u]}, {mapping[v]})"
    return None


def c4_pairs(h):
    """Boolean n x n matrix of the vertex pairs u != w with at least two
    common neighbors, from the codegree matrix A.A.  The float32 product
    is exact: codegrees stay far below 2**24."""
    a = np.zeros((h.n, h.n), dtype=np.float32)
    a[csr_rows(h.indptr), h.indices] = 1.0
    pairs = (a @ a) >= 2
    np.fill_diagonal(pairs, False)
    return pairs


def labels_partition(h, labels):
    """(classes, class_of) of the edges of h from one label per edge id."""
    return finish_partition(dict(zip(h.edges, labels.tolist())).__getitem__, h.edges)


def dense_components(adjacent):
    """Smallest index in each row's component of a symmetric boolean
    matrix, by min-label propagation with pointer jumping."""
    d = len(adjacent)
    labels = np.arange(d)
    while True:
        step = np.minimum(labels, np.where(adjacent, labels, d).min(axis=1))
        step = step[step]
        if np.array_equal(step, labels):
            return labels
        labels = step


def c4_labels(h):
    """Per edge id, its class id, classes numbered by their smallest edge:
    at each vertex x the edge to each neighbour joins the edge to the
    smallest neighbour of its component in the codegree >= 2 graph on N(x),
    found on the dense `c4_pairs(h)[nbrs][:, nbrs]` wedge matrix (sum of
    deg^2 cells)."""
    m = h.num_edges()
    pairs = c4_pairs(h)
    us, ws = h.edge_ends()
    # darts sorted by tail, then head: each vertex's sorted neighbors and edge ids
    tail = np.concatenate([us, ws])
    head = np.concatenate([ws, us])
    order = np.lexsort((head, tail))
    head, eid = head[order], np.tile(np.arange(m), 2)[order]
    bounds = np.searchsorted(tail[order], np.arange(h.n + 1))
    left, right = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for x in range(h.n):
        lo, hi = bounds[x], bounds[x + 1]
        if hi - lo < 2:
            continue
        nbrs, ids = head[lo:hi], eid[lo:hi]
        root = dense_components(pairs[nbrs][:, nbrs])
        moved = np.flatnonzero(root != np.arange(hi - lo))
        left.append(ids[moved])
        right.append(ids[root[moved]])
    return _components(m, np.concatenate(left), np.concatenate(right))


def oracle_profile(oracle, f):
    """(class parities, anchored parities) of the multiset f, as nested tuples."""
    partition, mapping = oracle.partition, oracle.phi.mapping
    plain = [0] * len(partition.sizes)
    anchored = Counter()
    for e, m in f.counts.items():
        cid = partition.class_of[e]
        plain[cid] ^= m & 1
        if m & 1:
            for u in {mapping[e[0]], mapping[e[1]]}:
                anchored[(cid, u)] ^= 1
    return tuple(plain), tuple(sorted(k for k, v in anchored.items() if v))

"""Pure-Python reference implementations of the 4-cycle closure kernels.

These are the dictionary union-find versions that `oddwalk.closure` and
`oddwalk.coloring` used before the array kernel; the differential tests in
test_closure_kernel.py require the library to agree with them exactly:
same class numbering, same class contents, same bundle order.
"""

from oddwalk.graph import canon_edge


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


def finish_partition(uf, keys):
    """(classes, class_of): classes ordered by their smallest edge."""
    groups = {}
    for e in keys:
        groups.setdefault(uf.find(e), []).append(e)
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
    return finish_partition(uf, h.edges)


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
    return finish_partition(uf, phi.source.edges)


def c4_bundles(h):
    """Bundles (u, w, sorted common neighbors) for pairs u < w in order."""
    bundles = []
    for u in range(h.n):
        for w in range(u + 1, h.n):
            common = sorted(h.adj[u] & h.adj[w])
            if len(common) >= 2:
                bundles.append((u, w, common))
    return bundles

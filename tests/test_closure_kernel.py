"""Differential and cache tests for the bit-row closure kernel.

`closure_reference` keeps the pure-Python union-find kernels, the codegree
matrix product and the dense per-vertex wedge kernel; the library must
reproduce their vertex pairs, per-edge labels, class numbering and class
contents (insertion order included, so frozenset iteration order matches
too).
"""

import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference as ref
from graphs import complete, cycle, example7, fuzz_corpus, path, petersen, random_graph, small_graphs
from oddwalk.borsuk import sample_approximation, tetrahedral_hom
from oddwalk.closure import (
    EdgeMultiset,
    GraphHom,
    InvariantOracle,
    _c4_labels,
    _c4_pairs,
    c4_partition,
    phi_partition,
)
from oddwalk.graph import Graph, canon_edge

EPS5 = math.pi / 5


def assert_same_partition(part, expected):
    classes, class_of = expected
    # the stored labels first, before any view is built from them
    assert part.labels.tolist() == [class_of[e] for e in part.owner.edges]
    assert part.sizes.tolist() == [len(c) for c in classes]
    assert part.classes == classes
    assert [list(c) for c in part.classes] == [list(c) for c in classes]
    assert part.class_of == class_of
    assert list(part.class_of) == list(class_of)


def pair_list(rows):
    """The (u, w) with bit w set in row u, in lexicographic order."""
    return [(u, w) for u, row in enumerate(rows) for w in range(row.bit_length()) if row >> w & 1]


def assert_same_pairs(g):
    rows = _c4_pairs(g)
    assert len(rows) == g.n and all(type(row) is int and 0 <= row < 1 << g.n for row in rows)
    expected = ref.c4_pairs(g)
    for u, row in enumerate(rows):
        assert [row >> w & 1 == 1 for w in range(g.n)] == expected[u].tolist(), u


def check_graph(g):
    assert_same_pairs(g)
    assert np.array_equal(_c4_labels(g), ref.c4_labels(g))
    assert_same_partition(c4_partition(g), ref.c4_partition(g))
    assert_same_partition(phi_partition(GraphHom.identity(g)), ref.phi_partition(GraphHom.identity(g)))


def quotient_hom(g, labels):
    """g minus the edges `labels` collapses, mapped onto its image graph."""
    kept = [e for e in g.edges if labels[e[0]] != labels[e[1]]]
    k = max(labels, default=-1) + 1
    source = Graph(g.n, kept)
    target = Graph(k, [canon_edge(labels[u], labels[v]) for u, v in kept])
    return GraphHom(source, target, tuple(labels))


CORPUS = fuzz_corpus() + [
    Graph(0, []),
    Graph(4, []),
    Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # a 4-cycle plus two isolated vertices
    path(6),
    complete(6),
    petersen(),
    cycle(4),
]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_kernel_matches_reference_on_corpus(index):
    check_graph(CORPUS[index])


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_on_random_graphs(g):
    check_graph(g)


@given(small_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_pullback_matches_reference_on_random_quotients(g, data):
    labels = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    phi = quotient_hom(g, labels)
    assert_same_partition(phi_partition(phi), ref.phi_partition(phi))


def test_kernel_matches_reference_on_300_vertex_sample():
    sample = sample_approximation(2, EPS5, 150, 5001)  # seed-pinned, 4,276 edges
    check_graph(sample.graph)
    phi = tetrahedral_hom(sample)
    assert_same_partition(phi_partition(phi), ref.phi_partition(phi))


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# vertex counts at and around the 64-bit word boundaries of the bit rows
@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_pairs_match_the_codegree_product_at_word_boundaries(n):
    for p in (0.05, 0.3):
        assert_same_pairs(random_graph(n, p, 1_000 + n))
    # vertex n - 1, the last bit of the rows, on a 4-cycle with vertex 0
    assert_same_pairs(Graph(n, [(0, 1), (1, n - 1), (n - 1, 2), (2, 0)]))


@pytest.mark.parametrize(
    "g",
    [Graph(0, []), Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]), Graph(9, [])],
    ids=["n0", "n1", "n2", "k2", "edgeless"],
)
def test_pairs_on_tiny_and_edgeless_graphs(g):
    assert_same_pairs(g)
    assert not any(_c4_pairs(g))


def test_pairs_when_the_highest_vertices_are_isolated():
    # the bit rows are one word wide although 200 vertices need four
    g = Graph(200, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 3)])
    assert_same_pairs(g)
    assert pair_list(_c4_pairs(g)) == [(0, 2), (1, 3), (2, 0), (3, 1)]


def test_pairs_need_exactly_two_common_neighbours():
    # a star's leaves share one neighbour: no pairs
    for k in (1, 2, 5):
        assert not any(_c4_pairs(star(k)))
    # K2,3: each side's pairs share the other side (2 or 3 common neighbours)
    sides = [range(2), range(2, 5)]
    expected = [(u, w) for side in sides for u in side for w in side if u != w]
    assert pair_list(_c4_pairs(complete_bipartite(2, 3))) == sorted(expected)
    # C4: the two diagonals, each with exactly two common neighbours
    assert pair_list(_c4_pairs(cycle(4))) == [(0, 2), (1, 3), (2, 0), (3, 1)]
    for g in (star(5), complete_bipartite(2, 3), cycle(4), complete_bipartite(3, 4)):
        assert_same_pairs(g)


def test_pairs_match_the_codegree_product_on_1000_vertex_sample():
    assert_same_pairs(sample_approximation(2, EPS5, 500, 1).graph)


def test_pairs_peak_memory_stays_below_four_bytes_per_vertex_pair():
    # the float32 codegree product peaks at 36 MB here
    g = sample_approximation(2, EPS5, 1000, 1).graph
    tracemalloc.start()
    try:
        _c4_pairs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * g.n * g.n, peak


def test_labels_match_the_dense_wedge_kernel_on_2000_vertex_sample():
    sample = sample_approximation(2, EPS5, 1000, 1)
    g = sample.graph  # 190,782 edges, one class
    labels = _c4_labels(g)
    assert np.array_equal(labels, ref.c4_labels(g))
    assert_same_partition(c4_partition(g), ref.labels_partition(g, labels))
    assert len(c4_partition(g).classes) == 1
    phi = tetrahedral_hom(sample)
    assert_same_partition(phi_partition(phi), ref.phi_partition(phi))


def test_wedge_components_whose_roots_are_not_the_smallest_neighbour():
    # three 4-cycles through vertex 0, on interleaved neighbours: N(0)
    # splits into the wedge components {1, 4}, {2, 5} and {3, 6}, whose
    # roots 2 and 3 are not 0's smallest neighbour 1
    g = Graph(10, [(0, 1), (1, 7), (7, 4), (4, 0), (0, 2), (2, 8), (8, 5), (5, 0),
                   (0, 3), (3, 9), (9, 6), (6, 0)])
    check_graph(g)
    part = c4_partition(g)
    assert [sorted(c) for c in part.classes] == [
        [(0, 1), (0, 4), (1, 7), (4, 7)],
        [(0, 2), (0, 5), (2, 8), (5, 8)],
        [(0, 3), (0, 6), (3, 9), (6, 9)],
    ]


def test_c4_partition_builds_no_tuple_or_set_views():
    g = sample_approximation(2, EPS5, 150, 1).graph
    c4_partition(g)
    for name in ("sorted_adj", "adj"):
        with pytest.raises(AttributeError):
            object.__getattribute__(g, name)  # an unset slot; a plain read would build it


def test_pullback_matches_reference_on_colorings_and_subgraphs():
    rnd = random.Random(8)
    for trial in range(40):
        h = random_graph(rnd.randint(2, 11), rnd.uniform(0.2, 0.8), 5_000 + trial)
        # identity vertex map from a spanning subgraph: not the identity hom
        g = Graph(h.n, [e for e in h.edges if rnd.random() < 0.7])
        sub = GraphHom(g, h, tuple(range(h.n)))
        assert_same_partition(phi_partition(sub), ref.phi_partition(sub))
        labels = [rnd.randrange(4) for _ in range(h.n)]
        phi = quotient_hom(h, labels)
        assert_same_partition(phi_partition(phi), ref.phi_partition(phi))


def test_identity_pullback_is_the_c4_partition():
    for g in CORPUS:
        part = c4_partition(g)
        assert phi_partition(GraphHom.identity(g)) is part
        # an equal but distinct target is still the identity
        assert phi_partition(GraphHom(g, Graph(g.n, g.edges), tuple(range(g.n)))).classes == part.classes


def test_partitions_are_cached_per_object():
    g = example7()
    assert c4_partition(g) is c4_partition(g)
    phi = GraphHom(cycle(10), cycle(5), tuple(i % 5 for i in range(10)))
    assert phi_partition(phi) is phi_partition(phi)
    # equal objects built separately hold their own partitions, and the
    # cache takes no part in equality
    assert c4_partition(Graph(g.n, g.edges)) is not c4_partition(g)
    assert GraphHom(phi.source, phi.target, phi.mapping) == phi


def test_partition_is_frozen():
    part = c4_partition(complete(4))
    with pytest.raises(FrozenInstanceError):
        part.classes = ()
    with pytest.raises(FrozenInstanceError):
        part.labels = None
    with pytest.raises(ValueError):
        part.labels[0] = 1  # the labels are read-only


def test_partition_views_are_built_on_first_read():
    g = example7()
    part = c4_partition(g)
    assert not {"sizes", "class_of", "classes"} & set(vars(part))
    # stability reads the class sizes off the labels, not the frozensets
    assert part.is_stable(frozenset(g.edges)) and not part.is_stable(frozenset({(0, 1)}))
    assert "classes" not in vars(part)
    assert part.classes is part.classes and part.class_of is part.class_of


def test_is_stable_on_subsets_and_unions():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)])
    part = c4_partition(g)
    square = part.class_edges((0, 1))
    assert len(square) == 4
    assert part.is_stable(frozenset())
    assert part.is_stable(square)
    assert part.is_stable(square | part.class_edges((3, 4)))
    assert not part.is_stable(square - {(0, 1)})
    assert not part.is_stable(frozenset({(0, 1), (3, 4)}))
    assert part.is_stable(frozenset(g.edges))


# ---------------------------------------------------------------------------
# the invariant oracle's profile, read from the labels


def random_multisets(g, rnd, count):
    """Edge multisets of g: empty, every edge once, and random ones with
    multiplicities 1-3."""
    edges = list(g.edges)
    out = [EdgeMultiset.from_edges(g, []), EdgeMultiset.from_edges(g, edges)]
    for _ in range(count if edges else 0):
        picked = rnd.sample(edges, rnd.randint(1, len(edges)))
        out.append(EdgeMultiset.from_edges(g, [e for e in picked for _ in range(rnd.randint(1, 3))]))
    return out


def assert_same_profiles(phi, multisets):
    oracle = InvariantOracle(phi)
    for f in multisets:
        assert oracle.profile(f) == ref.oracle_profile(oracle, f)


def test_oracle_profile_matches_reference_on_corpus():
    rnd = random.Random(12)
    for g in CORPUS:
        assert_same_profiles(GraphHom.identity(g), random_multisets(g, rnd, 20))
        labels = [rnd.randrange(3) for _ in range(g.n)]
        phi = quotient_hom(g, labels)
        assert_same_profiles(phi, random_multisets(phi.source, rnd, 20))


@given(small_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_profile_matches_reference_on_random_graphs(g, data):
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    assert_same_profiles(GraphHom.identity(g), random_multisets(g, rnd, 5))
    phi = quotient_hom(g, data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n)))
    assert_same_profiles(phi, random_multisets(phi.source, rnd, 5))


def test_oracle_profile_matches_reference_on_300_vertex_sample():
    sample = sample_approximation(2, EPS5, 150, 5001)
    rnd = random.Random(5)
    multisets = random_multisets(sample.graph, rnd, 10)
    assert_same_profiles(tetrahedral_hom(sample), multisets)
    assert_same_profiles(GraphHom.identity(sample.graph), multisets)


def test_oracle_profile_builds_no_edge_tuples_or_class_dict():
    g = sample_approximation(2, EPS5, 150, 1).graph
    walk = [0, *g.sorted_adj[0][:1], 0]
    oracle = InvariantOracle(GraphHom.identity(g))
    oracle.profile(EdgeMultiset.from_walk_vertices(g, walk))
    assert "class_of" not in vars(oracle.partition)
    with pytest.raises(AttributeError):
        object.__getattribute__(g, "edges")  # an unset slot; a plain read would build it

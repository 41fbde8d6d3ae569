"""Differential and cache tests for the array-backed closure kernel.

`closure_reference` keeps the pure-Python union-find kernels; the library
must reproduce their class numbering, class contents (insertion order
included, so frozenset iteration order matches too) and bundle order.
"""

import math
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference as ref
from graphs import complete, cycle, example7, fuzz_corpus, path, petersen, random_graph
from oddwalk.borsuk import sample_approximation, tetrahedral_hom
from oddwalk.closure import GraphHom, c4_bundles, c4_partition, phi_partition
from oddwalk.graph import Graph, canon_edge

EPS5 = math.pi / 5


def assert_same_partition(part, expected):
    classes, class_of = expected
    assert part.classes == classes
    assert [list(c) for c in part.classes] == [list(c) for c in classes]
    assert part.class_of == class_of
    assert list(part.class_of) == list(class_of)


def check_graph(g):
    assert_same_partition(c4_partition(g), ref.c4_partition(g))
    assert_same_partition(phi_partition(GraphHom.identity(g)), ref.phi_partition(GraphHom.identity(g)))
    assert c4_bundles(g) == ref.c4_bundles(g)


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


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_on_random_graphs(g):
    check_graph(g)


@given(graphs(), st.data())
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

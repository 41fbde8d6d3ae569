import itertools
import math
import random

import pytest
from hypothesis import given, settings

import closure_reference as ref
from graphs import complete, cycle, fuzz_corpus, path, petersen, random_graph, small_graphs
from oddwalk.borsuk import sample_approximation
from oddwalk.closure import GraphHom
from oddwalk.errors import InputError
from oddwalk.graph import Graph, canon_edge, has_cycle_of_length
from oddwalk.homsearch import (
    FOUND,
    NONE,
    TIMEOUT,
    _merge,
    fold_search,
    hom_exists,
)


def brute_force_hom(g, h):
    for values in itertools.product(range(h.n), repeat=g.n):
        if all(h.has_edge(values[u], values[v]) for u, v in g.edges):
            return values
    return None


def test_hom_exists_named():
    assert hom_exists(cycle(5), cycle(5)).status == FOUND
    assert hom_exists(petersen(), cycle(5)).status == NONE
    r = hom_exists(cycle(7), cycle(5))
    assert r.status == FOUND
    GraphHom(r.hom.source, r.hom.target, r.hom.mapping)  # raises on a non-homomorphism


def test_hom_exists_found_witnesses_verify():
    rnd = random.Random(3)
    for trial in range(60):
        g = random_graph(rnd.randint(1, 6), rnd.uniform(0.2, 0.8), 100 + trial)
        h = random_graph(rnd.randint(1, 4), rnd.uniform(0.3, 0.9), 200 + trial)
        r = hom_exists(g, h)
        if r.status == FOUND:
            GraphHom(r.hom.source, r.hom.target, r.hom.mapping)


def test_hom_exists_agrees_with_brute_force_50_pairs():
    rnd = random.Random(9)
    pairs = 0
    trial = 0
    while pairs < 50:
        trial += 1
        g = random_graph(rnd.randint(1, 6), rnd.uniform(0.2, 0.9), 300 + trial)
        h = random_graph(rnd.randint(1, 4), rnd.uniform(0.2, 0.9), 400 + trial)
        expected = brute_force_hom(g, h)
        r = hom_exists(g, h)
        assert r.status in (FOUND, NONE)
        assert (r.status == FOUND) == (expected is not None)
        pairs += 1


def test_hom_exists_timeout():
    g = random_graph(14, 0.4, 5)
    h = random_graph(6, 0.3, 6)
    r = hom_exists(g, h, node_budget=3)
    assert r.status in (TIMEOUT, FOUND, NONE)
    r2 = hom_exists(petersen(), cycle(5), node_budget=5)
    assert r2.status == TIMEOUT


def test_hom_exists_deeper_than_the_recursion_limit():
    r = hom_exists(path(1500), complete(2))
    assert r.status == FOUND
    assert r.nodes == 1501
    assert r.hom.mapping == tuple(v % 2 for v in range(1501))


def test_constant_map_fails_on_edges():
    g = complete(3)
    with pytest.raises(InputError):
        GraphHom(g, complete(3), (0, 0, 0))


def test_verify_hom_revalidates():
    g = complete(3)
    identity = GraphHom.identity(g)
    GraphHom(identity.source, identity.target, identity.mapping)
    # simulate a corrupted record that bypassed construction-time checks:
    # rebuilding it from its fields runs them again
    broken = object.__new__(GraphHom)
    object.__setattr__(broken, "source", g)
    object.__setattr__(broken, "target", g)
    object.__setattr__(broken, "mapping", (0, 0, 0))
    with pytest.raises(InputError):
        GraphHom(broken.source, broken.target, broken.mapping)


# ---------------------------------------------------------------------------
# fold search


def merge_by_relabelling(g, keep, drop):
    """The merge as it was built before the row constructor: every edge
    relabelled, re-canonicalised and validated by `Graph`; with the label
    of every vertex."""

    def relabel(v):
        if v == drop:
            v = keep
        return v - 1 if v > drop else v

    edges = {canon_edge(relabel(u), relabel(v)) for u, v in g.edges}
    return Graph(g.n - 1, edges), [relabel(v) for v in range(g.n)]


def check_merges(g):
    for keep in range(g.n):
        for drop in range(g.n):
            if keep == drop or g.has_edge(keep, drop):
                continue
            (got, label), (want, want_label) = _merge(g, keep, drop), merge_by_relabelling(
                g, keep, drop
            )
            assert (got.n, got.edges, got.sorted_adj, got.adj) == (
                want.n, want.edges, want.sorted_adj, want.adj
            )
            assert label.tolist() == want_label


MERGE_CORPUS = fuzz_corpus() + [path(5), Graph(6, [(0, 1), (3, 4)])]


@pytest.mark.parametrize("index", range(len(MERGE_CORPUS)))
def test_merge_matches_relabelled_rebuild_on_corpus(index):
    check_merges(MERGE_CORPUS[index])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_merge_matches_relabelled_rebuild_on_random_graphs(g):
    check_merges(g)


def test_fold_c5_reaches_k3():
    # an odd cycle folds down to a triangle (through a triangle-with-pendant)
    trace = fold_search(cycle(5), {7})
    assert trace.final_graph.n == 3
    assert trace.final_graph.num_edges() == 3
    assert has_cycle_of_length(trace.final_graph, 7).status == "NO"
    GraphHom(cycle(5), trace.final_graph, trace.mapping)  # raises on a non-homomorphism


def test_fold_c7_small_quotient_with_short_odd_cycle():
    trace = fold_search(cycle(7), {9})
    assert trace.final_graph.n <= 5
    girth_hits = [
        has_cycle_of_length(trace.final_graph, k).status for k in (3, 5)
    ]
    assert "YES" in girth_hits  # an odd-cycle image keeps an odd cycle
    GraphHom(cycle(7), trace.final_graph, trace.mapping)


def test_fold_k4_is_rigid():
    trace = fold_search(complete(4), {5})
    assert trace.final_graph == complete(4)
    assert trace.steps == []


def test_fold_rejects_dirty_input():
    # the input must already avoid every forbidden length
    with pytest.raises(InputError, match="5-cycle"):
        fold_search(cycle(5), {5})
    with pytest.raises(InputError, match="odd"):
        fold_search(cycle(5), {4})


def test_fold_rejects_a_beam_below_one():
    # a level cut to [:beam] keeps no state at beam 0 and drops the last one at -1
    for beam in (0, -1):
        with pytest.raises(InputError, match="beam must be at least 1"):
            fold_search(cycle(7), {5}, beam=beam, seed=3)


def test_fold_quotients_are_homomorphic_images():
    rnd = random.Random(31)
    done = 0
    trial = 0
    while done < 10:
        trial += 1
        g = random_graph(rnd.randint(4, 9), rnd.uniform(0.2, 0.5), 700 + trial)
        if has_cycle_of_length(g, 5).status != "NO":
            continue
        trace = fold_search(g, {5}, beam=2, budget=10**5, seed=trial)
        assert has_cycle_of_length(trace.final_graph, 5).status == "NO"
        GraphHom(g, trace.final_graph, trace.mapping)
        assert trace.final_graph.n <= g.n
        done += 1


def hom_error(g, quotient, mapping):
    try:
        GraphHom(g, quotient, mapping)
    except InputError as err:
        return str(err)
    return None


@pytest.mark.parametrize("index", range(len(fuzz_corpus()) + 2))
def test_graph_hom_matches_edge_loop_on_corrupted_fold_maps(index):
    # every one-vertex corruption of a fold's map: the same verdict, and the
    # same message naming the first failing edge in g.edges order
    g = (fuzz_corpus() + [cycle(7), cycle(9)])[index]
    trace = fold_search(g, {2 * g.n + 1}, beam=2, budget=10**4, seed=index)
    q = trace.final_graph
    assert hom_error(g, q, trace.mapping) is None
    failures = 0
    for v in range(g.n):
        for x in range(q.n):
            mapping = trace.mapping[:v] + (x,) + trace.mapping[v + 1 :]
            want = ref.non_edge_message(g, q, mapping)
            assert hom_error(g, q, mapping) == want
            failures += want is not None
    assert failures > 0


def test_fold_accepts_a_1000_vertex_sample_with_a_small_budget():
    # the exact odd-walk check certifies the input 5-cycle-free; the DFS
    # alone ran out of its 10**7 expansions here
    g = sample_approximation(2, math.pi / 5, 500, 1).graph
    assert (g.n, g.num_edges()) == (1000, 47_698)
    trace = fold_search(g, {5}, beam=1, budget=1000, seed=1, candidate_cap=4)
    GraphHom(g, trace.final_graph, trace.mapping)
    assert trace.final_graph.n == g.n - len(trace.steps)

"""Differential tests for the traversal kernels in `oddwalk.traverse`.

`traversal_reference` keeps the hand-rolled searches the kernels replaced;
every routine that now goes through a kernel must return exactly what its
reference returns: walks, witnesses, statuses, expansion and node counts,
move logs and states_explored, also when a budget or cap runs out.  The
one planned difference: `has_cycle_of_length` with an odd length answers
NO after 0 expansions when the graph has no closed odd walk that short
(`expected_cycle_search`), and otherwise returns the reference DFS's result.
"""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traversal_reference as ref
from graphs import (
    complete,
    cycle,
    example7,
    fuzz_corpus,
    path,
    petersen,
    random_graph,
    small_graphs,
)
from oddwalk import graph as graph_module
from oddwalk import homsearch
from oddwalk.borsuk import sample_approximation
from oddwalk.coloring import _cycle_through_edge, color_closure_subgraph
from oddwalk.errors import OddwalkError
from oddwalk.graph import (
    NO,
    YES,
    Graph,
    degeneracy_order,
    double_cover_odd_walk,
    has_cycle_of_length,
    is_bipartite,
    is_connected,
    shortest_odd_cycle,
)
from oddwalk.homotopy import Walk, are_homotopic
from oddwalk.homsearch import fold_search, hom_exists
from oddwalk.ncomplex import build_ncomplex, equivalent_edge_paths, walk_to_edgepath
from oddwalk.rng import Stream
from oddwalk.traverse import bfs, depths, meet_in_the_middle, path_to_root, simple_path_dfs

EPS5 = math.pi / 5
BUDGETS = (3, 50, 10**7)  # the small ones run out: UNKNOWN with budget + 1 expansions

CORPUS = fuzz_corpus() + [
    Graph(0, []),
    Graph(4, []),
    Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]),  # triangle, path, isolated vertex
    path(6),
    cycle(4),
    cycle(9),
    complete(6),
    Graph(1, []),
    Graph(4, [(1, 2), (2, 3), (3, 1)]),  # vertex 0, where a BFS from 0 starts, isolated
]


def check_bipartite_and_walks(g):
    ok, witness = is_bipartite(g)
    expected_ok, expected_witness = ref.is_bipartite(g)
    assert ok == expected_ok
    if ok:
        assert list(witness.items()) == list(expected_witness.items())
    else:
        assert witness == expected_witness
    for v in range(g.n):
        walk = double_cover_odd_walk(g, v)
        assert walk == ref.double_cover_odd_walk(g, v)
        # the per-root layered search's length is the double-cover distance
        length = ref.odd_closed_walk_length(g.sorted_adj, v, math.inf)
        if walk is None:
            assert length is None
            continue
        assert length == len(walk) - 1
        # the bound is exclusive: a walk of exactly the bound is not reported
        assert ref.odd_closed_walk_length(g.sorted_adj, v, length) is None
        assert ref.odd_closed_walk_length(g.sorted_adj, v, length + 1) == length
    check_shortest_odd_cycle(g)


# root blocks of one root, of a few, of one 64-bit word, just over one word
# (a second word with one bit) and the default
ROOT_BLOCKS = (1, 3, 64, 65, 1024)


def check_shortest_odd_cycle(g, blocks=ROOT_BLOCKS):
    """The bit-column search returns the reference's cycle whatever the
    root block."""
    want = ref.shortest_odd_cycle(g)
    with pytest.MonkeyPatch.context() as patch:
        for block in blocks:
            patch.setattr(graph_module, "ROW_BLOCK", block)
            assert shortest_odd_cycle(g) == want, block


def expected_cycle_search(g, k, budget):
    """The reference DFS's (status, witness, expansions), after the exact
    check that has_cycle_of_length runs first: for odd k, a graph with no
    closed odd walk of length at most k (odd girth above k, found by the
    reference's full double-cover search) has no k-cycle, and the answer is
    NO after 0 expansions."""
    if k % 2:
        shortest = ref.shortest_odd_cycle(g)
        if shortest is None or len(shortest) - 1 > k:
            return (NO, None, 0)
    want = ref.has_cycle_of_length(g, k, budget=budget)
    return (want.status, want.witness, want.expansions)


def check_cycle_searches(g, lengths, budgets=BUDGETS):
    for k in lengths:
        for budget in budgets:
            got = has_cycle_of_length(g, k, budget=budget)
            assert (got.status, got.witness, got.expansions) == expected_cycle_search(g, k, budget)
            # the fold search's cycle check through one vertex
            for w in range(g.n):
                status, _, used = simple_path_dfs(g, w, k - 1, w, budget=budget)
                assert (status, used) == ref.cycle_through_vertex_status(g, w, k, budget)
        for e in g.edges:
            assert _cycle_through_edge(g, e, k) == ref.cycle_through_edge(g, e, k)


def check_connected(g):
    assert is_connected(g) == (len(ref.connected_components(g)) <= 1)


def closure_coloring_outcome(color, g, f, r):
    """The colouring's assignment (in insertion order) and palette, or the error raised."""
    try:
        out = color(g, f, r)
    except OddwalkError as exc:
        return type(exc), str(exc)
    return list(out.assignment.items()), out.palette_size


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_closure_coloring_matches_reference_on_corpus(index):
    g = CORPUS[index]
    for f in g.edges:
        for r in (2, 3, 4):
            assert closure_coloring_outcome(color_closure_subgraph, g, f, r) == (
                closure_coloring_outcome(ref.color_closure_subgraph, g, f, r)
            )


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_kernels_match_reference_on_corpus(index):
    g = CORPUS[index]
    check_bipartite_and_walks(g)
    check_cycle_searches(g, range(3, min(g.n, 8) + 1))
    check_connected(g)
    assert degeneracy_order(g) == ref.degeneracy_order(g)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_kernels_match_reference_on_random_graphs(g):
    check_bipartite_and_walks(g)
    check_cycle_searches(g, range(3, min(g.n, 7) + 1), budgets=(3, 50, 10**5))
    check_connected(g)
    assert degeneracy_order(g) == ref.degeneracy_order(g)


def test_kernels_match_reference_on_300_vertex_sample():
    g = sample_approximation(2, EPS5, 150, 5001).graph  # seed-pinned, 4,276 edges
    check_bipartite_and_walks(g)
    check_connected(g)
    assert degeneracy_order(g) == ref.degeneracy_order(g)
    for k in (3, 5, 7):
        for budget in (50, 10**4):
            got = has_cycle_of_length(g, k, budget=budget)
            assert (got.status, got.witness, got.expansions) == expected_cycle_search(g, k, budget)
        for w in range(0, g.n, 37):
            status, _, used = simple_path_dfs(g, w, k - 1, w, budget=2000)
            assert (status, used) == ref.cycle_through_vertex_status(g, w, k, 2000)
    for e in g.edges[::1069]:  # the reference's looser pruning makes it slow here
        for length in (3, 5, 7):
            assert _cycle_through_edge(g, e, length) == ref.cycle_through_edge(g, e, length)


def friendship(k):
    """k triangles sharing vertex 0: odd girth 3, no cycle longer than 3."""
    triangles = [(0, 2 * i + 1, 2 * i + 2) for i in range(k)]
    return Graph(2 * k + 1, [e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))])


@pytest.mark.parametrize("g", [complete(4), friendship(3), friendship(5)], ids=repr)
def test_cycle_check_runs_the_dfs_when_a_short_odd_walk_exists(g):
    # triangles, so a closed odd walk of every odd length; no 5-cycle
    got = has_cycle_of_length(g, 5)
    want = ref.has_cycle_of_length(g, 5)
    assert (got.status, got.expansions) == (NO, want.expansions) and got.expansions > 0
    assert has_cycle_of_length(g, 3).status == "YES"


def check_verdicts(g, lengths):
    """With budget to spare, every verdict is the reference DFS's, witness
    included; with budget 3 the exact check turns UNKNOWN into NO only
    where the odd girth exceeds k."""
    for k in lengths:
        got, want = has_cycle_of_length(g, k), ref.has_cycle_of_length(g, k)
        assert (got.status, got.witness) == (want.status, want.witness)
        short = has_cycle_of_length(g, k, budget=3)
        assert short.status in (want.status, "UNKNOWN")
        assert short.status == expected_cycle_search(g, k, 3)[0]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_cycle_check_keeps_every_dfs_verdict_on_corpus(index):
    check_verdicts(CORPUS[index], range(3, min(CORPUS[index].n, 9) + 1))


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_cycle_check_keeps_every_dfs_verdict_on_random_graphs(g):
    check_verdicts(g, range(3, min(g.n, 9) + 1))


def bipartite_with_triangle(half, degree, seed):
    """A random bipartite graph on 2 * half vertices, about `degree` edges
    per vertex on each side, with a triangle hung on vertex 0.  Every odd
    closed walk goes round the triangle, so for odd k the exact check
    cannot answer and the DFS runs, to exhaustion when there is no
    k-cycle."""
    rnd = random.Random(seed)
    edges = {(rnd.randrange(half), half + rnd.randrange(half)) for _ in range(degree * half)}
    a, b = 2 * half, 2 * half + 1
    return Graph(2 * half + 2, sorted(edges | {(0, a), (a, b), (0, b)}))


def check_above_the_cap(g, budgets=BUDGETS):
    """With the cap at 4 vertices, every search on g with k = 3-9 runs on
    copies, and must still be the reference DFS.  With 3- and 6-vertex
    blocks most searches leave their start's block, so the DFS runs on
    copies of both kinds; a copy that lost the shortest paths through
    vertices below the start, or below its block, would measure longer
    distances and prune differently."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "ODD_WALK_CHECK_MAX_VERTICES", 4)
        for block in (3, 6, 1024):
            patch.setattr(graph_module, "ROW_BLOCK", block)
            for k in range(3, min(g.n, 9) + 1):
                for budget in budgets:
                    got = has_cycle_of_length(g, k, budget=budget)
                    want = ref.has_cycle_of_length(g, k, budget=budget)
                    if g.n > 4:
                        want = (want.status, want.witness, want.expansions)
                    else:
                        want = expected_cycle_search(g, k, budget)
                    assert (got.status, got.witness, got.expansions) == want


def test_cycle_check_above_the_vertex_cap_is_the_dfs():
    # a shared block copy without the ball vertices below the block takes
    # 207 expansions on this graph at k = 7 with 6-vertex blocks, not 208
    below_the_block = Graph(12, [
        (0, 3), (1, 7), (1, 8), (2, 6), (2, 8), (2, 11), (3, 10), (4, 11),
        (5, 8), (5, 10), (5, 11), (6, 8), (6, 9), (7, 11), (8, 10), (10, 11),
    ])
    for g in CORPUS + [cycle(6), cycle(8), bipartite_with_triangle(10, 3, 2), below_the_block]:
        check_above_the_cap(g)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_cycle_check_above_the_vertex_cap_is_the_dfs_on_random_graphs(g):
    check_above_the_cap(g, budgets=(3, 50, 10**5))


@pytest.mark.parametrize(
    "half, degree, seed", [(6, 2, 1), (10, 3, 2), (15, 3, 3), (20, 4, 4), (40, 4, 5)]
)
def test_cycle_check_matches_reference_when_the_dfs_runs_to_exhaustion(half, degree, seed):
    g = bipartite_with_triangle(half, degree, seed)
    for k in (5, 7):
        want = ref.has_cycle_of_length(g, k)
        got = has_cycle_of_length(g, k)
        assert (got.status, got.witness, got.expansions) == (
            want.status, want.witness, want.expansions
        )
        assert got.status == NO and got.expansions > 0
        for budget in (1, 2, got.expansions // 3, got.expansions - 1, got.expansions):
            got = has_cycle_of_length(g, k, budget=budget)
            want = ref.has_cycle_of_length(g, k, budget=budget)
            assert (got.status, got.witness, got.expansions) == (
                want.status, want.witness, want.expansions
            )


def test_cycle_check_on_a_long_path_packs_only_the_rows_it_reaches():
    # above ODD_WALK_CHECK_MAX_VERTICES the exact check is skipped, and the
    # DFS from vertex 0 reads the rows of a copy of its block: no n * n / 8
    # bytes of bit rows
    n = 200_000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)] + [(0, 4)])
    tracemalloc.start()
    try:
        got = has_cycle_of_length(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = ref.has_cycle_of_length(g, 5)
    assert (got.status, got.witness) == (YES, [0, 1, 2, 3, 4, 0])
    assert (got.status, got.witness, got.expansions) == (want.status, want.witness, want.expansions)
    assert peak < n * n / 8 / 20, peak


@pytest.mark.parametrize("spread", [False, True], ids=["adjacent", "spread"])
def test_cycle_check_above_the_vertex_cap_keeps_memory_linear(spread):
    # 5,600 disjoint triangles: no 5-cycle, so the DFS runs from every start.
    # Bit rows as wide as the vertex ids, kept for every start, would add up
    # to about n * n / 16 bytes; the searches run on copies of a block or
    # less.  With spread labels every triangle's vertices lie in different
    # 1,024-vertex blocks, so each start gets a copy of its own triangle.
    t = 5600
    n = 3 * t
    step = t if spread else 1
    triangles = [(a, a + step, a + 2 * step) for a in (range(t) if spread else range(0, n, 3))]
    g = Graph(n, [e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))])
    assert n > graph_module.ODD_WALK_CHECK_MAX_VERTICES
    g.sorted_adj, g.adj  # the graph's own views, not the search's memory
    tracemalloc.start()
    try:
        got = has_cycle_of_length(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per triangle a < b < c: 5 expansions from a, 2 from b, 1 from c
    assert (got.status, got.expansions) == (NO, 8 * t)
    assert peak < n * n / 8 / 20, peak


def full_distances(g, end):
    """Graph distances to `end`, infinite for every vertex it cannot reach."""
    d = depths(bfs([end], g.sorted_neighbors))
    return {v: d.get(v, math.inf) for v in range(g.n)}


def expected_under_budget(full, budget):
    """The reference walk's result under `budget`, from its unlimited run
    `full`: it counts one expansion at a time and stops at the first count
    above the budget, so any budget below what the full run spends ends in
    UNKNOWN with floor(budget) + 1 expansions."""
    return full if budget >= full[2] else ("UNKNOWN", None, math.floor(budget) + 1)


def check_path_dfs(g, rnd):
    """`simple_path_dfs` against the walk-every-vertex reference: steps 1-6,
    each of lowest (above 0), blocked and pruning on or off, unlimited and
    finite budgets.  The library prunes with `prune=True`, the reference
    with the full distances to `end` (infinite where `end` cannot reach).
    When g has more than one component, about half of the start/end pairs
    lie in different components.  The reference runs at the budget it
    spends, one below and two random ones.  The last two layers are
    counted in bulk, so every budget from 1 to spent + 1 is checked when
    the search spends at most 500 expansions, and 50 random ones
    otherwise, so budgets land inside the counted blocks."""
    if g.n == 0:
        return
    component = {v: i for i, comp in enumerate(ref.connected_components(g)) for v in comp}
    for steps in range(1, 7):
        for use_lowest, use_blocked, use_prune in itertools.product((False, True), repeat=3):
            start, end = rnd.randrange(g.n), rnd.randrange(g.n)
            apart = [v for v in range(g.n) if component[v] != component[start]]
            if apart and rnd.random() < 0.5:
                end = rnd.choice(apart)
            blocked = rnd.choice([start, rnd.randrange(g.n)]) if use_blocked else None
            kwargs = {"lowest": rnd.randint(1, g.n) if use_lowest else 0, "blocked": blocked}
            lib = dict(kwargs, prune=use_prune)
            kwargs["dist"] = full_distances(g, end) if use_prune else None
            want = ref.simple_path_dfs(g, start, steps, end, **kwargs)
            assert simple_path_dfs(g, start, steps, end, **lib) == want
            spent = want[2]
            for budget in {spent, spent - 1, rnd.randint(1, spent + 1), rnd.randint(1, 3)}:
                got = simple_path_dfs(g, start, steps, end, budget=budget, **lib)
                assert got == ref.simple_path_dfs(g, start, steps, end, budget=budget, **kwargs)
                assert got == expected_under_budget(want, budget)
            if spent <= 500:
                budgets = range(1, spent + 2)
            else:
                budgets = [rnd.randint(1, spent + 1) for _ in range(50)]
            for budget in budgets:
                got = simple_path_dfs(g, start, steps, end, budget=budget, **lib)
                assert got == expected_under_budget(want, budget)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_simple_path_dfs_matches_reference_on_corpus(index):
    rnd = random.Random(index)
    for _ in range(4):
        check_path_dfs(CORPUS[index], rnd)


@given(small_graphs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_simple_path_dfs_matches_reference_on_random_graphs(g, seed):
    check_path_dfs(g, random.Random(seed))


def test_simple_path_dfs_charges_a_hit_at_its_rank():
    # from 0 along 0-1, the last layer after 1 holds 2, 3 and 4; only 4 is
    # adjacent to the end 5, so the hit costs three expansions
    g = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)])
    assert simple_path_dfs(g, 0, 2, 5) == ("YES", [0, 1, 4], 5)
    assert simple_path_dfs(g, 0, 2, 5, budget=5) == ("YES", [0, 1, 4], 5)
    assert simple_path_dfs(g, 0, 2, 5, budget=4) == ("UNKNOWN", None, 5)
    assert simple_path_dfs(g, 0, 2, 5, budget=2) == ("UNKNOWN", None, 3)
    # with distances to the end only 4 (distance 1) is a candidate
    assert simple_path_dfs(g, 0, 2, 5, prune=True) == ("YES", [0, 1, 4], 3)


def traced_fold(g, forbidden, reference, **kwargs):
    """fold_search's describe(), each admissibility search's (status, path,
    expansions) and the stream counter after each candidate ranking, with
    the library's search and ranking or with the reference ones."""
    dfs = ref.simple_path_dfs if reference else simple_path_dfs
    rank = ref.ranked_pairs if reference else homsearch._ranked_pairs
    calls, counters = [], []

    def recorded_dfs(*args, **kw):
        calls.append(dfs(*args, **kw))
        return calls[-1]

    def recorded_rank(graph, stream, cap):
        ranked = rank(graph, stream, cap)
        counters.append(stream.counter)
        return ranked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homsearch, "simple_path_dfs", recorded_dfs)
        patch.setattr(homsearch, "_ranked_pairs", recorded_rank)
        return fold_search(g, forbidden, **kwargs).describe(), calls, counters


def test_fold_search_matches_reference_path_dfs():
    # every expansion is spent from the fold's budget, so a miscount moves
    # `spent` and with it each search's share and the merges that get tried;
    # each search's (status, path, expansions) is compared as well
    g = sample_approximation(2, EPS5, 50, 94).graph  # 100 vertices; two merges close a 5-cycle
    kwargs = {"beam": 2, "budget": 2 * 10**5, "seed": 3}
    got = traced_fold(g, {5}, False, **kwargs)
    assert got == traced_fold(g, {5}, True, **kwargs)
    assert got[0]["merges"]
    assert {status for status, _, _ in got[1]} == {"YES", "NO", "UNKNOWN"}


@given(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=20000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([{5}, {5, 7}, {7}]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_fold_search_matches_reference_on_random_samples(
    count, sample_seed, budget, beam, forbidden, seed
):
    # pi/5 samples have no 5-cycle; small budgets make shares run out
    g = sample_approximation(2, EPS5, count, sample_seed).graph
    if 7 in forbidden and has_cycle_of_length(g, 7).status != NO:
        return
    kwargs = {"beam": beam, "budget": budget, "seed": seed}
    got = traced_fold(g, forbidden, False, **kwargs)
    assert got == traced_fold(g, forbidden, True, **kwargs)


def test_ranked_pairs_matches_reference():
    for g in [*CORPUS, sample_approximation(2, EPS5, 150, 5001).graph]:
        for cap in (0, 1, 5, 64, 10**6):
            for seed in (0, 7):
                stream, want_stream = Stream(seed), Stream(seed)
                stream.counter = want_stream.counter = 11
                got = homsearch._ranked_pairs(g, stream, cap)
                assert got == ref.ranked_pairs(g, want_stream, cap)
                assert stream.counter == want_stream.counter


def disjoint_union(*graphs):
    edges, at = [], 0
    for h in graphs:
        edges += [(u + at, w + at) for u, w in h.edges]
        at += h.n
    return Graph(at, edges)


@pytest.mark.parametrize("g", [
    Graph(0, []),
    Graph(1, []),
    Graph(70, []),
    disjoint_union(Graph(3, []), path(5), cycle(6), complete(2)),  # bipartite only
    disjoint_union(path(4), Graph(2, []), cycle(8), cycle(5), Graph(3, []), cycle(10)),
    # the shortest cycle's first root in word 1 or 2 of a block of 1,024
    disjoint_union(Graph(70, []), cycle(5), Graph(3, []), cycle(7)),
    disjoint_union(path(129), cycle(9), cycle(4), cycle(11)),
], ids=repr)
def test_shortest_odd_cycle_with_isolated_vertices_and_bipartite_parts(g):
    check_shortest_odd_cycle(g)


@pytest.mark.parametrize("n, p, seed", [
    (70, 0.05, 1), (70, 0.12, 2), (96, 0.04, 3), (129, 0.03, 4), (150, 0.02, 5), (150, 0.06, 6),
])
def test_shortest_odd_cycle_matches_reference_on_larger_random_graphs(n, p, seed):
    # 70-150 roots: two or three 64-bit words per block of 1,024
    check_shortest_odd_cycle(random_graph(n, p, seed))


@pytest.mark.parametrize("block", ROOT_BLOCKS)
def test_shortest_odd_cycle_in_a_later_block_and_a_tie_after_it(block):
    # with blocks of 64 roots or more, block 0 is bipartite, block 1 holds a
    # 9-cycle, block 2 a shorter 7-cycle, and block 3 another 7-cycle, which
    # ties and must not win
    g = disjoint_union(
        Graph(max(block - 6, 0), []), cycle(6), cycle(9),
        Graph(block, []), cycle(7), Graph(block, []), cycle(7), path(3),
    )
    first = max(block, 6) + 9 + block  # the first 7-cycle's smallest vertex
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "ROW_BLOCK", block)
        got = shortest_odd_cycle(g)
    assert got == ref.shortest_odd_cycle(g) == list(range(first, first + 7)) + [first]


def test_shortest_odd_cycle_keeps_memory_linear():
    # 10,000 disjoint triangles: 30 root blocks of one or two rounds each.
    # Dense bit rows would take n / 8 bytes per vertex (112 MB here); the
    # search keeps a few n x 16-word matrices and one copy of the darts
    n = 30_000
    g = Graph(n, [e for a in range(0, n, 3) for e in ((a, a + 1), (a, a + 2), (a + 1, a + 2))])
    g.sorted_adj  # the graph's own view, which the closing walk reads
    tracemalloc.start()
    try:
        got = shortest_odd_cycle(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0, 1, 2, 0]
    assert peak < 1000 * n, peak


def test_shortest_odd_cycle_on_a_deep_cycle():
    g = cycle(1501)  # 750 rounds in each of its two root blocks
    assert shortest_odd_cycle(g) == ref.shortest_odd_cycle(g) == list(range(1501)) + [0]


def random_walk(rnd, g, start, length):
    vs = [start]
    for _ in range(length):
        vs.append(rnd.choice(g.sorted_neighbors(vs[-1])))
    return Walk(g, vs)


def walk_pairs(g, seed, count):
    """Same-endpoint, same-parity walk pairs, a few of them equal."""
    rnd = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p = random_walk(rnd, g, rnd.randrange(g.n), rnd.randint(1, 5))
        if rnd.random() < 0.05:
            pairs.append((p, p))
            continue
        q = random_walk(rnd, g, p.start, p.length + rnd.choice((0, 2)))
        if q.end == p.end and q != p:
            pairs.append((p, q))
    return pairs


def moved_pairs(g, seed, count):
    """Walk pairs (p, q) with q reached from p by 1-4 random legal moves,
    drawn from the reference move generator."""
    rnd = random.Random(seed)
    pairs = []
    for _ in range(count):
        p = random_walk(rnd, g, rnd.randrange(g.n), rnd.randint(1, 5))
        q = p
        for _ in range(rnd.randint(1, 4)):
            q = rnd.choice(ref.legal_moves(q, p.length + 4))[1]
        pairs.append((p, q))
    return pairs


@pytest.mark.parametrize(
    "g",
    [example7(), complete(4), petersen(), cycle(5), sample_approximation(2, EPS5, 150, 5001).graph],
    ids=repr,
)
def test_are_homotopic_matches_reference(g):
    for p, q in walk_pairs(g, g.n, 12) + moved_pairs(g, g.n, 6):
        for cap in (1, 10, 400):
            got = are_homotopic(g, p, q, state_cap=cap)
            want = ref.are_homotopic(g, p, q, state_cap=cap)
            assert got.describe() == want.describe()
            assert got.states_explored == want.states_explored
        # a tight length cap of the other parity than the walks: an
        # insertion that would pass it is never made
        tight = max(p.length, q.length) + 3
        got = are_homotopic(g, p, q, length_cap=tight, state_cap=400)
        want = ref.are_homotopic(g, p, q, length_cap=tight, state_cap=400)
        assert got.describe() == want.describe()
        assert got.states_explored == want.states_explored


@pytest.mark.parametrize("g", [example7(), complete(4), cycle(5)], ids=repr)
def test_equivalent_edge_paths_matches_reference(g):
    k = build_ncomplex(g)
    rnd = random.Random(g.n)
    checked = 0
    while checked < 10:
        start = rnd.randrange(g.n)
        p = random_walk(rnd, g, start, 2 * rnd.randint(0, 3))
        q = random_walk(rnd, g, start, 2 * rnd.randint(0, 3))
        if not (p.is_closed() and q.is_closed()):
            continue
        q1, q2 = walk_to_edgepath(p), walk_to_edgepath(q)
        for cap in (1, 30, 3000):
            assert equivalent_edge_paths(k, q1, q2, state_cap=cap) == (
                ref.equivalent_edge_paths(k, q1, q2, state_cap=cap)
            )
        checked += 1


def test_hom_exists_matches_reference():
    # an edgeless target makes every search with an edge exhaust its frames,
    # and isolated vertices leave the heap holding only full domains
    targets = [complete(2), complete(3), cycle(5), petersen(), Graph(3, [])]
    sources = fuzz_corpus() + [path(7), cycle(6), Graph(3, []), Graph(5, [(2, 4)])]
    for g in sources:
        for h in targets:
            for budget in (5, 60, 10**5):
                got = hom_exists(g, h, node_budget=budget)
                mapping = None if got.hom is None else got.hom.mapping
                assert (got.status, mapping, got.nodes) == ref.hom_exists(g, h, budget)


def test_bfs_parent_map_and_helpers():
    g = petersen()
    parent = bfs([0], g.sorted_neighbors)
    assert list(parent) == [0, 1, 4, 5, 2, 6, 3, 9, 7, 8]  # discovery order
    assert path_to_root(parent, 9) == [9, 4, 0]
    assert depths(parent) == {0: 0, 1: 1, 4: 1, 5: 1, 2: 2, 6: 2, 3: 2, 9: 2, 7: 2, 8: 2}
    # the goal stops the search as soon as it is discovered
    assert list(bfs([0], g.sorted_neighbors, goal=4)) == [0, 1, 4]
    assert list(bfs([3, 0], g.sorted_neighbors, goal=0)) == [3, 0]


def test_meet_in_the_middle_keeps_first_successors_and_returns_state_chains():
    # each list repeats a state and starts with the state itself; the search
    # stores each new state once, with the first state that reached it
    def successors(s):
        return [s, s + 1, s + 1, s + 2] if s < 10 else []

    assert meet_in_the_middle(0, 6, successors, 100) == (6, ([0, 2, 4, 6], [6]))
    assert meet_in_the_middle(3, 3, successors, 100) == (0, ([3], [3]))
    assert meet_in_the_middle(0, 6, successors, 3) == (4, None)
    assert meet_in_the_middle(6, 0, successors, 100) == (11, ([6], [0, 2, 4, 6]))
    assert meet_in_the_middle(11, 12, successors, 100) == (2, None)  # both sides run dry

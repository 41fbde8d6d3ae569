import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as ref
from chromatic import exact_chromatic
from graphs import complete, cycle, example7, fuzz_corpus, petersen, random_graph, small_graphs
from oddwalk import graph as graph_module
from oddwalk.errors import InputError, ParseError, RefusalError
from oddwalk.graph import (
    INFINITE,
    MAX_VERTICES,
    NO,
    UNKNOWN,
    YES,
    Coloring,
    Graph,
    bfs_layers,
    degeneracy_order,
    greedy_coloring,
    has_cycle_of_length,
    is_bipartite,
    odd_girth,
    parse_graph,
    serialize_graph,
    shortest_odd_cycle,
)


# ---------------------------------------------------------------------------
# oracles


def enumerate_cycles(g, max_len=None):
    """All simple cycles as canonical vertex tuples, by brute-force DFS."""
    cycles = set()
    limit = max_len or g.n

    def extend(pathv, on_path):
        s = pathv[0]
        u = pathv[-1]
        if len(pathv) >= 3 and s in g.adj[u]:
            cycles.add(tuple(pathv))
        if len(pathv) == limit:
            return
        for w in sorted(g.adj[u]):
            if w <= s or w in on_path:
                continue
            extend(pathv + [w], on_path | {w})

    for s in range(g.n):
        extend([s], {s})
    # canonicalize direction: keep the lexicographically smaller of both
    out = set()
    for c in cycles:
        rev = (c[0],) + tuple(reversed(c[1:]))
        out.add(min(c, rev))
    return out


def oracle_odd_girth(g):
    odd = [len(c) for c in enumerate_cycles(g) if len(c) % 2 == 1]
    return min(odd) if odd else INFINITE


def oracle_degeneracy(g):
    best = 0
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(g.n), k) for k in range(1, g.n + 1)
    ):
        sub = set(subset)
        mindeg = min(len(g.adj[v] & sub) for v in sub)
        best = max(best, mindeg)
    return best


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_triangle():
    g = parse_graph("0 1\n1 2\n2 0")
    assert g == complete(3)


def test_parse_duplicate_edges_collapse():
    g = parse_graph("0 1\n0 1")
    assert g.edges == ((0, 1),)


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("0 0")


def test_parse_header_and_comments():
    g = parse_graph("# a comment\nn 5\n0 1\n\n# another\n3 2\n")
    assert g.n == 5
    assert g.edges == ((0, 1), (2, 3))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("0 1\n0 one\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("0 1 2\n")


def test_parse_header_bound_enforced():
    with pytest.raises(ParseError):
        parse_graph("n 2\n0 5\n")


def test_parse_refuses_vertex_counts_above_the_limit(monkeypatch):
    def no_graph(n, edges):
        raise AssertionError(f"built a graph with {n} vertices")

    # a guard that let these through would allocate the vertex count
    monkeypatch.setattr(graph_module, "Graph", no_graph)
    with pytest.raises(InputError, match="vertex count 1000000000000 exceeds the limit"):
        parse_graph("n 1000000000000\n0 1\n")
    with pytest.raises(InputError, match=f"vertex id {MAX_VERTICES} exceeds the limit"):
        parse_graph(f"0 1\n1 {MAX_VERTICES}\n")
    with pytest.raises(AssertionError, match=f"with {MAX_VERTICES} vertices"):
        parse_graph(f"n {MAX_VERTICES}\n")


# edge lines, headers, comments and blank lines, well and badly formed
PARSE_LINES = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(
        [
            "n 13", "n 3", "n 0", "n -1", "n x", "n 5 6", f"n {MAX_VERTICES + 1}",
            "", "   ", "# note", "  # indented note", "\t4\t5 ", "1 2 3", "7", "a b",
            "-1 2", "3 -0", "+4 5", "2 2", f"0 {MAX_VERTICES}", f"{10**30} 1",
        ]
    ),
)


def outcome(parse, text):
    try:
        g = parse(text)
    except (ParseError, InputError) as error:
        return type(error), str(error)
    return g.n, g.indptr.tolist(), g.indices.tolist()


@given(st.lists(PARSE_LINES, max_size=25), st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_tuple_list_reference(lines, newline):
    text = newline.join(lines)
    assert outcome(parse_graph, text) == outcome(ref.parse_graph, text)


def test_graph_names_the_first_bad_pair_in_any_input_form():
    # a loop is named as one even when it is also out of range
    cases = [
        ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
        ([(0, 1), (0, 9), (2, 2)], r"edge \(0, 9\) out of range for n=3"),
        ([(1, 2), (-1, 0)], r"edge \(-1, 0\) out of range for n=3"),
        ([(7, 7), (0, 3)], "self-loop at vertex 7"),
        ([(2, 0), (3, 0)], r"edge \(3, 0\) out of range for n=3"),
    ]
    for edges, message in cases:
        for form in (edges, iter(edges), np.array(edges)):
            with pytest.raises(InputError, match=message):
                Graph(3, form)
    with pytest.raises(InputError, match="out of range for n=3"):
        Graph(3, [(0, 2**70)])
    for bad in ([(0, 1, 2)], [(0, 1, 2), (1, 2, 0)], [(0, 1), (2,)], np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError):
            Graph(3, bad)
    want = Graph(3, [(0, 1), (1, 2)])
    for form in ({(2, 1), (0, 1)}, iter([(1, 0), (1, 2)]), np.array([[0, 1], [2, 1], [1, 0]])):
        assert Graph(3, form) == want
    assert Graph(3, ()) == Graph(3, np.empty((0, 2), dtype=np.int64)) == Graph(3, iter([]))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


# ---------------------------------------------------------------------------
# odd girth / bipartiteness


def test_odd_girth_named():
    assert odd_girth(cycle(5)) == 5
    assert odd_girth(cycle(6)) == INFINITE
    assert odd_girth(petersen()) == 5 == oracle_odd_girth(petersen())


def test_odd_girth_matches_enumeration_small():
    rnd = random.Random(7)
    for trial in range(120):
        g = random_graph(rnd.randint(1, 9), rnd.uniform(0.1, 0.7), trial)
        assert odd_girth(g) == oracle_odd_girth(g)


def test_odd_girth_iff_bipartite_1000_random():
    rnd = random.Random(3)
    for trial in range(1000):
        g = random_graph(rnd.randint(1, 12), rnd.uniform(0.05, 0.6), 10_000 + trial)
        bip, witness = is_bipartite(g)
        assert (odd_girth(g) == INFINITE) == bip
        if bip:
            for u, v in g.edges:
                assert witness[u] != witness[v]
        else:
            assert witness[0] == witness[-1]
            assert (len(witness) - 1) % 2 == 1
            for a, b in zip(witness, witness[1:]):
                assert g.has_edge(a, b)


def test_is_bipartite_named():
    assert is_bipartite(cycle(6))[0]
    ok, walk = is_bipartite(cycle(5))
    assert not ok and len(walk) - 1 == 5
    assert is_bipartite(cycle(4))[0]  # K4 minus a perfect matching


def test_shortest_odd_cycle_is_simple():
    for g in [cycle(5), cycle(7), petersen(), example7()]:
        c = shortest_odd_cycle(g)
        assert c[0] == c[-1]
        assert len(set(c[:-1])) == len(c) - 1
        assert (len(c) - 1) == odd_girth(g)
        for a, b in zip(c, c[1:]):
            assert g.has_edge(a, b)
    assert shortest_odd_cycle(cycle(6)) is None


# ---------------------------------------------------------------------------
# fixed-length cycles


def test_has_cycle_of_length_named():
    r = has_cycle_of_length(cycle(5), 5)
    assert r.status == YES
    assert len(r.witness) == 6 and len(set(r.witness[:-1])) == 5
    assert has_cycle_of_length(cycle(5), 3).status == NO
    r = has_cycle_of_length(petersen(), 5)
    assert r.status == YES
    assert any(len(c) == 5 for c in enumerate_cycles(petersen(), 5))


def test_has_cycle_budget_exhaustion():
    r = has_cycle_of_length(complete(9), 9, budget=5)
    assert r.status == UNKNOWN


def test_has_cycle_of_length_deeper_than_the_recursion_limit():
    r = has_cycle_of_length(cycle(1501), 1501)
    assert r.status == YES
    assert r.witness == list(range(1501)) + [0]


def test_has_cycle_witness_lengths_match_enumeration():
    rnd = random.Random(11)
    for trial in range(60):
        g = random_graph(rnd.randint(3, 8), rnd.uniform(0.2, 0.8), 777 + trial)
        lengths = {len(c) for c in enumerate_cycles(g)}
        for k in range(3, g.n + 1):
            r = has_cycle_of_length(g, k)
            assert r.status == (YES if k in lengths else NO)
            if r.status == YES:
                w = r.witness
                assert len(w) == k + 1 and w[0] == w[-1] and len(set(w[:-1])) == k
                for a, b in zip(w, w[1:]):
                    assert g.has_edge(a, b)


# ---------------------------------------------------------------------------
# layers / degeneracy / coloring


def test_bfs_layers_named():
    assert [len(s) for s in bfs_layers(cycle(7), 0)] == [1, 2, 2, 2]
    assert [len(s) for s in bfs_layers(complete(4), 2)] == [1, 3]
    assert [len(s) for s in bfs_layers(petersen(), 0)] == [1, 3, 6]


def test_degeneracy_named():
    assert degeneracy_order(complete(4))[1] == 3
    assert degeneracy_order(cycle(7))[1] == 2
    assert degeneracy_order(petersen())[1] == 3 == oracle_degeneracy(petersen())


def test_greedy_on_reverse_degeneracy_order():
    rnd = random.Random(13)
    for trial in range(80):
        g = random_graph(rnd.randint(1, 11), rnd.uniform(0.1, 0.8), 5_000 + trial)
        order, degen = degeneracy_order(g)
        col = greedy_coloring(g, order[::-1])
        assert col.is_proper(g)
        assert col.colors_used() <= degen + 1


def test_exact_chromatic_named():
    assert exact_chromatic(complete(4)) == 4
    assert exact_chromatic(cycle(5)) == 3
    # Petersen: no proper 2-coloring exists, and an explicit 3-coloring does.
    g = petersen()
    assert exact_chromatic(g) == 3
    for bits in itertools.product((0, 1), repeat=10):
        assert any(bits[u] == bits[v] for u, v in g.edges)
    explicit = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 1, 6: 0, 7: 2, 8: 2, 9: 1}
    assert Coloring(explicit, 3).is_proper(g)


def test_exact_chromatic_cap_refusal():
    with pytest.raises(RefusalError):
        exact_chromatic(random_graph(31, 0.2, 1), vertex_cap=30)


def test_exact_chromatic_bounds_on_corpus():
    for g in fuzz_corpus():
        chi = exact_chromatic(g)
        order, degen = degeneracy_order(g)
        assert chi <= degen + 1
        bip, _ = is_bipartite(g)
        if g.edges:
            assert chi >= (2 if bip else 3)


def test_coloring_validation():
    with pytest.raises(InputError):
        Coloring({0: 5}, 3)


def test_coloring_is_proper_rejects_missing_vertices_and_monochromatic_edges():
    g = complete(3)
    partial = Coloring({0: 0, 1: 1}, 3)
    assert not partial.is_proper(g)
    a = partial.assignment
    assert all(a[u] != a[v] for u, v in g.edges if u in a and v in a)
    assert not Coloring({0: 0, 1: 2, 2: 2}, 3).is_proper(g)
    assert not Coloring({0: 0, 1: 1, 2: 1}, 3).is_proper(g)
    # as many colours as vertices, but vertex 1 of K2 has none
    assert not Coloring({0: 0, 5: 1}, 2).is_proper(complete(2))


def test_graph_invariants():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 5)])
    g = example7()
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]


# ---------------------------------------------------------------------------
# the two constructors of the CSR core


def from_python_rows(n, edges):
    """`from_sorted_unique` fed CSR arrays built in plain Python from the
    edge list: one sorted, duplicate-free neighbour list per vertex."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    rows = [sorted(r) for r in rows]
    indptr = list(itertools.accumulate(map(len, rows), initial=0))
    indices = np.array([w for r in rows for w in r], dtype=np.int64)
    return Graph.from_sorted_unique(n, np.array(indptr), indices)


def check_constructors_agree(g):
    # the edges again, shuffled, reversed and repeated, through the validating constructor
    listed = list(g.edges)
    random.Random(g.n).shuffle(listed)
    again = Graph(g.n, [(v, u) for u, v in listed] + listed[: len(listed) // 2])
    rows = from_python_rows(g.n, listed)
    for h in (again, rows):
        assert h == g and hash(h) == hash(g)
        assert (h.sorted_adj, h.adj, h.edges) == (g.sorted_adj, g.adj, g.edges)
        assert [h.degree(v) for v in range(h.n)] == [len(r) for r in g.sorted_adj]
        assert h.num_edges() == len(g.edges)
    assert g.edges == tuple(sorted({(min(e), max(e)) for e in listed}))
    assert all(list(r) == sorted(r) for r in g.sorted_adj)
    # one edge more or less is a different graph
    if g.n >= 2:
        extra = Graph(g.n, listed + [(0, 1)]) if not g.has_edge(0, 1) else Graph(g.n, listed[1:])
        assert extra != g
    assert Graph(g.n + 1, listed) != g


@pytest.mark.parametrize("index", range(len(fuzz_corpus()) + 3))
def test_validating_and_csr_constructors_agree_on_corpus(index):
    graphs = fuzz_corpus() + [Graph(0, []), Graph(5, []), cycle(130)]
    check_constructors_agree(graphs[index])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_validating_and_csr_constructors_agree_on_random_graphs(g):
    check_constructors_agree(g)


def test_graph_views_are_built_on_first_use():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    assert g.indptr.tolist() == [0, 1, 3, 5, 6] and g.indices.tolist() == [1, 0, 2, 1, 3, 2]
    with pytest.raises(ValueError):
        g.indices[0] = 3  # the arrays are read-only
    assert g.sorted_adj is g.sorted_adj and g.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(AttributeError):
        g.no_such_view


def check_edge_ids(g):
    # every ordered vertex pair: each edge both ways, the self pairs and the non-edges
    index = {e: i for i, e in enumerate(g.edges)}
    pairs = [(a, b) for a in range(g.n) for b in range(g.n)]
    expected = [index.get((min(a, b), max(a, b)), -1) for a, b in pairs]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert g.edge_ids(a, b).tolist() == expected
    assert g.edge_ids(b, a).tolist() == expected
    # one column broadcast against a block of ends, as the closure kernel calls it;
    # the second column holds the self pairs (a, a)
    block = g.edge_ids(a[:, None], np.stack([b, a], axis=1))
    assert block.shape == (len(pairs), 2)
    assert block[:, 0].tolist() == expected and (block[:, 1] == -1).all()


@pytest.mark.parametrize("index", range(len(fuzz_corpus()) + 4))
def test_edge_ids_match_a_dict_lookup_on_corpus(index):
    graphs = fuzz_corpus() + [Graph(0, []), Graph(1, []), Graph(5, []), cycle(130)]
    check_edge_ids(graphs[index])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_edge_ids_match_a_dict_lookup_on_random_graphs(g):
    check_edge_ids(g)


def test_edge_ids_on_empty_input():
    empty = np.zeros(0, dtype=np.int64)
    for g in (Graph(0, []), Graph(3, []), complete(3)):
        assert g.edge_ids(empty, empty).tolist() == []
    assert Graph(3, []).edge_ids([0, 1, 2], [1, 2, 0]).tolist() == [-1, -1, -1]
    assert complete(3).edge_ids([2, 1, 0, 1], [0, 1, 2, 2]).tolist() == [1, -1, 1, 2]


def check_bit_rows(g, rnd):
    """Every row of `bit_rows`, read in a random order, holds exactly the
    neighbours of `adj`, and its degree sum the sum of their degrees; the
    view is kept on the graph."""
    order = list(range(g.n))
    rnd.shuffle(order)
    for v in order:
        assert g.bit_rows[v] == sum(1 << w for w in g.adj[v]), v
        assert g.bit_rows.degree_sums[v] == sum(len(g.adj[w]) for w in g.adj[v]), v
    assert g.bit_rows is g.bit_rows and len(g.bit_rows) == len(g.bit_rows.degree_sums) == g.n


@pytest.mark.parametrize("block", [3, graph_module.ROW_BLOCK])
def test_bit_rows_match_adj_on_corpus(block, monkeypatch):
    # a block of 3 packs most graphs in several blocks of different widths
    monkeypatch.setattr(graph_module, "ROW_BLOCK", block)
    for g in fuzz_corpus() + [Graph(0, []), Graph(5, [(3, 4)]), cycle(130)]:
        check_bit_rows(g, random.Random(g.n))


@given(small_graphs(), st.integers(min_value=1, max_value=13), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_bit_rows_match_adj_on_random_graphs(g, block, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "ROW_BLOCK", block)
        check_bit_rows(g, random.Random(seed))


def test_bit_rows_pack_only_the_blocks_read():
    g = cycle(3 * graph_module.ROW_BLOCK)
    assert g.bit_rows[1] == 0b101
    assert sorted(g.bit_rows) == list(range(graph_module.ROW_BLOCK))

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borsuk_reference as ref
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
from oddwalk.borsuk import (
    ApproxGraph,
    SphereSample,
    bracket_walk,
    cap_measure,
    covering_radius_estimate,
    find_noninjective_c2r3,
    min_degree_ratio,
    nearest_vertex_hom,
    odd_girth_at_least,
    sample_approximation,
    tetrahedral_hom,
)
from oddwalk.errors import ConstructionError, InputError, SearchFailure
from oddwalk import graph as graph_module
from oddwalk.graph import (
    INFINITE,
    Graph,
    csr_from_darts,
    csr_rows,
    degree_steps,
    has_cycle_of_length,
    mirrored,
    odd_girth,
    odd_walk_free,
    or_rows,
    pack_rows,
)
from oddwalk.rng import Stream, derive_seed

EPS5 = math.pi / 5


# ---------------------------------------------------------------------------
# cap measure


def test_cap_measure_hemisphere_exact():
    for n in range(1, 11):
        assert abs(cap_measure(n, math.pi / 2) - 0.5) <= 1e-10


def test_cap_measure_circle_is_linear():
    for eps in [0.1, 0.5, 1.0, 2.0, 3.0]:
        assert abs(cap_measure(1, eps) - eps / math.pi) <= 1e-10


def test_cap_measure_two_sphere_closed_form():
    for k in range(1, 101):
        eps = k * math.pi / 101
        assert abs(cap_measure(2, eps) - (1 - math.cos(eps)) / 2) <= 1e-10


def test_cap_measure_monotone_and_ends():
    assert cap_measure(3, 0.0) == 0.0
    assert cap_measure(3, math.pi) == 1.0
    for n in (1, 2, 5):
        values = [cap_measure(n, k * math.pi / 101) for k in range(1, 101)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_cap_measure_domain_errors():
    with pytest.raises(InputError):
        cap_measure(0, 1.0)
    with pytest.raises(InputError):
        cap_measure(2, -0.1)
    with pytest.raises(InputError):
        cap_measure(2, 3.5)


# ---------------------------------------------------------------------------
# sampling


def test_single_pair_has_no_edges():
    g = sample_approximation(2, EPS5, 1, 99)
    assert g.graph.n == 2
    assert g.graph.num_edges() == 0


def test_sampling_deterministic():
    a = sample_approximation(2, EPS5, 200, 7)
    b = sample_approximation(2, EPS5, 200, 7)
    assert a.dump() == b.dump()
    assert a.graph == b.graph


def test_antipodal_structure_and_edge_symmetry():
    g = sample_approximation(2, EPS5, 150, 3)
    s = g.sample
    for i in range(0, s.size(), 2):
        assert s.antipode(i) == i + 1
        assert np.array_equal(s.points[i + 1], -s.points[i])
    edges = set(g.graph.edges)
    for u, v in edges:
        mirrored = tuple(sorted((u ^ 1, v ^ 1)))
        assert mirrored in edges


def test_adjacency_rule_equivalence_random_pairs():
    g = sample_approximation(3, 0.8, 120, 11)
    pts = g.sample.points
    rnd = random.Random(5)
    threshold = -math.cos(g.epsilon)
    for _ in range(10**5):
        i = rnd.randrange(g.sample.size())
        j = rnd.randrange(g.sample.size())
        if i == j or j == (i ^ 1):
            continue
        dot = float(pts[i] @ pts[j])
        if abs(dot - threshold) < 1e-9:
            continue  # measure-zero boundary band
        geodesic = math.acos(max(-1.0, min(1.0, float(pts[i] @ (-pts[j])))))
        assert (geodesic < g.epsilon) == (dot < threshold) == g.graph.has_edge(i, j)


def test_no_short_odd_cycles_at_threshold():
    for seed in (1, 2):
        g = sample_approximation(2, EPS5, 150, seed)
        girth = odd_girth(g.graph)
        assert girth == INFINITE or girth >= 7
        assert odd_girth_at_least(g, 7)


def test_matrix_check_agrees_with_exact_odd_girth():
    rnd = random.Random(17)
    for seed in range(6):
        g = sample_approximation(2, rnd.uniform(0.5, 1.2), 40, 500 + seed)
        girth = odd_girth(g.graph)
        for bound in range(3, 12):
            assert odd_girth_at_least(g, bound) == (girth == INFINITE or girth >= bound)


# above pi/2 a row can hold both 2t and 2t + 1; near pi the threshold
# rounds to 1.0, above the diagonal Gram entries of some draws
@pytest.mark.parametrize(
    "eps", [math.pi / 7, EPS5, math.pi / 3, math.pi / 2, 1.6, 2.0, 3.0, math.pi - 1e-9]
)
@pytest.mark.parametrize("count", [1, 2, 50, 150])
def test_row_built_sample_graph_matches_validated_build(count, eps):
    sample = sample_approximation(2, eps, count, 40 + count)
    g = sample.graph
    want = Graph(g.n, g.edges)  # the validating constructor
    assert (g.n, g.edges, g.sorted_adj, g.adj) == (want.n, want.edges, want.sorted_adj, want.adj)
    assert not any(g.has_edge(i, i ^ 1) for i in range(g.n))
    assert g == ref.row_built_sample_graph(sample.sample, eps)
    assert mirrored(g.indptr, g.indices) and ref.mirrored(g.indptr, g.indices)
    # a row holding both 2t and 2t + 1 needs a positive threshold, eps > pi/2
    tails = csr_rows(g.indptr)
    both = g.edge_ids(tails, g.indices ^ 1) >= 0
    if count == 150:
        assert both.any() == (eps > math.pi / 2)
    else:
        assert not both.any() or eps > math.pi / 2


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_sample_graph_matches_row_built_reference(count, eps, seed):
    g = sample_approximation(2, eps, count, seed)
    assert g.graph == ref.row_built_sample_graph(g.sample, eps)


def test_adjacency_matrix_matches_edges():
    g = sample_approximation(2, EPS5, 150, 5)
    a = g.adjacency_matrix()
    m = g.sample.size()
    assert a.shape == (m, m) and a.dtype == bool
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()
    assert not a[np.arange(m), np.arange(m) ^ 1].any()
    assert np.count_nonzero(a) == 2 * g.graph.num_edges()
    assert all(a[u, v] for u, v in g.graph.edges)


def unbuilt_views(g):
    """The lazy views of g that are still unset slots; reading a slot
    through object.__getattribute__ does not build it."""
    unbuilt = []
    for name in ("adj", "sorted_adj", "edges"):
        try:
            object.__getattribute__(g, name)
        except AttributeError:
            unbuilt.append(name)
    return unbuilt


def test_sample_graph_matches_row_built_reference_at_4000_vertices():
    g = sample_approximation(2, EPS5, 2000, 1)
    want = ref.row_built_sample_graph(g.sample, EPS5)
    assert g.graph == want and hash(g.graph) == hash(want)
    assert g.graph.num_edges() == want.num_edges() == 763_252


def test_sample_girth_path_builds_no_views():
    g = sample_approximation(2, EPS5, 400, 3)
    assert min_degree_ratio(g.graph) == min(g.graph.degree(v) for v in range(g.graph.n)) / g.graph.n
    assert odd_girth_at_least(g, 7)
    assert g.graph.num_edges() > 0
    assert unbuilt_views(g.graph) == ["adj", "sorted_adj", "edges"]
    g.graph.has_edge(0, 1)  # the frozensets and the tuples under them
    assert unbuilt_views(g.graph) == ["edges"]


# ---------------------------------------------------------------------------
# odd-girth kernel on CSR rows against the dense references in borsuk_reference.py

ODD_LENGTHS = (1, 3, 5, 7, 9, 11)


def dense(g):
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


def with_loop(g, v):
    a = dense(g)
    a[v, v] = True
    return a


def csr(a):
    """CSR rows of a dense 0/1 matrix, a loop included in its own row."""
    rows, cols = np.nonzero(a)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(a)))])
    return indptr, cols


KERNEL_CORPUS = (
    [dense(cycle(k)) for k in range(3, 14)]
    + [dense(g) for g in (petersen(), example7(), complete(2), complete(5), path(0), path(6))]
    + [dense(g) for g in fuzz_corpus()]
    + [with_loop(path(3), 1), with_loop(cycle(6), 0)]  # odd girth 1
    + [with_loop(Graph(3, [(0, 1)]), 2)]  # a loop on an otherwise isolated vertex
    # rows of more than one 64-bit word, the short cycles on high ids
    + [dense(cycle(k)) for k in (63, 64, 65, 129)]
    + [dense(random_graph(140, 0.02, 11)), with_loop(path(70), 69)]
    + [
        dense(Graph(130, [(v, v + 1) for v in range(60, 68)] + [(60, 68)])),  # 9-cycle
        dense(Graph(130, [(125, 126), (126, 127), (125, 127)])),
    ]
    + [dense(Graph(0, [])), dense(Graph(5, []))]
)


def check_kernel(a):
    for length in ODD_LENGTHS:
        got = odd_walk_free(*csr(a), length)
        assert got == ref.dense_odd_walk_free(a, length) == ref._odd_walk_free(a, length), length


@pytest.mark.parametrize("index", range(len(KERNEL_CORPUS)))
def test_odd_walk_kernel_matches_reference_on_corpus(index):
    check_kernel(KERNEL_CORPUS[index])


def test_odd_walk_kernel_at_odd_girth_boundary():
    for length in ODD_LENGTHS:
        below = with_loop(path(2), 0) if length == 1 else dense(cycle(length))
        assert not odd_walk_free(*csr(below), length)  # odd girth exactly `length`
        assert odd_walk_free(*csr(dense(cycle(length + 2))), length)


def test_odd_walk_kernel_refuses_even_and_nonpositive_lengths():
    # K3 has a closed walk of length 2 (there and back), which is not odd
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for length in (2, 4, 0, -1):
        with pytest.raises(InputError):
            odd_walk_free(k3.indptr, k3.indices, length)
    assert not odd_walk_free(k3.indptr, k3.indices, 3)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_odd_walk_kernel_matches_reference_on_random_graphs(g):
    a = dense(g)
    check_kernel(a)
    girth = odd_girth(g)
    for length in ODD_LENGTHS:
        assert odd_walk_free(g.indptr, g.indices, length) == (girth == INFINITE or girth > length)


# the neighbour-OR kernel behind odd_walk_free, shortest_odd_cycle and the
# 4-cycle pairs, against the per-row reference


def check_or_rows(g):
    """On every row selection odd_walk_free takes (all rows or the even
    ones, each whole or from the neighbours w >= u on), the steps count the
    rows longer than k in a stable descending order, and or_rows, put back
    in row order, is the reference's OR of the same slices."""
    words = np.random.default_rng(g.n).integers(0, 2**64, size=(g.n, 2), dtype=np.uint64)
    tails = csr_rows(g.indptr)
    above = g.indptr[:-1] + np.bincount(tails[g.indices < tails], minlength=g.n)
    for rows in (np.arange(g.n), np.arange(0, g.n, 2)):
        ends = g.indptr[1:][rows]
        for starts in (g.indptr[:-1][rows], above[rows]):
            lengths = (ends - starts).tolist()
            order, steps = degree_steps(starts, ends, g.indices)
            assert order.tolist() == sorted(range(len(rows)), key=lambda i: -lengths[i])
            longer = [sum(length > k for length in lengths) for k in range(max(lengths, default=0))]
            assert [len(x) for x in steps] == longer
            got = np.empty((len(rows), 2), dtype=np.uint64)
            got[order] = or_rows(words, steps, len(rows))
            slices = [g.indices[a:b] for a, b in zip(starts, ends)]
            assert np.array_equal(got, ref._or_of_rows(words, slices)[: len(rows)])


OR_ROWS_CORPUS = [
    Graph(0, []),
    Graph(5, []),  # empty rows only
    Graph(9, [(2, 3), (3, 4), (6, 8)]),  # empty rows among short ones
    Graph(7, [(0, v) for v in range(1, 7)]),  # a star
    Graph(7, [(6, v) for v in range(6)]),  # a star centred on the last vertex
    cycle(7),  # equal degrees
    petersen(),
    example7(),
    random_graph(140, 0.05, 3),
]


@pytest.mark.parametrize("index", range(len(OR_ROWS_CORPUS)))
def test_or_rows_matches_reference_on_corpus(index):
    check_or_rows(OR_ROWS_CORPUS[index])


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_or_rows_matches_reference_on_random_graphs(g):
    check_or_rows(g)


# bit-row packing: packbits for dense blocks, reduceat for sparse ones,
# against the reduceat-only reference


@st.composite
def csr_blocks(draw):
    """Ascending, duplicate-free CSR rows on 0-200 vertices at a density
    from empty to full, loops included (not symmetric: pack_rows reads rows
    only), and a row range lo..hi of them."""
    n = draw(st.integers(min_value=0, max_value=200))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n)) < density
    indptr, indices = csr_from_darts(n, *np.nonzero(cells))
    lo = draw(st.integers(min_value=0, max_value=n))
    hi = draw(st.integers(min_value=lo, max_value=n))
    return indptr, indices, lo, hi


@given(
    csr_blocks(),
    st.sampled_from([0, graph_module.PACK_CELLS_PER_DART, 10**9]),
    st.sampled_from([64, 1000, graph_module.PACK_BUFFER_CELLS]),
)
@settings(max_examples=200, deadline=None)
def test_pack_rows_matches_reference(block, cells_per_dart, buffer_cells):
    # 0 sends every nonempty block to reduceat and 10**9 to packbits; a
    # buffer of 64 or 1,000 cells packs a block a row or a few rows at a time
    indptr, indices, lo, hi = block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "PACK_CELLS_PER_DART", cells_per_dart)
        patch.setattr(graph_module, "PACK_BUFFER_CELLS", buffer_cells)
        got = pack_rows(indptr, indices, lo, hi)
        whole = pack_rows(indptr, indices)
    want = ref.pack_rows(indptr, indices, lo, hi)
    assert got.dtype == np.uint64 and got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(whole, ref.pack_rows(indptr, indices))


@given(csr_blocks())
@settings(max_examples=150, deadline=None)
def test_first_at_least_matches_a_scan_of_each_row(block):
    # loops put r itself in row r, the first entry >= r
    indptr, indices, lo, hi = block
    rows = np.arange(lo, hi)
    want = [
        next((i for i in range(indptr[r], indptr[r + 1]) if indices[i] >= r), indptr[r + 1])
        for r in rows
    ]
    assert graph_module._first_at_least(indptr, indices, rows).tolist() == want


def test_pack_rows_picks_packbits_for_dense_blocks_only():
    sample = sample_approximation(2, EPS5, 100, 3).graph  # 14 cells per dart
    long_cycle = cycle(1501)  # 768 cells per dart
    for g, dense in [(sample, True), (long_cycle, False)]:
        with mock.patch.object(np, "packbits", wraps=np.packbits) as spy:
            got = pack_rows(g.indptr, g.indices)
        assert spy.called == dense
        assert np.array_equal(got, ref.pack_rows(g.indptr, g.indices))


@st.composite
def signed_covers(draw):
    """The signed double cover of a small graph: a + edge ab lifts to 2a 2b
    and 2a+1 2b+1, a - edge to 2a 2b+1 and 2a+1 2b, so u -> u ^ 1 is an
    automorphism of the cover."""
    h = draw(small_graphs())
    signs = draw(st.lists(st.booleans(), min_size=h.num_edges(), max_size=h.num_edges()))
    edges = []
    for (a, b), plus in zip(h.edges, signs):
        flip = 0 if plus else 1
        edges += [(2 * a, 2 * b + flip), (2 * a + 1, 2 * b + 1 - flip)]
    return Graph(2 * h.n, edges)


def or_rows_seen(check, *args):
    """check(*args) and the row count of every call it makes to
    odd_walk_free's or_rows."""
    with mock.patch.object(graph_module, "or_rows", wraps=graph_module.or_rows) as spy:
        result = check(*args)
    return result, {call.args[2] for call in spy.call_args_list}


def edge_set_mirrored(g):
    edges = set(g.edges)
    return g.n % 2 == 0 and all(tuple(sorted((u ^ 1, w ^ 1))) in edges for u, w in edges)


def with_edge_breaking_the_mirror(g):
    """g plus its first missing edge uw whose mirror (u ^ 1)(w ^ 1) is also
    missing, or None when there is none."""
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if not g.has_edge(u, w) and not g.has_edge(u ^ 1, w ^ 1) and w != u ^ 1:
                return Graph(g.n, list(g.edges) + [(u, w)])
    return None


def with_two_edges_switched(g):
    """g with its first pair of edges ux, vy switched to uy, vx such that
    the result is simple and u -> u ^ 1 is not an automorphism of it, or
    None.  Every degree stays, so only the darts tell it from a mirror."""
    edges = set(g.edges)
    for (u, x), (v, y) in itertools.combinations(g.edges, 2):
        new = {tuple(sorted(e)) for e in ((u, y), (v, x))}
        if u != y and v != x and len(new) == 2 and not new & edges:
            switched = Graph(g.n, sorted(edges - {(u, x), (v, y)} | new))
            if not edge_set_mirrored(switched):
                return switched
    return None


@given(signed_covers())
@settings(max_examples=150, deadline=None)
def test_odd_walk_kernel_on_signed_double_covers(cover):
    # the cover takes the mirrored path (n/2 rows); one more edge, or two
    # edges switched, break the symmetry and send it down the full one
    # (n rows)
    broken = [with_edge_breaking_the_mirror(cover), with_two_edges_switched(cover)]
    cases = [(cover, cover.n // 2)] + [(g, g.n) for g in broken if g is not None]
    for g, rows in cases:
        assert mirrored(g.indptr, g.indices) == edge_set_mirrored(g) == (g is cover)
        girth = odd_girth(g)
        for length in ODD_LENGTHS:
            verdict, seen = or_rows_seen(odd_walk_free, g.indptr, g.indices, length)
            assert verdict == ref.dense_odd_walk_free(dense(g), length)
            assert verdict == (girth == INFINITE or girth > length)
            assert seen == (set() if length == 1 else {rows})


@given(signed_covers(), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=150, deadline=None)
def test_mirrored_matches_the_dart_sort_reference(cover, block, data):
    # loops at t and t ^ 1 keep the mirror, a loop at t alone breaks it; a
    # small ROW_BLOCK makes _mirrors compare the pairs in several blocks
    broken = [with_edge_breaking_the_mirror(cover), with_two_edges_switched(cover)]
    loops = data.draw(st.lists(st.integers(0, max(cover.n - 1, 0)), max_size=3)) if cover.n else []
    paired = np.array(loops + [t ^ 1 for t in loops], dtype=np.int64)
    cases = [(cover.indptr, cover.indices)] + [(g.indptr, g.indices) for g in broken if g]
    for t in (paired, paired[: len(loops)]):
        tails = np.concatenate([csr_rows(cover.indptr), t])
        cases.append(csr_from_darts(cover.n, tails, np.concatenate([cover.indices, t])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "ROW_BLOCK", block)
        for indptr, indices in cases:
            want = ref.mirrored(indptr, indices)
            assert mirrored(indptr, indices) == want
            assert graph_module._mirrors(pack_rows(indptr, indices)) == want


def test_sample_girth_checks_take_the_mirrored_rows():
    sample = sample_approximation(2, EPS5, 100, 3)
    g = sample.graph
    half = {g.n // 2}
    assert or_rows_seen(odd_walk_free, g.indptr, g.indices, 5) == (True, half)
    assert or_rows_seen(odd_girth_at_least, sample, 7) == (True, half)
    assert or_rows_seen(lambda: has_cycle_of_length(g, 5).status) == ("NO", half)
    for perturbed in [with_edge_breaking_the_mirror(g), with_two_edges_switched(g)]:
        assert not mirrored(perturbed.indptr, perturbed.indices)
        assert or_rows_seen(odd_walk_free, perturbed.indptr, perturbed.indices, 5)[1] == {g.n}


def test_sample_dump_round_trip():
    g = sample_approximation(2, EPS5, 25, 13)
    again = ApproxGraph.load(g.dump())
    assert again.graph == g.graph
    assert np.array_equal(again.sample.points, g.sample.points)
    crossref = g.vertex_point_crossref().splitlines()
    assert crossref[0] == "0 0 +"
    assert crossref[1] == "1 0 -"


# ---------------------------------------------------------------------------
# covering radius


def _cross_polytope_circle():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return SphereSample(pts, 1, 0)


def test_covering_radius_cross_polytope():
    est = covering_radius_estimate(_cross_polytope_circle(), 20000, 4)
    assert est <= math.pi / 4 + 1e-9
    assert est > math.pi / 4 - 0.01


def test_covering_radius_single_pair():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    est = covering_radius_estimate(SphereSample(pts, 1, 0), 20000, 4)
    assert est <= math.pi / 2 + 1e-9
    assert est > math.pi / 2 - 0.01


def test_covering_radius_monotone_in_probes():
    s = sample_approximation(2, EPS5, 50, 21).sample
    est1 = covering_radius_estimate(s, 500, 9)
    est2 = covering_radius_estimate(s, 1000, 9)
    assert est2 >= est1


# ---------------------------------------------------------------------------
# homomorphisms


def test_nearest_vertex_identity():
    g = sample_approximation(2, EPS5, 60, 31)
    phi = nearest_vertex_hom(g, g)
    assert phi.mapping == tuple(range(g.graph.n))


def test_nearest_vertex_synthetic_valid():
    # hand-placed configuration on one meridian: a coarse near-antipodal pair
    # (c0, c1) and two fine draws around each endpoint, displaced so that the
    # only fine edges are the aligned pair; the map folds 8 fine vertices onto
    # 4 coarse ones and preserves every edge
    def meridian(theta, positive=True):
        s = math.sin(theta) if positive else -math.sin(theta)
        return [s, 0.0, math.cos(theta)]

    c0 = meridian(0.0)
    c1 = meridian(2.61)          # d(c0, -c1) = pi - 2.61 ~ 0.53 < pi/5 + slack
    coarse_pts = np.array([c0, [-x for x in c0], c1, [-x for x in c1]])
    coarse = ApproxGraph.from_sample(SphereSample(coarse_pts, 2, 0), EPS5)
    assert coarse.graph.edges == ((0, 2), (1, 3))

    x1 = meridian(0.2, positive=False)   # toward -c1
    x2 = meridian(0.2, positive=True)    # away from -c1
    y1 = meridian(2.81)                  # toward -c0
    y2 = meridian(2.41)                  # away from -c0
    fine_pts = np.empty((8, 3))
    for t, q in enumerate([x1, x2, y1, y2]):
        fine_pts[2 * t] = q
        fine_pts[2 * t + 1] = [-c for c in q]
    fine = ApproxGraph.from_sample(SphereSample(fine_pts, 2, 1), 0.35)
    assert fine.graph.edges == ((0, 4), (1, 5))  # the aligned pair + mirror
    phi = nearest_vertex_hom(fine, coarse)
    assert phi.mapping == (0, 1, 0, 1, 2, 3, 2, 3)


def test_nearest_vertex_engineered_failure():
    fine = sample_approximation(2, EPS5, 60, 41)
    coarse = sample_approximation(2, EPS5, 3, 42)
    with pytest.raises(ConstructionError) as exc:
        nearest_vertex_hom(fine, coarse)
    assert exc.value.violations


def test_tetrahedral_hom_properties():
    g = sample_approximation(2, EPS5, 300, 17)
    phi = tetrahedral_hom(g)
    assert phi.target.n == 4
    from oddwalk.closure import GraphHom

    GraphHom(phi.source, phi.target, phi.mapping)  # raises on a non-homomorphism


# ---------------------------------------------------------------------------
# bracket walks


def test_bracket_walk_alternates():
    g = sample_approximation(2, EPS5, 400, 23)
    # find three points pairwise chained within eps
    ids = None
    for u, v in g.graph.edges:
        # u ~ v means d(p_u, -p_v) < eps: chain u, anti(v)
        w = g.sample.antipode(v)
        for x, y in g.graph.edges:
            if x == w and y != u:
                ids = [u, w, g.sample.antipode(y)]
                break
        if ids:
            break
    assert ids is not None
    walk = bracket_walk(g, ids)
    assert walk.vertices == (ids[0], g.sample.antipode(ids[1]), ids[2])


def test_bracket_walk_single_vertex():
    g = sample_approximation(2, EPS5, 5, 2)
    assert bracket_walk(g, [4]).length == 0


def test_bracket_walk_distance_violation():
    g = sample_approximation(2, EPS5, 5, 2)
    # a point and its antipode are at distance pi >= eps
    with pytest.raises(InputError, match="points 0 and 1"):
        bracket_walk(g, [0, 1])


# ---------------------------------------------------------------------------
# degree ratios


def test_min_degree_ratio_named():
    assert min_degree_ratio(complete(4)) == 0.75
    assert min_degree_ratio(cycle(5)) == 0.4


def test_min_degree_ratio_statistical():
    mu = cap_measure(2, EPS5)
    g = sample_approximation(2, EPS5, 1000, 15)
    ratio = min_degree_ratio(g.graph)
    assert abs(ratio / mu - 1) <= 0.25


# ---------------------------------------------------------------------------
# noninjective short cycle


def test_find_noninjective_7cycle_at_scale():
    g = sample_approximation(2, EPS5, 2500, 424242)
    phi = tetrahedral_hom(g)
    walk = find_noninjective_c2r3(g, phi, 2)
    assert walk.is_cycle()
    assert walk.length == 7
    assert len({phi.mapping[v] for v in walk.vertices}) <= 6


def test_find_noninjective_rejects_wrong_threshold():
    g = sample_approximation(2, 0.5, 50, 1)
    phi = tetrahedral_hom(g)
    with pytest.raises(InputError, match="pi/5"):
        find_noninjective_c2r3(g, phi, 2)


def test_find_noninjective_injective_hom_fails():
    g = sample_approximation(2, EPS5, 30, 5)
    from oddwalk.closure import GraphHom

    bigger = sample_approximation(2, EPS5, 40, 6)
    with pytest.raises(InputError, match="smaller"):
        find_noninjective_c2r3(g, GraphHom.identity(g.graph), 2)


def test_find_noninjective_sparse_sample_reports_failure():
    g = sample_approximation(2, EPS5, 40, 9)
    phi = tetrahedral_hom(g)
    with pytest.raises((SearchFailure, ConstructionError)):
        find_noninjective_c2r3(g, phi, 2)


def test_stream_determinism_and_substreams():
    s1, s2 = Stream(123), Stream(123)
    assert [s1.next_u64() for _ in range(5)] == [s2.next_u64() for _ in range(5)]
    assert derive_seed(5, "probes") != derive_seed(5, "folds")
    g = [Stream(9).gaussian() for _ in range(4)]
    assert g == [Stream(9).gaussian() for _ in range(4)]


def test_stream_draws_in_bulk_match_one_by_one():
    for seed in (0, 123, 2**64 - 1):
        for counter in (0, 7, 2**64 - 5):  # the last wraps the counter mod 2**64
            one, bulk = Stream(seed), Stream(seed)
            one.counter = bulk.counter = counter
            want = [one.next_u64() for _ in range(6)]
            got = bulk.next_u64s(6, at=np.array([0, 2, 5]))
            assert got.tolist() == [want[0], want[2], want[5]]
            assert bulk.counter == one.counter

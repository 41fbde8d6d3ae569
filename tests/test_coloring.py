import random

import pytest

from ear_chain import ear_chain_witness
from graphs import complete, cycle, petersen, random_graph
from oddwalk import coloring as coloring_module
from oddwalk.closure import GraphHom
from oddwalk.coloring import (
    EXTENSION,
    PRODUCT_4COLOR,
    StableSplit,
    bounded_coloring_pipeline,
    color_ball,
    color_closure_subgraph,
    extend_coloring,
    shortest_odd_cycle_meeting,
)
from oddwalk.errors import HypothesisError, InputError, ViolationError
from oddwalk.graph import (
    UNKNOWN,
    Coloring,
    CycleSearch,
    Graph,
    bfs_layers,
    canon_edge,
    has_cycle_of_length,
    odd_girth,
    shortest_odd_cycle,
)
from oddwalk.homotopy import Walk


def edges_of(walk_vertices):
    return {canon_edge(a, b) for a, b in zip(walk_vertices, walk_vertices[1:])}


# ---------------------------------------------------------------------------
# extend_coloring


def test_extend_triangle_with_pendant_path():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    phi = GraphHom.identity(g)
    a = frozenset({(0, 1), (0, 2), (1, 2)})
    b = frozenset({(2, 3), (3, 4)})
    gamma0 = Coloring({0: 0, 1: 1, 2: 2}, 3)
    out = extend_coloring(phi, StableSplit(a, b, phi), gamma0)
    assert out.is_proper(g)
    assert {v: out.assignment[v] for v in (0, 1, 2)} == gamma0.assignment
    assert out.assignment[3] != 2
    assert out.assignment[4] == out.assignment[2]  # distance 2, even walk


def test_extend_empty_b_returns_base():
    g = complete(3)
    phi = GraphHom.identity(g)
    gamma0 = Coloring({0: 0, 1: 1, 2: 2}, 3)
    out = extend_coloring(phi, StableSplit(frozenset(g.edges), frozenset(), phi), gamma0)
    assert out.assignment == gamma0.assignment


def test_extend_detects_parity_conflict():
    # two triangles joined by an edge; A covers only the first triangle
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    phi = GraphHom.identity(g)
    a = frozenset({(0, 1), (0, 2), (1, 2)})
    b = frozenset(set(g.edges) - a)
    gamma0 = Coloring({0: 0, 1: 1, 2: 2}, 3)
    with pytest.raises(HypothesisError, match="parity") as exc:
        extend_coloring(phi, StableSplit(a, b, phi), gamma0)
    # B-edge (4, 5) closes the odd walk 4-3-5-4 beside the A-side
    assert exc.value.certificate == {"walks": ([4, 3, 2], [4, 5, 3, 2])}


def test_extend_detects_fiber_conflict():
    # no 4-cycle, so every edge is its own class; the B-path 0-3-4-5-1 has
    # even length, but its two ends are anchored in different fibers
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (1, 5)])
    phi = GraphHom.identity(g)
    a = frozenset({(0, 1), (0, 2), (1, 2)})
    b = frozenset(set(g.edges) - a)
    gamma0 = Coloring({0: 0, 1: 1, 2: 2}, 3)
    with pytest.raises(HypothesisError, match="different fibers") as exc:
        extend_coloring(phi, StableSplit(a, b, phi), gamma0)
    assert exc.value.certificate == {"walks": ([4, 3, 0], [4, 5, 1])}


def test_extend_detects_vertices_no_b_walk_reaches():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    phi = GraphHom.identity(g)
    a = frozenset({(0, 1), (0, 2), (1, 2)})
    gamma0 = Coloring({0: 0, 1: 1, 2: 2}, 3)
    with pytest.raises(HypothesisError, match="cannot reach") as exc:
        extend_coloring(phi, StableSplit(a, frozenset({(3, 4)}), phi), gamma0)
    assert exc.value.certificate == {"unreachable": [3, 4]}


def test_extend_validates_inputs():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    phi = GraphHom.identity(g)
    a = frozenset({(0, 1), (0, 2), (1, 2)})
    b = frozenset({(2, 3), (3, 4)})
    with pytest.raises(InputError, match="proper"):
        extend_coloring(phi, StableSplit(a, b, phi), Coloring({0: 0, 1: 0, 2: 2}, 3))
    with pytest.raises(InputError, match="partition"):
        extend_coloring(phi, StableSplit(a, frozenset(), phi), Coloring({0: 0, 1: 1, 2: 2}, 3))


# ---------------------------------------------------------------------------
# color_ball


def test_color_ball_c7():
    g = cycle(7)
    out = color_ball(g, 0, 3)
    assert len(out.assignment) == 7
    assert out.palette_size == 12
    assert out.is_proper(g)
    layer3 = bfs_layers(g, 0)[3]
    assert len({out.assignment[v] for v in layer3}) == 2


def test_color_ball_k4():
    g = complete(4)
    out = color_ball(g, 0, 2)
    assert out.is_proper(g)
    assert len({out.assignment[v] for v in bfs_layers(g, 0)[1]}) == 3  # K3 layer


def test_color_ball_star():
    g = Graph(6, [(0, i) for i in range(1, 6)])
    out = color_ball(g, 0, 1)
    assert out.is_proper(g)
    assert out.colors_used() == 2
    assert out.palette_size == 4


def test_color_ball_only_colors_ball():
    g = cycle(9)
    out = color_ball(g, 0, 2)
    assert set(out.assignment) == {0, 1, 8, 2, 7}


def test_color_ball_layer_violation():
    # a clique layer larger than 2r forces more than 2r colors
    g = Graph(6, [(0, i) for i in range(1, 6)] + [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    with pytest.raises(ViolationError):
        color_ball(g, 0, 2)


# ---------------------------------------------------------------------------
# color_closure_subgraph


def test_closure_coloring_k4():
    g = complete(4)
    out = color_closure_subgraph(g, (0, 1), 2)
    assert out.is_proper(g)
    assert out.palette_size <= 24
    assert set(out.assignment) == {0, 1, 2, 3}


def test_closure_coloring_c5_plus_far_component():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7)])
    out = color_closure_subgraph(g, (0, 1), 3)
    a = out.assignment
    assert all(a[u] != a[v] for u, v in g.edges if u in a and v in a)
    assert set(out.assignment) <= {0, 1, 2, 3, 4}
    assert out.palette_size <= 5 * 12


def test_closure_coloring_bipartite_rejected():
    g = cycle(6)
    with pytest.raises(HypothesisError):
        color_closure_subgraph(g, (0, 1), 2)


def test_shortest_odd_cycle_meeting_deterministic():
    g = petersen()
    closure = frozenset(g.edges)
    found = shortest_odd_cycle_meeting(g, closure, 5)
    assert found is not None
    cyc, edge = found
    assert len(cyc) - 1 == 5
    assert edge == (0, 1)
    again = shortest_odd_cycle_meeting(g, closure, 5)
    assert again[0] == cyc


def test_shortest_odd_cycle_meeting_deeper_than_the_recursion_limit():
    found = shortest_odd_cycle_meeting(cycle(1501), frozenset({(0, 1)}), 1501)
    assert found == (list(range(1501)) + [0], (0, 1))


# ---------------------------------------------------------------------------
# bounded_coloring_pipeline


def test_pipeline_k4_identity():
    g = complete(4)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 0])
    coloring, trace = bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    assert coloring.is_proper(g)
    assert coloring.palette_size < 32
    assert trace.branch in (PRODUCT_4COLOR, EXTENSION)
    trace.validate(phi, c, 2)
    doc = trace.describe()
    assert doc["branch"] == trace.branch


def test_pipeline_product_branch():
    # triangle mapped identically: the pivot class is a single edge (no
    # 4-cycles), both sides induce bipartite subgraphs, so the product
    # branch fires with at most 4 colors (the certificate is the caller's
    # assertion; the branch validates its own output regardless)
    g = complete(3)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 0])
    coloring, trace = bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    assert trace.branch == PRODUCT_4COLOR
    assert coloring.palette_size <= 4
    assert coloring.is_proper(g)
    assert coloring.colors_used() >= 3


def test_pipeline_requires_certificate_and_preconditions():
    g = complete(4)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 0])
    with pytest.raises(InputError, match="sc_certificate"):
        bounded_coloring_pipeline(phi, c, 2)
    with pytest.raises(InputError, match="odd cycle"):
        bounded_coloring_pipeline(phi, Walk(g, [0, 1, 2, 3, 0]), 2, sc_certificate=True)
    with pytest.raises(InputError, match="r must be"):
        bounded_coloring_pipeline(phi, c, 1, sc_certificate=True)


def test_pipeline_extension_branch_with_nonempty_complement():
    # source: K4 with a pendant path 3-4-5; target: K4 with a pendant edge 0-4.
    # The target has two closure classes, so the pivot class pulls back to the
    # K4-plus-spur side and leaves edge (4,5) in the complement: the pipeline
    # must color vertex 5 through a parity walk, not the closure pullback.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    h = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    phi = GraphHom(g, h, (0, 1, 2, 3, 0, 4))
    c = Walk(g, [0, 1, 2, 0])
    coloring, trace = bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    assert trace.branch == EXTENSION
    assert len(trace.b_edges) == 1 and (4, 5) in trace.b_edges
    assert coloring.is_proper(g)
    assert coloring.palette_size < 32
    assert trace.provenance[5] == ("extended",)
    assert trace.provenance[0][0] == "closure"
    # fiber constancy: vertices 0 and 4 share the target vertex 0
    assert coloring.assignment[0] == coloring.assignment[4]
    trace.validate(phi, c, 2)


def test_pipeline_rejects_wide_image():
    g = cycle(7)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 3, 4, 5, 6, 0])
    with pytest.raises(InputError, match="image"):
        bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)


def test_pipeline_rejects_target_with_forbidden_cycle():
    # identity on a 5-cycle at r=2: the target itself carries the forbidden
    # cycle length, so the freeness check refuses
    g = cycle(5)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 3, 4, 0])
    with pytest.raises(HypothesisError, match="5-cycle") as exc:
        bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    assert exc.value.certificate == [0, 1, 2, 3, 4, 0]


def test_pipeline_rejects_target_it_cannot_certify(monkeypatch):
    # a freeness search that runs out of budget certifies nothing
    g = complete(3)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 0])

    def out_of_budget(h, k, budget):
        return CycleSearch(UNKNOWN, None, budget)

    monkeypatch.setattr(coloring_module, "has_cycle_of_length", out_of_budget)
    with pytest.raises(HypothesisError, match="within budget") as exc:
        bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    assert exc.value.certificate is None


def test_pipeline_rejects_disconnected_source():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    phi = GraphHom.identity(g)
    with pytest.raises(HypothesisError, match="disconnected") as exc:
        bounded_coloring_pipeline(phi, Walk(g, [0, 1, 2, 0]), 2, sc_certificate=True)
    assert exc.value.certificate is None


def test_trace_validate_rejects_improper_coloring():
    g = complete(4)
    phi = GraphHom.identity(g)
    c = Walk(g, [0, 1, 2, 0])
    _, trace = bounded_coloring_pipeline(phi, c, 2, sc_certificate=True)
    bad = Coloring({v: 0 for v in range(4)}, trace.coloring.palette_size)
    trace.coloring = bad
    with pytest.raises(ViolationError, match="improper") as exc:
        trace.validate(phi, c, 2)
    assert exc.value.witness is bad


# ---------------------------------------------------------------------------
# ear chains


def test_ear_chain_k4():
    g = complete(4)
    c = Walk(g, [0, 1, 2, 0])
    links = ear_chain_witness(g, c, (0, 1), (0, 3), 2)
    assert links
    for link in links:
        link.ear.validate()
        assert link.cycle.parity() == 1
        assert link.cycle.length < 5
    assert links[-1].edge == (0, 3)
    # the final ear contains the requested edge
    assert (0, 3) in edges_of(links[-1].ear.path.vertices)


def test_ear_chain_opposite_edge_k4():
    g = complete(4)
    c = Walk(g, [0, 1, 2, 0])
    links = ear_chain_witness(g, c, (0, 1), (2, 3), 2)
    assert links[-1].edge == (2, 3)
    for link in links:
        link.ear.validate()
        assert link.cycle.length < 5


def test_ear_chain_base_cases():
    g = complete(4)
    c = Walk(g, [0, 1, 2, 0])
    assert ear_chain_witness(g, c, (0, 1), (1, 2), 2) == []
    c5 = cycle(5)
    with pytest.raises(InputError, match="closure"):
        ear_chain_witness(c5, Walk(c5, [0, 1, 2, 3, 4, 0]), (0, 1), (2, 3), 3)


def test_ear_chain_prec_witnesses():
    g = complete(4)
    c = Walk(g, [0, 1, 2, 0])
    for target in [(0, 3), (1, 3), (2, 3)]:
        links = ear_chain_witness(g, c, (0, 1), target, 2)
        prev_len = c.length
        for link in links:
            assert link.cycle.length <= prev_len + 2
            if link.cycle.length >= prev_len:
                assert set(link.prec_witness) >= {link.cycle.length}
            prev_len = link.cycle.length


def test_ear_chain_on_grid_like_graph():
    # 3x3 rook-ish graph with plenty of 4-cycles and a triangle glued on
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
             (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8),
             (0, 9), (1, 9)]
    g = Graph(10, edges)
    assert odd_girth(g) == 3
    c = shortest_odd_cycle(g)
    cw = Walk(g, c)
    e0 = canon_edge(c[0], c[1])
    part_edges = set()
    from oddwalk.closure import c4_partition

    part = c4_partition(g)
    cls = part.class_edges(e0)
    r = 5  # the graph has only 10 vertices, so no 11-cycles exist
    for e in sorted(cls):
        if e in edges_of(c):
            continue
        links = ear_chain_witness(g, cw, e0, e, r)
        assert links[-1].edge == e
        for link in links:
            link.ear.validate()
            assert link.cycle.length < 2 * r + 1
            assert link.cycle.is_cycle()


def _chain_check(g, e0, e, r):
    from oddwalk.closure import c4_partition

    cyc = shortest_odd_cycle(g)
    cw = Walk(g, cyc)
    links = ear_chain_witness(g, cw, e0, e, r)
    prev_len = cw.length
    for link in links:
        link.ear.validate()
        assert link.cycle.is_cycle() and link.cycle.parity() == 1
        assert link.cycle.length < 2 * r + 1
        assert link.cycle.length <= prev_len + 2
        assert link.edge in edges_of(link.ear.path.vertices)
        prev_len = link.cycle.length
    assert links[-1].edge == e
    return links


# graphs found by a randomized search, frozen because they force the two
# reroute-through-the-side-edge variants of the ear step (the fresh corner of
# the shared 4-cycle already lies on the ear or the base cycle)
EAR_SUB_GRAPH = Graph(9, [
    (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 6), (1, 7), (2, 5),
    (2, 6), (2, 7), (3, 6), (3, 7), (3, 8), (4, 5), (4, 7), (7, 8),
])
EAR_DETOUR_GRAPH = Graph(9, [
    (0, 3), (0, 4), (0, 5), (0, 8), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
    (3, 8), (4, 5), (4, 8), (5, 6), (5, 7), (6, 7), (7, 8),
])


def test_ear_chain_corner_rerouting_fixtures():
    for g, e0, target in [
        (EAR_SUB_GRAPH, (0, 2), (3, 8)),     # substitution variant
        (EAR_SUB_GRAPH, (0, 2), (7, 8)),
        (EAR_DETOUR_GRAPH, (0, 3), (2, 6)),  # detour variant
        (EAR_DETOUR_GRAPH, (0, 3), (2, 7)),
    ]:
        cyc = shortest_odd_cycle(g)
        assert canon_edge(cyc[0], cyc[1]) == e0
        _chain_check(g, e0, target, 5)  # 9 vertices: no 11-cycle can exist


def test_ear_chain_fuzz_random_graphs():
    rnd = random.Random(12)
    chains = 0
    trial = 0
    while chains < 200:
        trial += 1
        g = random_graph(rnd.randint(6, 9), rnd.uniform(0.3, 0.6), 55_000 + trial)
        cyc = shortest_odd_cycle(g)
        if cyc is None:
            continue
        length = len(cyc) - 1
        r = None
        for rr in range(max(2, (length + 1) // 2 + 1), 7):
            if 2 * rr + 1 > g.n or has_cycle_of_length(g, 2 * rr + 1, budget=10**5).status == "NO":
                r = rr
                break
        if r is None:
            continue
        e0 = canon_edge(cyc[0], cyc[1])
        from oddwalk.closure import c4_partition

        cls = c4_partition(g).class_edges(e0)
        cyc_edges = edges_of(cyc)
        for e in sorted(cls - cyc_edges):
            _chain_check(g, e0, e, r)
            chains += 1
    assert chains >= 200


# ---------------------------------------------------------------------------
# layer degeneracy property


def test_layers_have_low_degree_vertex_in_free_graphs():
    # in graphs without a (2r+1)-cycle, connected pieces inside one BFS layer
    # (depth <= r) always contain a vertex of degree below 2r
    rnd = random.Random(71)
    checked = 0
    for trial in range(400):
        n = rnd.randint(4, 12)
        g = random_graph(n, rnd.uniform(0.2, 0.6), 9_000 + trial)
        for r in (2, 3):
            if has_cycle_of_length(g, 2 * r + 1, budget=10**5).status != "NO":
                continue
            for v in range(g.n):
                layers = bfs_layers(g, v)[: r + 1]
                for layer in layers:
                    sub = g.subgraph_on_edges(
                        [e for e in g.edges if e[0] in layer and e[1] in layer]
                    )
                    from traversal_reference import connected_components

                    for comp in connected_components(sub):
                        comp = comp & layer
                        if not comp:
                            continue
                        mindeg = min(len(sub.adj[u] & comp) for u in comp)
                        assert mindeg < 2 * r
                        checked += 1
    assert checked > 100

import itertools
import random
import re
from collections import Counter

import pytest

from chromatic import exact_chromatic
from graphs import complete, cycle, example7, random_graph
from oddwalk.closure import (
    EdgeMultiset,
    GraphHom,
    InvariantOracle,
    InvariantSpec,
    c4_partition,
    eval_invariant,
    find_pivot_edge,
    parse_hom,
    phi_partition,
    serialize_hom,
)
from oddwalk.errors import HypothesisError, InputError
from oddwalk.graph import Graph, canon_edge, is_bipartite


# ---------------------------------------------------------------------------
# oracle: explicit 4-cycle enumeration + transitive closure


def enumerate_4cycles(g):
    found = set()
    for quad in itertools.permutations(range(g.n), 4):
        a, b, c, d = quad
        if a != min(quad):
            continue
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a):
            key = min((a, b, c, d), (a, d, c, b))
            found.add(key)
    return found


def oracle_c4_partition(g):
    groups = {e: {e} for e in g.edges}
    cycles = enumerate_4cycles(g)
    changed = True
    while changed:
        changed = False
        for a, b, c, d in cycles:
            edges = [canon_edge(a, b), canon_edge(b, c), canon_edge(c, d), canon_edge(d, a)]
            merged = set()
            for e in edges:
                merged |= groups[e]
            for e in merged:
                if groups[e] != merged:
                    groups[e] = merged
                    changed = True
    seen = []
    for e in g.edges:
        if groups[e] not in seen:
            seen.append(groups[e])
    return {frozenset(s) for s in seen}


# ---------------------------------------------------------------------------
# c4_partition


def test_c4_partition_named():
    assert len(c4_partition(cycle(5)).classes) == 5
    k4 = c4_partition(complete(4))
    assert len(k4.classes) == 1 and len(k4.classes[0]) == 6
    ex = c4_partition(example7())
    assert len(ex.classes) == 1 and len(ex.classes[0]) == 11


def test_c4_partition_matches_oracle():
    rnd = random.Random(5)
    for trial in range(60):
        g = random_graph(rnd.randint(2, 10), rnd.uniform(0.15, 0.75), 900 + trial)
        got = {frozenset(c) for c in c4_partition(g).classes}
        assert got == oracle_c4_partition(g)


def test_c4_partition_four_cycle_edges_share_class():
    rnd = random.Random(6)
    for trial in range(40):
        g = random_graph(rnd.randint(4, 10), rnd.uniform(0.2, 0.8), 1_700 + trial)
        part = c4_partition(g)
        for a, b, c, d in enumerate_4cycles(g):
            ids = {
                part.class_id((a, b)),
                part.class_id((b, c)),
                part.class_id((c, d)),
                part.class_id((d, a)),
            }
            assert len(ids) == 1


# ---------------------------------------------------------------------------
# phi_partition


def test_phi_partition_identity_k4():
    part = phi_partition(GraphHom.identity(complete(4)))
    assert len(part.classes) == 1


def test_phi_partition_identity_c5():
    part = phi_partition(GraphHom.identity(cycle(5)))
    assert len(part.classes) == 5


def test_phi_partition_c10_wrap():
    phi = GraphHom(cycle(10), cycle(5), tuple(i % 5 for i in range(10)))
    part = phi_partition(phi)
    assert len(part.classes) == 10
    assert all(len(c) == 1 for c in part.classes)


def test_phi_partition_is_partition_with_coherent_images():
    rnd = random.Random(21)
    trials = 0
    trial = 0
    while trials < 25:
        trial += 1
        g = random_graph(rnd.randint(3, 9), rnd.uniform(0.25, 0.7), 2_400 + trial)
        if not g.edges:
            continue
        chi = exact_chromatic(g)
        coloring = _proper_coloring(g, chi)
        phi = GraphHom(g, complete(chi), tuple(coloring[v] for v in range(g.n)))
        part = phi_partition(phi)
        trials += 1
        assert sorted(e for c in part.classes for e in c) == list(g.edges)
        target_part = c4_partition(phi.target)
        for cls in part.classes:
            image_ids = {target_part.class_id(phi.edge_image(e)) for e in cls}
            assert len(image_ids) == 1
            sub = g.subgraph_on_edges(cls)
            verts = {v for e in cls for v in e}
            comps = [c for c in _components_of(sub) if c & verts]
            assert len(comps) == 1


def _proper_coloring(g, k):
    from chromatic import _k_colorable

    col = _k_colorable(g, k)
    assert col is not None
    return col


def _components_of(g):
    from traversal_reference import connected_components

    return connected_components(g)


def test_hom_parse_round_trip_and_validation():
    g, h = cycle(10), cycle(5)
    phi = GraphHom(g, h, tuple(i % 5 for i in range(10)))
    assert parse_hom(serialize_hom(phi), g, h) == phi
    with pytest.raises(InputError):
        GraphHom(complete(3), complete(3), (0, 0, 1))  # edge collapses


# ---------------------------------------------------------------------------
# eval_invariant


def test_eval_triangle_in_k4():
    k4 = complete(4)
    phi = GraphHom.identity(k4)
    spec = InvariantSpec(frozenset(k4.edges), None)
    f = EdgeMultiset.from_walk_vertices(k4, [0, 1, 2, 0])
    assert eval_invariant(spec, f, phi) == 1


def test_eval_doubled_edge_vanishes():
    g = example7()
    phi = GraphHom.identity(g)
    part = phi_partition(phi)
    f = EdgeMultiset.from_walk_vertices(g, [0, 1, 0])
    for cls in part.classes:
        assert eval_invariant(InvariantSpec(cls, None), f, phi) == 0
        for u in range(g.n):
            assert eval_invariant(InvariantSpec(cls, u), f, phi) == 0


def test_eval_anchored_four_walk_vanishes():
    k4 = complete(4)
    phi = GraphHom.identity(k4)
    spec_all = frozenset(k4.edges)
    f = EdgeMultiset.from_walk_vertices(k4, [0, 1, 2, 3, 0])
    for u in range(4):
        assert eval_invariant(InvariantSpec(spec_all, u), f, phi) == 0


def test_eval_rejects_unstable_set():
    k4 = complete(4)
    phi = GraphHom.identity(k4)
    f = EdgeMultiset.from_walk_vertices(k4, [0, 1, 0])
    with pytest.raises(InputError, match="not a union"):
        eval_invariant(InvariantSpec(frozenset({(0, 1)}), None), f, phi)


def test_a_multiset_over_another_graph_is_refused():
    # the C5 walk 0..4, 0 against the identity of K3: both share the edges
    # (0, 1) and (1, 2), but (2, 3) has no image
    f = EdgeMultiset.from_walk_vertices(cycle(5), [0, 1, 2, 3, 4, 0])
    phi = GraphHom.identity(complete(3))
    spec = InvariantSpec(frozenset(phi.source.edges))
    for query in (
        lambda: eval_invariant(spec, f, phi),
        lambda: InvariantOracle(phi).profile(f),
        lambda: find_pivot_edge(phi, f),
    ):
        with pytest.raises(InputError, match="not over the homomorphism's source"):
            query()
    # an equal graph built separately is the same source
    triangle = EdgeMultiset.from_walk_vertices(complete(3), [0, 1, 2, 0])
    assert eval_invariant(spec, triangle, phi) == 1


@pytest.mark.parametrize("pair", [(0, 2), (2, 0)])
def test_non_edges_are_never_stable_and_have_no_class(pair):
    c4 = cycle(4)
    part = c4_partition(c4)
    f = EdgeMultiset.from_walk_vertices(c4, [0, 1, 2, 3, 0])
    assert not part.is_stable(frozenset({pair}))
    assert not part.is_stable(frozenset(c4.edges) | {pair})
    with pytest.raises(InputError, match="not a union"):
        eval_invariant(InvariantSpec(frozenset({pair})), f, GraphHom.identity(c4))
    for lookup in (part.class_id, part.class_edges):
        with pytest.raises(InputError, match=re.escape(f"{pair} is not an edge")):
            lookup(pair)


def test_a_reversed_edge_has_a_class_but_is_no_member_of_a_stable_set():
    c4 = cycle(4)
    part = c4_partition(c4)
    assert part.class_id((1, 0)) == part.class_id((0, 1)) == 0
    assert part.class_edges((3, 0)) == frozenset(c4.edges)
    assert part.is_stable(frozenset(c4.edges))
    assert not part.is_stable(frozenset({(1, 0)}))
    with pytest.raises(InputError, match="not a union"):
        eval_invariant(
            InvariantSpec(frozenset({(1, 0), (1, 2), (2, 3), (0, 3)})),
            EdgeMultiset.from_walk_vertices(c4, [0, 1, 0]),
            GraphHom.identity(c4),
        )


def test_eval_additive_over_multiset_sum():
    rnd = random.Random(31)
    g = example7()
    phi = GraphHom.identity(g)
    part = phi_partition(phi)
    stable_sets = [cls for cls in part.classes]
    stable_sets.append(frozenset(g.edges))
    for _ in range(300):
        f1 = _random_multiset(g, rnd)
        f2 = _random_multiset(g, rnd)
        for a_set in stable_sets:
            for anchor in [None, rnd.randrange(g.n)]:
                spec = InvariantSpec(a_set, anchor)
                lhs = eval_invariant(spec, EdgeMultiset(f1.counts + f2.counts, g), phi)
                rhs = eval_invariant(spec, f1, phi) ^ eval_invariant(spec, f2, phi)
                assert lhs == rhs


def _random_multiset(g, rnd):
    picks = rnd.randint(1, 6)
    edges = [g.edges[rnd.randrange(len(g.edges))] for _ in range(picks)]
    return EdgeMultiset.from_edges(g, edges)


# ---------------------------------------------------------------------------
# find_pivot_edge


def test_pivot_k4_triangle():
    k4 = complete(4)
    phi = GraphHom.identity(k4)
    f = EdgeMultiset.from_walk_vertices(k4, [0, 1, 2, 0])
    e, spec, odd_cycle = find_pivot_edge(phi, f)
    assert e in f.counts
    assert spec.stable_set == frozenset(k4.edges)
    assert eval_invariant(spec, f, phi) == 1
    assert len(odd_cycle) == 4 and odd_cycle[0] == odd_cycle[-1]


def test_pivot_c5_full_cycle():
    c5 = cycle(5)
    phi = GraphHom.identity(c5)
    f = EdgeMultiset.from_walk_vertices(c5, [0, 1, 2, 3, 4, 0])
    e, spec, odd_cycle = find_pivot_edge(phi, f)
    assert spec.stable_set == frozenset({e})
    assert eval_invariant(spec, f, phi) == 1
    assert len(odd_cycle) == 6
    assert canon_edge(phi.mapping[e[0]], phi.mapping[e[1]]) in {
        canon_edge(a, b) for a, b in zip(odd_cycle, odd_cycle[1:])
    }


def test_pivot_empty_multiset_rejected():
    c5 = cycle(5)
    phi = GraphHom.identity(c5)
    f = EdgeMultiset(Counter(), c5)
    with pytest.raises(HypothesisError):
        find_pivot_edge(phi, f)


def test_pivot_rejects_odd_anchor():
    # an open path has odd anchored parity at its endpoints
    g = cycle(5)
    phi = GraphHom.identity(g)
    f = EdgeMultiset.from_edges(g, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(HypothesisError, match="anchored"):
        find_pivot_edge(phi, f)


def _random_odd_closed_walk(g, rnd, max_len=14):
    starts = [v for v in range(g.n) if g.adj[v]]
    if not starts:
        return None
    for _ in range(300):
        v0 = rnd.choice(starts)
        walk = [v0]
        length = rnd.choice(range(3, max_len, 2))
        for _ in range(length):
            walk.append(rnd.choice(sorted(g.adj[walk[-1]])))
        if walk[-1] == walk[0] and (len(walk) - 1) % 2 == 1:
            return walk
    return None


def test_pivot_recursion_discards_an_even_class():
    # a 9-cycle with the chord (1, 3), folded onto a triangle by i mod 3: the
    # chord glues the preimage edges (0,1) and (3,4) into one class K that
    # the 9-cycle meets exactly twice (and every fiber evenly), so the first
    # lifted edge always has even invariants and the search must discard K
    # and recurse before finding an odd singleton class
    g = Graph(9, [(i, (i + 1) % 9) for i in range(9)] + [(1, 3)])
    k3 = complete(3)
    phi = GraphHom(g, k3, tuple(i % 3 for i in range(9)))
    part = phi_partition(phi)
    glued = part.class_edges((0, 1))
    assert glued == frozenset({(0, 1), (1, 3), (3, 4)})
    f = EdgeMultiset.from_walk_vertices(g, list(range(9)) + [0])
    # K's invariants all vanish on f, so K itself can never be the answer
    assert eval_invariant(InvariantSpec(glued, None), f, phi) == 0
    for u in range(3):
        assert eval_invariant(InvariantSpec(glued, u), f, phi) == 0
    e, spec, odd_cycle = find_pivot_edge(phi, f)
    assert e not in glued
    assert spec.stable_set != glued
    assert eval_invariant(spec, f, phi) == 1


def test_pivot_long_tour_with_repeated_vertices():
    # the image tour bounces 0-1 two thousand times before closing through
    # 2: splitting it at repeated vertices takes about a thousand steps,
    # which once overflowed the interpreter stack
    k3 = complete(3)
    phi = GraphHom.identity(k3)
    f = EdgeMultiset(Counter({(0, 1): 2001, (1, 2): 1, (0, 2): 1}), k3)
    e, spec, odd_cycle = find_pivot_edge(phi, f)
    assert e == (0, 1)
    assert spec == InvariantSpec(frozenset({(0, 1)}), None)
    assert sorted(odd_cycle[:-1]) == [0, 1, 2] and odd_cycle[0] == odd_cycle[-1]
    assert eval_invariant(spec, f, phi) == 1


def test_pivot_contract_on_100_generated_instances():
    rnd = random.Random(47)
    built = 0
    trial = 0
    while built < 100:
        trial += 1
        g = random_graph(rnd.randint(4, 10), rnd.uniform(0.3, 0.8), 3_000 + trial)
        walk = _random_odd_closed_walk(g, rnd)
        if walk is None:
            continue
        if rnd.random() < 0.5:
            phi = GraphHom.identity(g)
        else:
            chi = exact_chromatic(g)
            col = _proper_coloring(g, chi)
            phi = GraphHom(g, complete(chi), tuple(col[v] for v in range(g.n)))
        f = EdgeMultiset.from_walk_vertices(g, walk)
        e, spec, odd_cycle = find_pivot_edge(phi, f)
        built += 1
        assert eval_invariant(spec, f, phi) == 1
        assert e in f.counts
        assert spec.stable_set == phi_partition(phi).class_edges(e)
        # the returned cycle is a genuine odd cycle of the target inside phi(f)
        assert odd_cycle[0] == odd_cycle[-1]
        assert (len(odd_cycle) - 1) % 2 == 1
        assert len(set(odd_cycle[:-1])) == len(odd_cycle) - 1
        support = {phi.edge_image(e_) for e_ in f.counts}
        for a, b in zip(odd_cycle, odd_cycle[1:]):
            assert phi.target.has_edge(a, b)
            assert canon_edge(a, b) in support
        assert phi.edge_image(e) in {canon_edge(a, b) for a, b in zip(odd_cycle, odd_cycle[1:])}


# ---------------------------------------------------------------------------
# verify_bipartite_complement


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


def test_odd_closed_walks_share_invariants_when_simply_connected():
    # on a certified graph (all same-endpoint same-parity walks homotopic),
    # every two odd closed walks carry identical invariant profiles
    from oddwalk.homotopy import check_simply_connected

    g = complete(4)
    assert check_simply_connected(g).status == "SIMPLY_CONNECTED"
    phi = GraphHom.identity(g)
    from oddwalk.closure import InvariantOracle

    oracle = InvariantOracle(phi)
    rnd = random.Random(77)
    profiles = set()
    for _ in range(200):
        v0 = rnd.randrange(4)
        walk = [v0]
        for _ in range(rnd.choice([3, 5, 7])):
            walk.append(rnd.choice(sorted(g.adj[walk[-1]])))
        if walk[-1] != walk[0]:
            continue
        f = EdgeMultiset.from_walk_vertices(g, walk)
        profiles.add(oracle.profile(f))
    assert len(profiles) == 1


def test_bipartite_complement_k4():
    k4 = complete(4)
    phi = GraphHom.identity(k4)
    spec = InvariantSpec(frozenset(k4.edges), None)
    assert verify_bipartite_complement(phi, spec, [0, 1, 2, 0])


def test_bipartite_complement_k4_with_pendant_path():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    phi = GraphHom.identity(g)
    part = phi_partition(phi)
    spec = InvariantSpec(part.class_edges((0, 1)), None)
    assert verify_bipartite_complement(phi, spec, [0, 1, 2, 0])


def test_bipartite_complement_c5_spot_check():
    c5 = cycle(5)
    phi = GraphHom.identity(c5)
    spec = InvariantSpec(frozenset({(0, 1)}), None)
    assert verify_bipartite_complement(phi, spec, [0, 1, 2, 3, 4, 0])


def test_partition_dump_format():
    dump = c4_partition(cycle(5)).dump()
    lines = dump.strip().splitlines()
    assert lines[0] == "class 0: 0-1"
    assert len(lines) == 5

"""End-to-end runs combining sampling, quotients, pivots and coloring."""

import math
import random

from oddwalk.borsuk import sample_approximation, tetrahedral_hom
from oddwalk.coloring import EXTENSION, bounded_coloring_pipeline
from oddwalk.graph import is_connected, shortest_odd_cycle
from oddwalk.homotopy import HOMOTOPIC, Walk, are_homotopic, legal_moves, replay_moves
from oddwalk.homsearch import fold_search
from oddwalk.closure import GraphHom

EPS5 = math.pi / 5


def test_pipeline_on_300_vertex_sphere_sample():
    # a 300-vertex sample folded onto the tetrahedral quotient: the target is
    # trivially 5-cycle-free, any odd cycle's image fits the bound, and the
    # pipeline must deliver a verified proper coloring below 32 colors
    g = sample_approximation(2, EPS5, 150, 5001)
    assert is_connected(g.graph)
    phi = tetrahedral_hom(g)
    cyc = shortest_odd_cycle(g.graph)
    assert cyc is not None and (len(cyc) - 1) >= 7
    walk = Walk(g.graph, cyc)
    coloring, trace = bounded_coloring_pipeline(phi, walk, 2, sc_certificate=True)
    assert coloring.is_proper(g.graph)
    assert coloring.palette_size < 32
    assert trace.branch == EXTENSION
    trace.validate(phi, walk, 2)


def test_sample_walk_pairs_reconnect_under_search():
    # same-endpoint same-parity pairs produced by a few walk moves reconnect
    # under the capped bidirectional search (completeness at small move
    # distance on a sample-scale graph)
    g = sample_approximation(2, EPS5, 150, 5001).graph
    rnd = random.Random(61)
    done = 0
    while done < 25:
        v0 = rnd.randrange(g.n)
        if not g.adj[v0]:
            continue
        vs = [v0]
        for _ in range(rnd.randint(2, 8)):
            vs.append(rnd.choice(sorted(g.adj[vs[-1]])))
        p = Walk(g, vs)
        q = p
        for _ in range(rnd.randint(1, 2)):
            options = legal_moves(q, p.length + 4)
            if not options:
                break
            _, q = options[rnd.randrange(len(options))]
        verdict = are_homotopic(g, p, q, length_cap=p.length + 6, state_cap=4 * 10**5)
        assert verdict.status == HOMOTOPIC
        assert replay_moves(p, verdict.moves) == q
        done += 1


def test_fold_floor_probe_on_samples():
    # quotient floors on small sphere samples: upper-bound semantics only,
    # reported per seed; every quotient revalidates as a homomorphic image
    # and keeps the forbidden length out
    from oddwalk.graph import has_cycle_of_length, is_bipartite

    floors = []
    for seed in (1, 2, 3):
        g = sample_approximation(2, EPS5, 25, seed)
        trace = fold_search(
            g.graph, {5}, beam=2, budget=5 * 10**5, seed=seed, candidate_cap=24
        )
        GraphHom(g.graph, trace.final_graph, trace.mapping)  # raises on a non-homomorphism
        assert has_cycle_of_length(trace.final_graph, 5, budget=10**6).status == "NO"
        if not is_bipartite(g.graph)[0]:
            assert not is_bipartite(trace.final_graph)[0]
        floors.append(trace.final_graph.n)
    assert all(f >= 2 for f in floors)
    print("fold floors (upper bounds):", floors)

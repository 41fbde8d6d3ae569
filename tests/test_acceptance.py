"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 5b was stated as a success: some coarse threshold in
(pi/5, 0.8, 1.0, 1.3, 1.6) gives a 5-cycle-free nearest-vertex quotient of
the 300-vertex pi/5 sample (seed 5001) onto a 40-vertex sample (seed 5002),
then a non-injective 7-cycle, then a proper coloring with fewer than 32
colours.  No threshold can give it, and the test checks the three reasons,
each recomputed from the point coordinates:

- antipodal: the nearest-vertex map commutes with the antipode, so 1,182 of
  the 4,276 fine edges land on excluded pairs (a, a^1) at every threshold;
- threshold gap: the coarse covering radius is about 0.68, so the map is
  sound only from a threshold of about 1.99; at pi/5, the one grid point
  where the coarse graph is 5-cycle-free, 1,676 fine edges land on
  non-antipodal coarse non-edges, and from 0.8 up the coarse graph has a
  5-cycle;
- covering: a non-injective 7-cycle needs a fine covering radius of at most
  pi/35 (about 0.090), and the fine sample's is about 0.30.

`tests/test_integration.py` runs the pipeline end to end on the same
300-vertex sample through the tetrahedral quotient.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chromatic import exact_chromatic
from graphs import complete, cycle, example7, fuzz_corpus, petersen, random_graph
from oddwalk.borsuk import (
    cap_measure,
    find_noninjective_c2r3,
    min_degree_ratio,
    nearest_vertex_hom,
    odd_girth_at_least,
    sample_approximation,
    tetrahedral_hom,
)
from oddwalk.cli import run_cli
from oddwalk.closure import (
    EdgeMultiset,
    GraphHom,
    InvariantOracle,
    InvariantSpec,
    eval_invariant,
    find_pivot_edge,
)
from oddwalk.coloring import bounded_coloring_pipeline
from oddwalk.errors import ConstructionError, SearchFailure
from oddwalk.graph import (
    canon_edge,
    has_cycle_of_length,
    shortest_odd_cycle,
)
from oddwalk.homotopy import (
    HOMOTOPIC,
    Move,
    Walk,
    are_homotopic,
    legal_moves,
    replay_moves,
)
from oddwalk.homsearch import FOUND, NONE, hom_exists
from oddwalk.ncomplex import (
    TRIVIAL,
    build_ncomplex,
    edge_path_presentation,
    edgepath_to_walk,
    h1_homology,
    tietze_simplify,
    walk_to_edgepath,
)

EPS5 = math.pi / 5
CRITERION_6_SEEDS = [13, 15, 16, 19, 35]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_worked_move_sequence():
    with criterion("1 (worked six-move example)"):
        t0 = time.perf_counter()
        g = example7()
        start, goal = Walk(g, [0, 1, 2, 0]), Walk(g, [0, 5, 6, 0])
        moves = [
            Move("ins", 2, 4),
            Move("sub", 2, 3),
            Move("sub", 1, 5),
            Move("sub", 4, 6),
            Move("sub", 3, 5),
            Move("del", 2),
        ]
        assert replay_moves(start, moves) == goal
        verdict = are_homotopic(g, start, goal)
        assert verdict.status == HOMOTOPIC
        assert replay_moves(start, verdict.moves) == goal
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_invariance_suite():
    with criterion("2 (invariance under 10^4 random moves)"):
        t0 = time.perf_counter()
        rnd = random.Random(2024)
        corpus = fuzz_corpus()
        applications = 0
        per_graph = 10**4 // len(corpus) + 1
        for g in corpus:
            oracle = InvariantOracle(GraphHom.identity(g))
            starts = [v for v in range(g.n) if g.adj[v]]
            for _ in range(per_graph):
                v = rnd.choice(starts)
                walk_vertices = [v]
                for _ in range(rnd.randint(0, 9)):
                    walk_vertices.append(rnd.choice(sorted(g.adj[walk_vertices[-1]])))
                walk = Walk(g, walk_vertices)
                options = legal_moves(walk, walk.length + 2)
                if not options:
                    continue
                move, successor = options[rnd.randrange(len(options))]
                assert (successor.start, successor.end) == (walk.start, walk.end)
                assert successor.parity() == walk.parity()
                assert oracle.profile(successor.edge_multiset()) == oracle.profile(
                    walk.edge_multiset()
                )
                applications += 1
        assert applications >= 10**4
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_additivity_and_short_walk_vanishing():
    with criterion("3 (additivity; 2- and 4-walk vanishing, exhaustive)"):
        rnd = random.Random(33)
        corpus = [g for g in fuzz_corpus() if g.n <= 8]
        assert corpus
        for g in corpus:
            phi = GraphHom.identity(g)
            oracle = InvariantOracle(phi)
            part = oracle.partition
            specs = [InvariantSpec(cls, None) for cls in part.classes]
            specs += [InvariantSpec(frozenset(g.edges), None)]
            anchored = [
                InvariantSpec(cls, u) for cls in part.classes for u in range(g.n)
            ]
            # additivity over multiset sums
            for _ in range(60):
                f1 = EdgeMultiset.from_edges(
                    g, [g.edges[rnd.randrange(len(g.edges))] for _ in range(rnd.randint(1, 5))]
                )
                f2 = EdgeMultiset.from_edges(
                    g, [g.edges[rnd.randrange(len(g.edges))] for _ in range(rnd.randint(1, 5))]
                )
                for spec in specs + anchored[:10]:
                    assert eval_invariant(spec, EdgeMultiset(f1.counts + f2.counts, g), phi) == (
                        eval_invariant(spec, f1, phi) ^ eval_invariant(spec, f2, phi)
                    )
            # exhaustive closed walks of length 2
            for v in range(g.n):
                for w in g.adj[v]:
                    f = EdgeMultiset.from_walk_vertices(g, [v, w, v])
                    profile_plain, profile_anchored = oracle.profile(f)
                    assert not any(profile_plain)
                    assert not profile_anchored
            # exhaustive closed walks of length 4
            for v0 in range(g.n):
                for v1 in g.adj[v0]:
                    for v2 in g.adj[v1]:
                        for v3 in g.adj[v2]:
                            if v0 not in g.adj[v3]:
                                continue
                            f = EdgeMultiset.from_walk_vertices(g, [v0, v1, v2, v3, v0])
                            plain, anch = oracle.profile(f)
                            assert not any(plain)
                            assert not anch


def test_criterion_4_pivot_contract():
    with criterion("4 (pivot search contract on 100 instances)"):
        t0 = time.perf_counter()
        rnd = random.Random(44)
        built = 0
        trial = 0
        while built < 100:
            trial += 1
            g = random_graph(rnd.randint(4, 10), rnd.uniform(0.3, 0.8), 40_000 + trial)
            starts = [v for v in range(g.n) if g.adj[v]]
            if not starts:
                continue
            walk = None
            for _ in range(200):
                v0 = rnd.choice(starts)
                cand = [v0]
                for _ in range(rnd.choice([3, 5, 7, 9])):
                    cand.append(rnd.choice(sorted(g.adj[cand[-1]])))
                if cand[0] == cand[-1] and (len(cand) - 1) % 2 == 1:
                    walk = cand
                    break
            if walk is None:
                continue
            if rnd.random() < 0.5:
                phi = GraphHom.identity(g)
            else:
                chi = exact_chromatic(g)
                from chromatic import _k_colorable

                col = _k_colorable(g, chi)
                phi = GraphHom(g, complete(chi), tuple(col[v] for v in range(g.n)))
            f = EdgeMultiset.from_walk_vertices(g, walk)
            e, spec, odd_cycle = find_pivot_edge(phi, f)
            assert eval_invariant(spec, f, phi) == 1
            support = {phi.edge_image(edge) for edge in f.counts}
            cycle_edges = {canon_edge(a, b) for a, b in zip(odd_cycle, odd_cycle[1:])}
            assert cycle_edges <= support
            assert phi.edge_image(e) in cycle_edges
            assert len(set(odd_cycle[:-1])) == len(odd_cycle) - 1
            built += 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5a_pipeline_k4():
    with criterion("5a (pipeline on the complete graph instance)"):
        t0 = time.perf_counter()
        g = complete(4)
        phi = GraphHom.identity(g)
        coloring, trace = bounded_coloring_pipeline(
            phi, Walk(g, [0, 1, 2, 0]), 2, sc_certificate=True
        )
        assert coloring.is_proper(g)
        assert coloring.palette_size < 32
        assert time.perf_counter() - t0 < 60.0


def _fibonacci_sphere(count):
    """Deterministic, nearly uniform probe points on the 2-sphere."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    longitude = k * math.pi * (3.0 - math.sqrt(5.0))
    ring = np.sqrt(1.0 - z * z)
    return np.column_stack([ring * np.cos(longitude), ring * np.sin(longitude), z])


def _covering_radius_lower_bound(points, probes):
    """Largest distance from a probe to its nearest point: no more than the
    covering radius of `points`."""
    nearest = np.clip((probes @ points.T).max(axis=1), -1.0, 1.0)
    return float(np.arccos(nearest).max())


class _LookupCounter(tuple):
    """A homomorphism's vertex map that counts the lookups made into it."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def test_criterion_5b_pipeline_sphere_sample_with_40_vertex_coarse_target():
    # The stated instance -- a 5-cycle-free 40-vertex nearest-vertex quotient
    # of the 300-vertex sample, then a non-injective 7-cycle and the pipeline
    # -- cannot be built.  Each of the three reasons is checked here against
    # the point coordinates.
    with criterion("5b (nearest-vertex map onto a 40-vertex sample is ruled out)"):
        t0 = time.perf_counter()
        fine = sample_approximation(2, EPS5, 150, 5001)  # 300 vertices, seed-pinned
        assert fine.graph.n == 300
        p = fine.sample.points
        probes = _fibonacci_sphere(4000)

        # Antipodal obstruction: the nearest-vertex map commutes with the
        # antipode, so a fine edge reaching the cell of -m(u) lands on an
        # excluded pair (a, a^1).  Coarse points do not depend on eps_c.
        q = sample_approximation(2, EPS5, 20, 5002).sample.points  # 40 vertices
        m = (p @ q.T).argmax(axis=1)
        assert np.array_equal(m[np.arange(len(m)) ^ 1], m ^ 1)
        fine_edges = np.array(fine.graph.edges)
        images = m[fine_edges]
        assert np.count_nonzero(images[:, 1] == images[:, 0] ^ 1) > 0

        # Threshold-gap obstruction: the map is sound only for eps_c of at
        # least EPS5 + 2 * (coarse covering radius), beyond the whole grid.
        rho = _covering_radius_lower_bound(q, probes)
        for eps_c in (EPS5, 0.8, 1.0, 1.3, 1.6):
            coarse = sample_approximation(2, eps_c, 20, 5002)
            assert np.array_equal(coarse.sample.points, q)
            assert eps_c < EPS5 + 2 * rho
            with pytest.raises(ConstructionError) as exc:
                nearest_vertex_hom(fine, coarse)
            violations = exc.value.violations
            assert violations
            for (u, v), (a, b) in violations:
                assert fine.graph.has_edge(u, v)
                assert (a, b) == (m[u], m[v])
                # summed coordinate by coordinate, as ApproxGraph does
                dot = sum(s * t for s, t in zip(q[a], q[b]))
                assert b == a ^ 1 or dot >= -math.cos(eps_c)
            search = has_cycle_of_length(coarse.graph, 5, budget=10**6)
            if search.status == "NO":
                assert any(b != a ^ 1 for _, (a, b) in violations)
            else:
                assert search.status == "YES"
                w = search.witness
                assert len(w) == 6 and w[0] == w[-1] and len(set(w[:-1])) == 5
                assert all(coarse.graph.has_edge(x, y) for x, y in zip(w, w[1:]))

        # Covering obstruction: a colliding pair needs delta <= pi/35 on the
        # fine sample, so the search fails before it looks at any phi.
        bound = math.pi / 35
        assert _covering_radius_lower_bound(p, probes) > bound
        tetra = tetrahedral_hom(fine)
        spy = GraphHom(tetra.source, tetra.target, _LookupCounter(tetra.mapping))
        spy.mapping.lookups = 0
        with pytest.raises(SearchFailure) as exc:
            find_noninjective_c2r3(fine, spy, 2)
        stats = exc.value.stats
        assert stats["delta_hat"] > bound
        assert stats["delta1"] > 2 * stats["delta2"]
        assert spy.mapping.lookups == 0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_borsuk_sample_properties():
    with criterion("6 (sample symmetry, odd girth, degree concentration)"):
        t0 = time.perf_counter()
        mu = cap_measure(2, EPS5)
        assert abs(mu - (1 - math.cos(EPS5)) / 2) <= 1e-10
        for count, tolerance in ((500, 0.25), (2000, 0.10)):
            for seed in CRITERION_6_SEEDS:
                g = sample_approximation(2, EPS5, count, seed)
                edges = set(g.graph.edges)
                for u, v in edges:
                    assert tuple(sorted((u ^ 1, v ^ 1))) in edges
                assert odd_girth_at_least(g, 7)
                ratio = min_degree_ratio(g.graph)
                assert abs(ratio / mu - 1) <= tolerance, (count, seed, ratio / mu - 1)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_cap_measure():
    with criterion("7 (cap measure closed forms)"):
        for n in range(1, 11):
            assert abs(cap_measure(n, math.pi / 2) - 0.5) <= 1e-10
        for k in range(1, 101):
            eps = k * math.pi / 101
            assert abs(cap_measure(2, eps) - (1 - math.cos(eps)) / 2) <= 1e-10


def test_criterion_8_topology_suite():
    with criterion("8 (homology, presentations, walk translation)"):
        t0 = time.perf_counter()
        assert h1_homology(build_ncomplex(complete(3))).describe() == "Z"
        assert h1_homology(build_ncomplex(complete(4))).describe() == "0"
        assert h1_homology(build_ncomplex(cycle(5))).describe() == "Z"
        comps = build_ncomplex(cycle(6)).components()
        assert len(comps) == 2
        assert all(h1_homology(c).describe() == "Z" for c in comps)
        _, status = tietze_simplify(edge_path_presentation(build_ncomplex(complete(4)), 0))
        assert status == TRIVIAL
        # walk <-> edge path round trip on 1000 fuzzed even closed walks
        rnd = random.Random(88)
        done = 0
        graphs_pool = [g for g in fuzz_corpus() if g.edges]
        while done < 1000:
            g = graphs_pool[rnd.randrange(len(graphs_pool))]
            starts = [v for v in range(g.n) if g.adj[v]]
            v0 = rnd.choice(starts)
            half = [v0]
            for _ in range(rnd.randint(1, 4)):
                half.append(rnd.choice(sorted(g.adj[half[-1]])))
            walk = Walk(g, half + half[:-1][::-1])
            if walk.parity() != 0 or not walk.is_closed():
                continue
            q = walk_to_edgepath(walk)
            lifted = edgepath_to_walk(q, g)
            assert walk_to_edgepath(lifted).vertices == q.vertices
            done += 1
        assert time.perf_counter() - t0 < 30.0


def test_criterion_9_hom_search_completeness():
    with criterion("9 (homomorphism search vs brute force)"):
        t0 = time.perf_counter()
        rnd = random.Random(99)
        pairs = 0
        trial = 0
        while pairs < 50:
            trial += 1
            g = random_graph(rnd.randint(1, 6), rnd.uniform(0.2, 0.9), 90_000 + trial)
            h = random_graph(rnd.randint(1, 4), rnd.uniform(0.2, 0.9), 91_000 + trial)
            brute = None
            for values in itertools.product(range(h.n), repeat=g.n):
                if all(h.has_edge(values[u], values[v]) for u, v in g.edges):
                    brute = values
                    break
            result = hom_exists(g, h)
            assert result.status in (FOUND, NONE)
            assert (result.status == FOUND) == (brute is not None)
            pairs += 1
        assert hom_exists(petersen(), cycle(5)).status == NONE
        assert hom_exists(cycle(7), cycle(5)).status == FOUND
        assert time.perf_counter() - t0 < 60.0


def _random_eulerian_set(g, fundamental, rnd):
    out = set()
    for cyc in fundamental:
        if rnd.random() < 0.5:
            out ^= cyc
    return out


def test_criterion_10_eulerian_length_inequality():
    with criterion("10 (Eulerian pair length inequality, 1000 pairs)"):
        rnd = random.Random(1010)
        checked = 0
        trial = 0
        while checked < 1000:
            trial += 1
            g = random_graph(rnd.randint(4, 10), rnd.uniform(0.3, 0.7), 10_000 + trial)
            cyc = shortest_odd_cycle(g)
            if cyc is None:
                continue
            c_edges = {canon_edge(a, b) for a, b in zip(cyc, cyc[1:])}
            # fundamental cycles from a spanning forest
            parent = {}
            seen = set()
            tree = set()
            for root in range(g.n):
                if root in seen:
                    continue
                seen.add(root)
                stack = [root]
                parent[root] = None
                while stack:
                    u = stack.pop()
                    for w in sorted(g.adj[u]):
                        if w not in seen:
                            seen.add(w)
                            parent[w] = u
                            tree.add(canon_edge(u, w))
                            stack.append(w)
            fundamental = []
            for e in g.edges:
                if e in tree:
                    continue
                u, w = e
                pu, pw = [u], [w]
                while parent[pu[-1]] is not None:
                    pu.append(parent[pu[-1]])
                while parent[pw[-1]] is not None:
                    pw.append(parent[pw[-1]])
                while len(pu) >= 2 and len(pw) >= 2 and pu[-2] == pw[-2]:
                    pu.pop()
                    pw.pop()
                cycle_edges = {e}
                for a, b in zip(pu, pu[1:]):
                    cycle_edges.add(canon_edge(a, b))
                for a, b in zip(pw, pw[1:]):
                    cycle_edges.add(canon_edge(a, b))
                fundamental.append(frozenset(cycle_edges))
            if not fundamental:
                continue
            for _ in range(4):
                x = _random_eulerian_set(g, fundamental, rnd)
                y = _random_eulerian_set(g, fundamental, rnd)
                if len(x) % 2 != len(y) % 2:
                    continue
                x1 = x - c_edges
                y1 = y - c_edges
                assert len(y) <= len(x) + 2 * len(y1 - x1)
                assert len(x) <= len(y) + 2 * len(x1 - y1)
                checked += 1


def test_criterion_11_determinism(tmp_path):
    with criterion("11 (byte-identical reruns)"):
        out1, out2 = str(tmp_path / "a.el"), str(tmp_path / "b.el")
        argv = ["gen-borsuk", "--n", "2", "--r", "2", "--N", "120", "--seed", "77"]
        code1, rep1 = run_cli(argv + ["--out", out1])
        code2, rep2 = run_cli(argv + ["--out", out2])
        assert code1 == code2 == 0
        assert open(out1).read() == open(out2).read()
        rep1.pop("timing"), rep2.pop("timing")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
        argv = [
            "experiment-dhom", "--n", "2", "--r", "2",
            "--N-list", "50", "--seeds", "3,4", "--fold-budget", "15000",
        ]
        _, exp1 = run_cli(argv)
        _, exp2 = run_cli(argv)
        exp1.pop("timing"), exp2.pop("timing")
        assert json.dumps(exp1, sort_keys=True) == json.dumps(exp2, sort_keys=True)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homology_reference as ref
from graphs import complete, cycle, fuzz_corpus, random_connected_nonbipartite
from snf_reference import determinant, matrix_product
from snf_reference import smith_normal_form as reference_snf
from oddwalk import ncomplex
from oddwalk.borsuk import sample_approximation
from oddwalk.errors import InputError, RefusalError
from oddwalk.graph import Graph
from oddwalk.homotopy import HOMOTOPIC, Walk, legal_moves
from oddwalk.ncomplex import (
    CYCLIC,
    TRIVIAL,
    UNKNOWN,
    UNKNOWN_NONTRIVIAL_ABELIANIZATION,
    EdgePath,
    GroupPresentation,
    SimplicialComplex,
    build_ncomplex,
    edge_path_presentation,
    edgepath_to_walk,
    equivalent_edge_paths,
    h1_homology,
    presentation_abelianization,
    tietze_simplify,
    walk_to_edgepath,
)
from oddwalk.snf import smith_normal_form


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_transforms_and_divisibility_random():
    rnd = random.Random(77)
    for _ in range(120):
        rows = rnd.randint(1, 8)
        cols = rnd.randint(1, 8)
        A = [[rnd.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        res = reference_snf(A)
        fast = smith_normal_form(A)
        assert (fast.diagonal, fast.rank, fast.rows, fast.cols) == (
            res.diagonal, res.rank, rows, cols
        )
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        D = matrix_product(matrix_product(res.U, A), res.V)
        for i in range(rows):
            for j in range(cols):
                if i == j and i < len(res.diagonal):
                    assert D[i][j] == res.diagonal[i]
                else:
                    assert D[i][j] == 0
        for a, b in zip(res.diagonal, res.diagonal[1:]):
            assert b % a == 0
        assert all(d > 0 for d in res.diagonal)


def test_snf_rank_matches_rational_rank():
    rnd = random.Random(78)
    for _ in range(40):
        rows = rnd.randint(1, 6)
        cols = rnd.randint(1, 6)
        A = [[rnd.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(A).rank == _rational_rank(A)


def _rational_rank(A):
    m = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# complex construction


def test_ncomplex_k4_is_tetrahedron_boundary():
    k = build_ncomplex(complete(4))
    assert len(k.maximal_faces) == 4
    assert all(len(f) == 3 for f in k.maximal_faces)


def test_ncomplex_k3_is_hollow_triangle():
    k = build_ncomplex(complete(3))
    assert len(k.maximal_faces) == 3
    assert all(len(f) == 2 for f in k.maximal_faces)
    assert not k.triangles()


def test_ncomplex_c6_two_hollow_triangles():
    k = build_ncomplex(cycle(6))
    comps = k.components()
    assert len(comps) == 2
    for comp in comps:
        assert len(comp.edges()) == 3
        assert not comp.triangles()
        assert h1_homology(comp).free_rank == 1


def test_ncomplex_connected_iff_connected_nonbipartite_exhaustive():
    # checked for every graph without isolated vertices on <= 5 vertices
    # (exhaustive over edge sets) and random graphs on 6-7 vertices
    import itertools

    from graphs import random_graph
    from oddwalk.graph import is_bipartite, is_connected

    def check(g):
        if not g.edges or any(not g.adj[v] for v in range(g.n)):
            return
        k = build_ncomplex(g)
        expect = is_connected(g) and not is_bipartite(g)[0]
        assert k.is_connected() == expect

    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            check(Graph(n, edges))
    rnd = random.Random(5)
    for trial in range(200):
        n = rnd.choice([6, 7])
        check(random_graph(n, rnd.uniform(0.2, 0.8), 4_000 + trial))


# ---------------------------------------------------------------------------
# homology


def test_h1_named_complexes():
    assert h1_homology(build_ncomplex(complete(3))).describe() == "Z"
    assert h1_homology(build_ncomplex(complete(4))).describe() == "0"
    assert h1_homology(build_ncomplex(cycle(5))).describe() == "Z"


def test_h1_refuses_disconnected():
    with pytest.raises(RefusalError):
        h1_homology(build_ncomplex(cycle(6)))


# minimal 6-vertex closed-surface triangulation with Euler characteristic 1
# (every pair of vertices appears in exactly two faces): H1 = Z/2
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
]


def test_h1_torsion_projective_plane(monkeypatch):
    cores = []

    def spy(matrix):
        cores.append((len(matrix), len(matrix[0]) if matrix else 0))
        return smith_normal_form(matrix)

    monkeypatch.setattr(ncomplex, "smith_normal_form", spy)
    k = SimplicialComplex([frozenset(f) for f in RP2])
    h = h1_homology(k)
    assert h.free_rank == 0
    assert h.torsion == (2,)
    assert h == ref.h1_homology(k)
    # the Z/2 survives no unit pivot: it comes out of a nonempty dense core
    assert len(cores) == 1 and cores[0][0] * cores[0][1] > 0


def test_h1_matches_dense_reference_on_corpus():
    for g in fuzz_corpus():
        for comp in build_ncomplex(g).components():
            assert h1_homology(comp) == ref.h1_homology(comp)


@st.composite
def connected_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    faces = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=5),
            max_size=14,
        )
    )
    faces += [frozenset({v, v + 1}) for v in range(n - 1)]  # keeps it connected
    if n >= 6 and draw(st.booleans()):
        faces += [frozenset(v - 1 for v in f) for f in RP2]
    return SimplicialComplex(faces)


@given(connected_complexes())
@settings(max_examples=200, deadline=None)
def test_h1_matches_dense_reference_on_random_complexes(k):
    assert h1_homology(k) == ref.h1_homology(k)


def test_h1_fill_in_cap_refuses(monkeypatch):
    # every edge of K6's complex lies on several columns of d2, so clearing
    # a pivot row adds the pivot triangle's other edges to the rest of them
    k = build_ncomplex(complete(6))
    assert h1_homology(k).describe() == "0"
    monkeypatch.setattr(ncomplex, "FILL_IN_PER_NONZERO", 0)
    with pytest.raises(RefusalError):
        h1_homology(k)


def test_h1_on_sphere_samples():
    # neither finished under the dense Smith normal form of d2
    # (1,868 x 10,852 and 13,546 x 234,550)
    g = sample_approximation(2, math.pi / 5, 60, 1).graph
    h = h1_homology(build_ncomplex(g))
    assert (h.free_rank, h.torsion) == (3, ())
    g = sample_approximation(2, math.pi / 5, 150, 5001).graph
    assert h1_homology(build_ncomplex(g)).describe() == "0"


# ---------------------------------------------------------------------------
# presentations


def test_presentation_nk3_single_generator():
    pres = edge_path_presentation(build_ncomplex(complete(3)), 0)
    assert pres.num_generators == 1
    assert pres.relators == ()
    reduced, status = tietze_simplify(pres)
    assert status == CYCLIC


def test_presentation_nk4_trivializes():
    pres = edge_path_presentation(build_ncomplex(complete(4)), 0)
    reduced, status = tietze_simplify(pres)
    assert status == TRIVIAL
    assert reduced.num_generators == 0


def test_presentation_single_edge_complex():
    k = SimplicialComplex([frozenset({0, 1})])
    pres = edge_path_presentation(k, 0)
    assert pres.num_generators == 0
    assert tietze_simplify(pres)[1] == TRIVIAL


def test_tietze_statuses():
    assert tietze_simplify(GroupPresentation(1, ()))[1] == CYCLIC
    commutator = GroupPresentation(2, ((1, 2, -1, -2),))
    reduced, status = tietze_simplify(commutator)
    assert status == UNKNOWN_NONTRIVIAL_ABELIANIZATION
    ab = presentation_abelianization(reduced)
    assert ab.free_rank == 2 and ab.torsion == ()


def test_tietze_handles_torsion_relator():
    pres = GroupPresentation(1, ((1, 1, 1),))
    reduced, status = tietze_simplify(pres)
    assert status == CYCLIC
    assert presentation_abelianization(reduced).torsion == (3,)


def test_tietze_substitutes_through_a_length_two_relator():
    # ab = 1 makes b = a^-1; the relator becomes a a^-1, which cancels
    assert tietze_simplify(GroupPresentation(2, ((1, 2),))) == (GroupPresentation(1, ()), CYCLIC)


def test_tietze_strips_a_conjugate_relator_cyclically():
    # aba^-1 reduces cyclically to b, which then makes b trivial
    assert tietze_simplify(GroupPresentation(2, ((1, 2, -1),))) == (GroupPresentation(1, ()), CYCLIC)


def test_tietze_rewrites_a_longer_relator_with_a_shorter_one():
    # ab = c^-1 by the first relator, so abddd becomes c^-1 ddd
    reduced, status = tietze_simplify(GroupPresentation(4, ((1, 2, 3), (1, 2, 4, 4, 4))))
    assert reduced == GroupPresentation(4, ((1, 2, 3), (-3, 4, 4, 4)))
    assert status == UNKNOWN_NONTRIVIAL_ABELIANIZATION


def test_tietze_gives_up_on_the_binary_icosahedral_group():
    # <s, t | (st)^2 s^-3, s^3 t^-5> is perfect and has order 120, so no
    # correct simplification reaches one generator and H1 certifies nothing
    pres = GroupPresentation(2, ((1, 2, 1, 2, -1, -1, -1), (1, 1, 1, -2, -2, -2, -2, -2)))
    reduced, status = tietze_simplify(pres)
    assert status == UNKNOWN
    assert reduced.num_generators == 2
    ab = presentation_abelianization(reduced)
    assert ab.free_rank == 0 and ab.torsion == ()


def test_presentation_and_complex_dump_formats():
    pres = GroupPresentation(2, ((1, -2), (2, 2)))
    assert pres.dump() == "gens 2\n1 -2\n2 2\n"
    k = build_ncomplex(complete(3))
    assert k.dump() == "0 1\n0 2\n1 2\n"


def test_presentation_free_rank_matches_h1():
    rnd = random.Random(101)
    for trial in range(15):
        g = random_connected_nonbipartite(rnd.randint(4, 7), rnd.uniform(0.4, 0.8), 6_000 + trial)
        k = build_ncomplex(g)
        if not k.is_connected():
            continue
        h1 = h1_homology(k)
        pres = edge_path_presentation(k, min(k.vertices()))
        ab = presentation_abelianization(pres)
        assert ab.free_rank == h1.free_rank
        assert ab.torsion == h1.torsion


@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda gens: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=gens, max_size=gens),
            max_size=6,
        ).map(lambda rows: (gens, rows))
    )
)
@settings(max_examples=200, deadline=None)
def test_abelianization_matches_dense_snf(case):
    gens, rows = case
    # relator g1^e1 g2^e2 ... has the exponent sums of its row
    relators = tuple(
        tuple(sym for g, e in enumerate(row, 1) for sym in [g if e > 0 else -g] * abs(e))
        for row in rows
    )
    p = GroupPresentation(gens, relators)
    assert presentation_abelianization(p) == ref.presentation_abelianization(p)


# ---------------------------------------------------------------------------
# walk <-> edge path


def test_walk_to_edgepath_named():
    k4 = complete(4)
    q = walk_to_edgepath(Walk(k4, [0, 1, 2, 3, 0]))
    assert q.vertices == (0, 2, 0)
    q0 = walk_to_edgepath(Walk(k4, [0]))
    assert q0.vertices == (0,)


def test_walk_to_edgepath_double_wind_c5():
    c5 = cycle(5)
    walk = Walk(c5, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0])
    q = walk_to_edgepath(walk)
    assert q.vertices == (0, 2, 4, 1, 3, 0)


def test_walk_to_edgepath_rejects_odd_or_open():
    k4 = complete(4)
    with pytest.raises(InputError):
        walk_to_edgepath(Walk(k4, [0, 1, 2, 0]))
    with pytest.raises(InputError):
        walk_to_edgepath(Walk(k4, [0, 1]))


def test_edgepath_to_walk_round_trip():
    k4 = complete(4)
    k = build_ncomplex(k4)
    q = EdgePath(k, (0, 2, 0))
    w = edgepath_to_walk(q, k4)
    assert w.vertices == (0, 1, 2, 1, 0)
    assert walk_to_edgepath(w).vertices == q.vertices
    single = EdgePath(k, (0,))
    assert edgepath_to_walk(single, k4).length == 0


def test_edgepath_rejects_non_coface_pair():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path: 0 and 3 share no neighbor
    k = build_ncomplex(g)
    with pytest.raises(InputError):
        EdgePath(k, (0, 3))


def test_round_trip_fuzz():
    rnd = random.Random(31)
    done = 0
    while done < 1000:
        g = random_connected_nonbipartite(rnd.randint(4, 8), rnd.uniform(0.4, 0.8), 7_000 + done)
        k = build_ncomplex(g)
        verts = sorted(k.vertices())
        # random valid closed edge path
        path = [rnd.choice(verts)]
        ok = True
        for _ in range(rnd.randint(1, 5)):
            candidates = [
                w for w in verts if k.in_common_simplex((path[-1], w))
            ]
            if not candidates:
                ok = False
                break
            path.append(rnd.choice(candidates))
        if not ok:
            continue
        candidates = [w for w in [path[0]] if k.in_common_simplex((path[-1], w))]
        if not candidates:
            continue
        path.append(path[0])
        q = EdgePath(k, tuple(path))
        w = edgepath_to_walk(q, g)
        assert w.is_closed() and w.parity() == 0
        assert walk_to_edgepath(w).vertices == q.vertices
        done += 1


def test_homotopy_transport_under_moves():
    # applying a walk move, then translating both walks, stays connected by
    # the edge-path moves (bounded search; UNKNOWN tolerated but tracked)
    rnd = random.Random(41)
    unknowns = 0
    done = 0
    while done < 60:
        g = random_connected_nonbipartite(rnd.randint(4, 7), rnd.uniform(0.5, 0.9), 8_000 + done)
        k = build_ncomplex(g)
        if not k.is_connected():
            continue
        verts = [v for v in range(g.n) if g.adj[v]]
        start = rnd.choice(verts)
        walk = [start]
        for _ in range(rnd.choice([2, 4])):
            walk.append(rnd.choice(sorted(g.adj[walk[-1]])))
        # close it to even length by walking back
        back = walk[:-1][::-1]
        walk = walk + back
        p = Walk(g, walk)
        if p.parity() != 0 or not p.is_closed():
            continue
        moves = legal_moves(p, p.length + 2)
        if not moves:
            continue
        move, p2 = rnd.choice(moves)
        q1 = walk_to_edgepath(p)
        q2 = walk_to_edgepath(p2)
        status = equivalent_edge_paths(k, q1, q2, state_cap=3 * 10**4)
        if status == HOMOTOPIC:
            done += 1
        else:
            unknowns += 1
            done += 1
    assert unknowns <= 12  # bounded search may give up occasionally, not usually

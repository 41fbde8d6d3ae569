import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import complete, cycle, example7, fuzz_corpus, petersen, small_graphs
from oddwalk.borsuk import sample_approximation
from oddwalk.closure import GraphHom, InvariantOracle
from oddwalk.errors import InputError, MoveError, RefusalError
from oddwalk.graph import Graph, shortest_odd_cycle
from oddwalk.homotopy import (
    DEL,
    HOMOTOPIC,
    INS,
    NOT_HOMOTOPIC,
    SUB,
    UNKNOWN,
    Move,
    Walk,
    _key,
    _key_moves,
    _moves,
    _vertices,
    apply_move,
    are_homotopic,
    check_simply_connected,
    inverse_move,
    legal_moves,
    parse_moves,
    parse_walk,
    replay_moves,
)

# The worked six-move transformation of the triangle 0-1-2 into the triangle
# 0-5-6 on the 7-vertex example graph.
EXAMPLE_MOVES = [
    Move(INS, 2, 4),
    Move(SUB, 2, 3),
    Move(SUB, 1, 5),
    Move(SUB, 4, 6),
    Move(SUB, 3, 5),
    Move(DEL, 2),
]


def test_example_first_two_steps():
    g = example7()
    w = Walk(g, [0, 1, 2, 0])
    w = apply_move(w, Move(INS, 2, 4))
    assert w.vertices == (0, 1, 2, 4, 2, 0)
    w = apply_move(w, Move(SUB, 2, 3))
    assert w.vertices == (0, 1, 3, 4, 2, 0)


def test_example_full_replay():
    g = example7()
    start = Walk(g, [0, 1, 2, 0])
    end = replay_moves(start, EXAMPLE_MOVES)
    assert end.vertices == (0, 5, 6, 0)


def test_example_intermediate_walks():
    g = example7()
    expected = [
        (0, 1, 2, 4, 2, 0),
        (0, 1, 3, 4, 2, 0),
        (0, 5, 3, 4, 2, 0),
        (0, 5, 3, 4, 6, 0),
        (0, 5, 3, 5, 6, 0),
        (0, 5, 6, 0),
    ]
    w = Walk(g, [0, 1, 2, 0])
    for move, want in zip(EXAMPLE_MOVES, expected):
        w = apply_move(w, move)
        assert w.vertices == want


def test_del_to_single_vertex():
    g = complete(3)
    w = apply_move(Walk(g, [0, 1, 0]), Move(DEL, 1))
    assert w.vertices == (0,)


def test_move_errors_name_condition():
    g = cycle(5)
    w = Walk(g, [0, 1, 2])
    with pytest.raises(MoveError, match="interior"):
        apply_move(w, Move(SUB, 0, 3))
    with pytest.raises(MoveError, match="common neighbor"):
        apply_move(w, Move(SUB, 1, 3))
    with pytest.raises(MoveError, match="neighbor"):
        apply_move(w, Move(INS, 0, 2))
    with pytest.raises(MoveError, match="equal neighbors"):
        apply_move(w, Move(DEL, 1))


def test_replay_reports_step_index():
    g = cycle(5)
    with pytest.raises(MoveError, match="step 1"):
        replay_moves(Walk(g, [0, 1, 2]), [Move(INS, 0, 1), Move(SUB, 1, 3)])


def test_replay_empty_and_inverse_pair():
    g = petersen()
    w = Walk(g, [0, 1, 2, 3])
    assert replay_moves(w, []) == w
    assert replay_moves(w, [Move(INS, 2, 7), Move(DEL, 3)]) == w


def test_move_and_walk_parsing():
    g = example7()
    assert parse_walk(g, "0,1,2,0").vertices == (0, 1, 2, 0)
    moves = parse_moves("ins 2 4\nsub 2 3\ndel 2\n")
    assert moves == [Move(INS, 2, 4), Move(SUB, 2, 3), Move(DEL, 2)]
    assert parse_moves("\n".join(m.format() for m in EXAMPLE_MOVES)) == EXAMPLE_MOVES


# ---------------------------------------------------------------------------
# move fuzz: endpoints, parity, invariants, invertibility


def _random_walk(g, rnd, max_len=10):
    starts = [v for v in range(g.n) if g.adj[v]]
    if not starts:
        return None
    v = rnd.choice(starts)
    walk = [v]
    for _ in range(rnd.randint(0, max_len)):
        walk.append(rnd.choice(sorted(g.adj[walk[-1]])))
    return Walk(g, walk)


def _random_move(walk, rnd):
    options = legal_moves(walk, walk.length + 2)
    return rnd.choice(options) if options else (None, None)


def test_moves_preserve_endpoints_parity_and_invariants():
    rnd = random.Random(97)
    for g in fuzz_corpus():
        oracle = InvariantOracle(GraphHom.identity(g))
        for _ in range(400):
            walk = _random_walk(g, rnd)
            if walk is None:
                break
            move, successor = _random_move(walk, rnd)
            if move is None:
                continue
            applied = apply_move(walk, move)
            assert applied == successor
            assert (applied.start, applied.end) == (walk.start, walk.end)
            assert applied.parity() == walk.parity()
            assert oracle.profile(applied.edge_multiset()) == oracle.profile(
                walk.edge_multiset()
            )
            # invertibility
            back = apply_move(applied, inverse_move(walk, move))
            assert back == walk


# ---------------------------------------------------------------------------
# are_homotopic


def test_homotopic_worked_example():
    g = example7()
    verdict = are_homotopic(g, Walk(g, [0, 1, 2, 0]), Walk(g, [0, 5, 6, 0]))
    assert verdict.status == HOMOTOPIC
    assert replay_moves(Walk(g, [0, 1, 2, 0]), verdict.moves) == Walk(g, [0, 5, 6, 0])


def test_not_homotopic_parity():
    g = cycle(5)
    verdict = are_homotopic(g, Walk(g, [0, 1]), Walk(g, [0, 4, 3, 2, 1]))
    assert verdict.status == NOT_HOMOTOPIC
    assert "parity" in str(verdict.separator)


def test_not_homotopic_endpoints():
    g = cycle(5)
    verdict = are_homotopic(g, Walk(g, [0, 1]), Walk(g, [0, 4]))
    assert verdict.status == NOT_HOMOTOPIC


def test_unknown_for_double_wind_on_c5():
    g = cycle(5)
    p = Walk(g, [0])
    q = Walk(g, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0])
    verdict = are_homotopic(g, p, q, length_cap=10, state_cap=10**5)
    assert verdict.status == UNKNOWN


def test_invariant_separation_on_joined_triangles():
    # two triangles joined by an edge, no 4-cycles: all closure classes are
    # single edges, so circling one triangle vs. the other is separated by
    # an edge-parity invariant (endpoints and parity agree)
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    p = Walk(g, [0, 1, 2, 0])
    q = Walk(g, [0, 2, 3, 4, 5, 3, 2, 0])
    assert p.parity() == q.parity() == 1
    verdict = are_homotopic(g, p, q)
    assert verdict.status == NOT_HOMOTOPIC
    assert verdict.separator is not None


def test_homotopic_symmetric_and_witnesses_replay():
    rnd = random.Random(11)
    g = complete(4)
    for _ in range(40):
        p = _random_walk(g, rnd, max_len=6)
        q = _random_walk(g, rnd, max_len=6)
        v1 = are_homotopic(g, p, q, state_cap=2 * 10**5)
        v2 = are_homotopic(g, q, p, state_cap=2 * 10**5)
        assert v1.status == v2.status
        if v1.status == HOMOTOPIC:
            assert replay_moves(p, v1.moves) == q


def test_k4_same_endpoint_same_parity_pairs_all_homotopic():
    rnd = random.Random(23)
    g = complete(4)
    done = 0
    while done < 100:
        p = _random_walk(g, rnd, max_len=8)
        q = _random_walk(g, rnd, max_len=8)
        if (p.start, p.end) != (q.start, q.end) or p.parity() != q.parity():
            continue
        verdict = are_homotopic(g, p, q, state_cap=5 * 10**5)
        assert verdict.status == HOMOTOPIC
        assert replay_moves(p, verdict.moves) == q
        done += 1


# ---------------------------------------------------------------------------
# the byte-keyed successors of the search against `_moves`


def assert_same_successors(g, vs, length_cap):
    got = [_vertices(key) for key in _key_moves(g, length_cap)(_key(vs))]
    assert got == [succ for _, succ in _moves(g, vs, length_cap)], (vs, length_cap)


def check_successors(g, vs):
    k = len(vs) - 1
    # at the length cap and one below it no insertion fits; two below, all do
    for cap in (k, k + 1, k + 2, k + 6):
        assert_same_successors(g, vs, cap)


def test_key_successors_match_moves_on_corpus():
    rnd = random.Random(31)
    for g in fuzz_corpus():
        for v in range(g.n):
            check_successors(g, (v,))
            for w in g.sorted_adj[v]:
                check_successors(g, (v, w))
                check_successors(g, (v, w, v))  # a deletion site
        for _ in range(40):
            check_successors(g, _random_walk(g, rnd).vertices)


@given(small_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_key_successors_match_moves_on_random_graphs(g, data):
    if g.n == 0:
        return
    vs = [data.draw(st.integers(0, g.n - 1))]
    for _ in range(data.draw(st.integers(0, 7))):
        if not g.sorted_adj[vs[-1]]:
            break
        vs.append(data.draw(st.sampled_from(g.sorted_adj[vs[-1]])))
    check_successors(g, tuple(vs))


def test_a_repeated_successor_keeps_the_first_label():
    g = cycle(5)
    # "ins 0 1" and "ins 1 0" both take 0 1 to 0 1 0 1; the search keeps the first
    successors = [succ for _, succ in _moves(g, (0, 1), 3)]
    assert successors.count((0, 1, 0, 1)) == 2
    verdict = are_homotopic(g, Walk(g, [0, 1]), Walk(g, [0, 1, 0, 1]))
    assert verdict.status == HOMOTOPIC
    assert verdict.moves == [Move(INS, 0, 1)]


def test_search_memory_on_a_300_vertex_sample():
    # a 7-cycle against its reverse on the seed-7 sample: no meeting within
    # 1,000 expansions, about 170 stored walks and 370 successors each
    g = sample_approximation(2, math.pi / 5, 150, 7).graph
    c = Walk(g, shortest_odd_cycle(g))
    assert (g.n, c.length) == (300, 7)
    tracemalloc.start()
    try:
        verdict = are_homotopic(g, c, Walk(g, c.vertices[::-1]), state_cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.states_explored) == (UNKNOWN, 1001)
    # 23 MB with byte keys; vertex tuples with a stored move label per walk took 51 MB
    assert peak < 32 * 2**20, peak


# ---------------------------------------------------------------------------
# simple connectivity


def test_simply_connected_k4():
    assert check_simply_connected(complete(4)).status == "SIMPLY_CONNECTED"


def test_not_simply_connected_k3_and_c5():
    for g in [complete(3), cycle(5)]:
        verdict = check_simply_connected(g)
        assert verdict.status == "NOT"
        assert verdict.detail.free_rank == 1
        assert verdict.detail.torsion == ()


@pytest.mark.parametrize(
    "status, verdict",
    [("CYCLIC", "SIMPLY_CONNECTED"), ("UNKNOWN", "UNKNOWN"), ("TRIVIAL", "SIMPLY_CONNECTED")],
)
def test_cyclic_presentation_with_zero_homology_is_simply_connected(monkeypatch, status, verdict):
    # no small graph was found whose simplification stops at one generator,
    # so the simplifier is stubbed; K4's first homology is 0, and a cyclic
    # group with zero abelianization is trivial
    from oddwalk import ncomplex

    stub = ncomplex.GroupPresentation(1, ((1, 1), (1, 1, 1)))
    monkeypatch.setattr(ncomplex, "tietze_simplify", lambda pres, budget: (stub, status))
    result = check_simply_connected(complete(4))
    assert result.status == verdict
    assert result.detail == (status if verdict == "UNKNOWN" else None)


def test_simply_connected_refusals():
    with pytest.raises(RefusalError, match="non-bipartite"):
        check_simply_connected(cycle(6))
    with pytest.raises(RefusalError, match="connected"):
        check_simply_connected(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_walk_validation():
    g = cycle(5)
    with pytest.raises(InputError):
        Walk(g, [0, 2])
    with pytest.raises(InputError):
        Walk(g, [])
    w = Walk(g, [0])
    assert w.length == 0 and w.is_closed() and w.parity() == 0

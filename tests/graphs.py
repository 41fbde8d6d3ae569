"""Named graphs and random-graph helpers shared across the test suite."""

import random

from hypothesis import strategies as st

from oddwalk.graph import Graph


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def path(k):
    """Path with k edges on k+1 vertices."""
    return Graph(k + 1, [(i, i + 1) for i in range(k)])


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer 5-cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


# 7-vertex graph used by the walk-move worked example: a hub (vertex 0) on
# two triangles 0-1-2 and 0-5-6 glued through the ladder 1-3-5 / 2-4-6.
EXAMPLE7_EDGES = [
    (0, 1), (0, 2), (0, 5), (0, 6),
    (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6),
]


def example7():
    return Graph(7, EXAMPLE7_EDGES)


def random_graph(n, p, seed):
    rnd = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
    return Graph(n, edges)


@st.composite
def small_graphs(draw):
    """Hypothesis strategy: a graph on 0-12 vertices, each pair an edge or not."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def random_connected_nonbipartite(n, p, seed_start):
    """First random graph from the seed sequence that is connected with an odd cycle."""
    from oddwalk.graph import INFINITE, is_connected, odd_girth

    seed = seed_start
    while True:
        g = random_graph(n, p, seed)
        if is_connected(g) and odd_girth(g) != INFINITE:
            return g
        seed += 1


FUZZ_CORPUS_SEEDS = [(8, 0.4, 101), (10, 0.35, 202), (12, 0.3, 303)]


def fuzz_corpus():
    """Fixed corpus: K4, C5, C7, Petersen, the 7-vertex example, 3 random graphs."""
    graphs = [complete(4), cycle(5), cycle(7), petersen(), example7()]
    graphs.extend(random_graph(n, p, s) for n, p, s in FUZZ_CORPUS_SEEDS)
    return graphs

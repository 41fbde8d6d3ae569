"""The benchmark's three workloads: seeded input generation, the timed job,
and independent output checks.

Each workload turns (seed, job index) into inputs with the benchmark's own
random stream, runs one job of items back to back through the public
oddwalk API, and then checks every item's output with code of its own.
The deterministic part of each output goes into a per-job digest.

Why these workloads:

* sample-girth: the experiment-dhom job.  Sampling, the Gram threshold,
  the dense matrix-power girth check and the fold search do nearly all of
  the work; closure, homotopy and coloring do none.  It is the bypass
  control for closure and traversal changes, and the only workload where
  memory moves.
* color-pipeline: one fresh 300-vertex sphere sample per job, mapped onto
  K4 and coloured by the bounded pipeline.  Graph traversal (the odd-cycle
  BFS) and closure queries (is_stable, eval_invariant, three phi_partition
  calls per instance) dominate.  Every instance is a new graph, so
  per-graph caching helps only within an instance.
* homotopy: four walk-pair queries on one 300-vertex sample per job, plus
  one simple-connectivity check.  Every query runs on the same graph, so
  this is the closure-build (repeated work) workload; it is also the only
  one where the move BFS and the Smith normal form run.  Walk pairs come
  from the benchmark's own move code, not from legal_moves, so a change to
  the homotopy layer cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oddwalk import borsuk, coloring, homotopy, homsearch, graph

EPS5 = math.pi / 5
EPS3 = math.pi / 3

GIRTH_SAMPLE_COUNT = 2000  # 4,000 vertices, about 763k edges
FOLD_SAMPLE_COUNT = 50
PIPELINE_SAMPLE_COUNT = 150  # 300 vertices, about 4.3k edges
HOMOTOPY_SAMPLE_COUNT = 150
HOMOTOPY_QUERIES = 4
SC_SAMPLE_COUNT = 15
# The simple-connectivity check's time follows the size of the boundary
# matrix d2 (edges x triangles of the complex): about 1 s at 90k cells and
# 4.5 s at 240k, and within 150k-185k it still varies by a third.  Its input
# is drawn until d2 has 160k-172k cells (about 8 draws), so every job of
# the workload does comparable work.
SC_CELLS = range(160_000, 172_001)
EDGE_PROBES = 4000


class CheckFailed(Exception):
    """An item's output failed an independent check."""


@dataclass
class Item:
    """One unit of user-visible work: `run` is timed, `check` is not.

    `check` raises on a wrong output and returns the deterministic record
    that goes into the job digest.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], object]


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _stream(workload: str, seed: int, job: int) -> random.Random:
    # str seeding hashes with SHA-512, so it ignores PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{job}")


def _sub_seed(rnd: random.Random) -> int:
    return rnd.getrandbits(32)


def _connected(g) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _odd_cycle(g) -> bool:
    side = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in side:
                side[w] = 1 - side[u]
                stack.append(w)
            elif side[w] == side[u]:
                return True
    return False


def _two_skeleton(adj):
    """Edges and triangles of the neighborhood complex: the vertex pairs and
    triples with a common neighbor."""
    edges, triangles = set(), set()
    for nbrs in adj:
        fs = sorted(nbrs)
        for x in range(len(fs)):
            for y in range(x + 1, len(fs)):
                edges.add((fs[x], fs[y]))
                for z in range(y + 1, len(fs)):
                    triangles.add((fs[x], fs[y], fs[z]))
    return sorted(edges), sorted(triangles)


def _sample(rnd, count, eps, accept=_connected):
    """A sample whose graph passes `accept`, redrawing sub-seeds until one
    does; the properties are checked with the benchmark's own code."""
    while True:
        sample = borsuk.sample_approximation(2, eps, count, _sub_seed(rnd))
        if accept(sample.graph):
            return sample


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sample-girth


def _check_sample(out, rnd_seed: int):
    g, ratio, free, mu = out
    adj = g.graph.adj
    n = g.graph.n
    _require(free is True, "odd_girth_at_least(., 7) is not True")
    _require(abs(mu - (1.0 - math.cos(EPS5)) / 2.0) < 1e-9, f"cap measure {mu} is wrong")
    _require(ratio == min(len(a) for a in adj) / n, "min_degree_ratio disagrees")
    _require(sum(len(a) for a in adj) == 2 * g.graph.num_edges(), "edge count disagrees")
    # edges against the geometry: i ~ j iff <p_i, p_j> < -cos(eps), i != j^1
    rnd = random.Random(rnd_seed)
    points = g.sample.points
    threshold = -math.cos(EPS5)
    for _ in range(EDGE_PROBES):
        i = rnd.randrange(n)
        j = rnd.choice(sorted(adj[i])) if rnd.random() < 0.5 and adj[i] else rnd.randrange(n)
        if i == j or i ^ 1 == j:
            continue
        dot = float(np.dot(points[i], points[j]))
        if abs(dot - threshold) < 1e-9:
            continue
        _require((j in adj[i]) == (dot < threshold), f"edge ({i}, {j}) disagrees with the points")
    return {"edges": g.graph.num_edges(), "odd_girth_at_least_7": free}


def _check_fold(out, source):
    trace = out
    final = trace.final_graph
    mapping = trace.mapping
    _require(len(mapping) == source.n, "fold mapping does not cover the source")
    _require(final.n == source.n - len(trace.steps), "fold vertex count disagrees with its steps")
    _require(set(mapping) == set(range(final.n)), "fold mapping is not onto the quotient")
    for u, v in source.edges:
        _require(mapping[v] in final.adj[mapping[u]], f"edge ({u}, {v}) is not mapped to an edge")
    _require(graph.has_cycle_of_length(final, 5).status == graph.NO, "fold quotient has a 5-cycle")
    return {"merges": [[s.kept, s.merged] for s in trace.steps], "edges": final.num_edges()}


def sample_girth_items(seed: int, job: int) -> list[Item]:
    rnd = _stream("sample-girth", seed, job)
    girth_seed = _sub_seed(rnd)
    probe_seed = _sub_seed(rnd)
    fold_input = _sample(rnd, FOLD_SAMPLE_COUNT, EPS5).graph
    fold_seed = _sub_seed(rnd)

    def run_sample():
        g = borsuk.sample_approximation(2, EPS5, GIRTH_SAMPLE_COUNT, girth_seed)
        ratio = borsuk.min_degree_ratio(g.graph)
        free = borsuk.odd_girth_at_least(g, 7)
        mu = borsuk.cap_measure(2, EPS5)
        return g, ratio, free, mu

    def run_fold():
        return homsearch.fold_search(fold_input, {5}, beam=2, budget=2 * 10**6, seed=fold_seed)

    return [
        Item(f"{job}.sample", run_sample, lambda out: _check_sample(out, probe_seed)),
        Item(f"{job}.fold", run_fold, lambda out: _check_fold(out, fold_input)),
    ]


# ---------------------------------------------------------------------------
# color-pipeline


def _check_pipeline(out):
    phi, walk, col, trace = out
    g = phi.source
    vs = walk.vertices
    _require(vs[0] == vs[-1] and len(vs) % 2 == 0 and len(set(vs[:-1])) == len(vs) - 1,
             "shortest_odd_cycle did not return an odd cycle")
    a = col.assignment
    _require(sorted(a) == list(range(g.n)), "coloring is not total")
    _require(all(0 <= c < col.palette_size for c in a.values()), "color outside the palette")
    _require(all(a[u] != a[v] for u, v in g.edges), "coloring is not proper")
    _require(col.palette_size < 32, f"palette {col.palette_size} is not below 32")
    trace.validate(phi, walk, 2)
    return {"cycle": list(vs), "trace": _digest(trace.describe())}


def color_pipeline_items(seed: int, job: int) -> list[Item]:
    rnd = _stream("color-pipeline", seed, job)
    sample = _sample(rnd, PIPELINE_SAMPLE_COUNT, EPS5, lambda g: _connected(g) and _odd_cycle(g))

    def run():
        phi = borsuk.tetrahedral_hom(sample)
        cycle = graph.shortest_odd_cycle(sample.graph)
        walk = homotopy.Walk(sample.graph, cycle)
        col, trace = coloring.bounded_coloring_pipeline(phi, walk, 2, sc_certificate=True)
        return phi, walk, col, trace

    return [Item(f"{job}.pipeline", run, _check_pipeline)]


# ---------------------------------------------------------------------------
# homotopy


def _legal(vs, adj, length_cap):
    """All moves applicable to the vertex tuple, as (kind, index, vertex)."""
    k = len(vs) - 1
    out = []
    for i in range(1, k):
        if vs[i - 1] == vs[i + 1]:
            out.append(("del", i, None))
        for v in sorted(adj[vs[i - 1]] & adj[vs[i + 1]]):
            if v != vs[i]:
                out.append(("sub", i, v))
    if k + 2 <= length_cap:
        for i in range(k + 1):
            for w in sorted(adj[vs[i]]):
                out.append(("ins", i, w))
    return out


def _apply(vs, adj, kind, i, v):
    """Apply one move with its applicability condition checked."""
    k = len(vs) - 1
    if kind == "sub":
        _require(0 < i < k and v in adj[vs[i - 1]] and v in adj[vs[i + 1]], f"bad sub {i} {v}")
        return vs[:i] + (v,) + vs[i + 1:]
    if kind == "ins":
        _require(0 <= i <= k and v in adj[vs[i]], f"bad ins {i} {v}")
        return vs[: i + 1] + (v, vs[i]) + vs[i + 1:]
    _require(kind == "del" and 0 < i < k and vs[i - 1] == vs[i + 1], f"bad {kind} {i}")
    return vs[:i] + vs[i + 2:]


def _walk_pair(rnd, adj, moves: int):
    """p: a random walk of length 2-8; q: p after `moves` random moves."""
    vs = [rnd.randrange(len(adj))]
    for _ in range(rnd.randint(2, 8)):
        vs.append(rnd.choice(sorted(adj[vs[-1]])))
    p = tuple(vs)
    q = p
    for _ in range(moves):
        q = _apply(q, adj, *rnd.choice(_legal(q, adj, len(p) - 1 + 4)))
    return p, q


def _check_query(out, g, p, q):
    verdict = out
    _require(verdict.status == homotopy.HOMOTOPIC, f"verdict {verdict.status}, expected HOMOTOPIC")
    vs = p.vertices
    for move in verdict.moves:
        vs = _apply(vs, g.adj, move.kind, move.index, move.vertex)
    _require(vs == q.vertices, "witness does not replay to q")
    return {"status": verdict.status, "moves": [m.format() for m in verdict.moves]}


def _h1_free_rank(adj) -> int:
    """Rank of H1 of the neighborhood complex over Q, from its 2-skeleton."""
    edges, triangles = _two_skeleton(adj)
    vertices = {v for e in edges for v in e}
    eidx = {e: i for i, e in enumerate(edges)}
    d2 = np.zeros((len(edges), len(triangles)))
    for j, (a, b, c) in enumerate(triangles):
        d2[eidx[(b, c)], j] = 1
        d2[eidx[(a, c)], j] = -1
        d2[eidx[(a, b)], j] = 1
    rank_d2 = int(np.linalg.matrix_rank(d2)) if triangles else 0
    # the complex is connected here, so rank d1 = |V| - 1
    return len(edges) - (len(vertices) - 1) - rank_d2


def _sc_input(g) -> bool:
    """Connected, non-bipartite, and a boundary matrix d2 of comparable size."""
    if not (_connected(g) and _odd_cycle(g)):
        return False
    edges, triangles = _two_skeleton(g.adj)
    return len(edges) * len(triangles) in SC_CELLS


def _check_sc(out, g):
    verdict = out
    expected = _h1_free_rank(g.adj)
    if verdict.status == homotopy.NOT_SIMPLY_CONNECTED:
        h1 = verdict.detail
        _require(h1.free_rank == expected, f"H1 free rank {h1.free_rank}, expected {expected}")
        detail = h1.describe()
    else:
        _require(expected == 0, f"{verdict.status} but H1 has free rank {expected}")
        detail = str(verdict.detail)
    return {"status": verdict.status, "detail": detail}


def homotopy_items(seed: int, job: int) -> list[Item]:
    rnd = _stream("homotopy", seed, job)
    g = _sample(rnd, HOMOTOPY_SAMPLE_COUNT, EPS5).graph
    items = []
    for k in range(HOMOTOPY_QUERIES):
        # a fixed mix of 1-4 moves per job keeps job sizes comparable
        pv, qv = _walk_pair(rnd, g.adj, 1 + k % 4)
        p, q = homotopy.Walk(g, pv), homotopy.Walk(g, qv)

        def run(p=p, q=q):
            return homotopy.are_homotopic(g, p, q, length_cap=p.length + 6, state_cap=4 * 10**5)

        items.append(Item(f"{job}.query{k}", run, lambda out, p=p, q=q: _check_query(out, g, p, q)))
    sc_graph = _sample(rnd, SC_SAMPLE_COUNT, EPS3, _sc_input).graph
    items.append(Item(f"{job}.sc", lambda: homotopy.check_simply_connected(sc_graph),
                      lambda out: _check_sc(out, sc_graph)))
    return items


WORKLOADS = {
    "sample-girth": sample_girth_items,
    "color-pipeline": color_pipeline_items,
    "homotopy": homotopy_items,
}

# Executions of each job per run.  Other tenants of a shared machine slow it
# down for tens of seconds at a time, and the best of a few executions is
# much steadier than one.  homotopy's jobs differ most in cost (far walk
# pairs, complex sizes), so it spends its time on more distinct jobs.
REPEATS = {"sample-girth": 3, "color-pipeline": 3, "homotopy": 1}


# ---------------------------------------------------------------------------
# running one job


def run_job(items: list[Item], recorder=None) -> dict:
    """Run the items back to back, then check them; one closed-loop caller.

    Every exception an item raises, RecursionError included, marks that
    item failed without stopping the job.  With a recorder, spans are taken
    during the timed items only, never during the checks.
    """
    timed = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        for item in items:
            if recorder is not None:
                recorder.item = item.id
            t0 = time.perf_counter()
            try:
                out, error = item.run(), None
            except Exception as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            timed.append((item, out, error, time.perf_counter() - t0))
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.item = None
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, failures, latencies = [], [], []
    for item, out, error, seconds in timed:
        if error is None:
            try:
                record = item.check(out)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"item": item.id, "error": error})
            record = {"error": error}
        records.append({"item": item.id, "output": record})
        latencies.append({"item": item.id, "seconds": seconds})
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "items": latencies,
        "failures": failures,
        "digest": _digest(records),
    }

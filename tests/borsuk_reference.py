"""Reference versions of the odd-girth kernel and the sample-graph build
that `oddwalk` replaced.

`_odd_walk_free` checks the trace of every odd power A, A^3, A^5, ... up
to `max_odd`, one general matrix product per step: the version the
library used before it checked the single longest odd length through one
symmetric even power.  `dense_odd_walk_free` is that single-length check
on bit rows packed from a dense 0/1 matrix, before the kernel read the
graph's compressed sparse rows.  Its `_or_of_rows`, one OR per row, is
the library's neighbour-OR before `graph.or_rows` took every row one
neighbour per step; test_borsuk.py checks `or_rows` against it.
`pack_rows` packs every word's bits by `reduceat` whatever the block's
density, and `mirrored` compares sorted dart keys: the kernel's versions
before dense blocks went through `np.packbits` and the mirror was read
off the packed rows.  `row_built_sample_graph` is the sample graph as it
was built before the Gram blocks went straight to CSR arrays: one Python
tuple of neighbours per vertex, from `_gram_blocks`, which allocates each
coordinate's product anew.  `block_built_sample_graph` is the build
that followed it, 256 Gram rows at a time with a stacked mask of both
columns of every pair, before the rows were tiled by bytes and one mask
of |G| served thresholds up to pi/2.  `unit_vector` is the per-point
draw, d calls to `Stream.gaussian` at a time, before the points came from
the stream in bulk, and `covering_radius_estimate` draws its probes with
it.  test_borsuk.py requires the library to give the same
verdicts, bit rows, equal graphs and equal points.
"""

import math

import numpy as np

from oddwalk.graph import Graph, csr_rows
from oddwalk.rng import Stream

GRAM_BLOCK = 256  # Gram rows held at once by _gram_blocks and block_built_sample_graph


def _odd_walk_free(adjacency: np.ndarray, max_odd: int) -> bool:
    """True iff there is no closed odd walk of length <= max_odd.

    Uses binarized float32 matrix powers (entries stay 0/1 exactly), so the
    check is exact while running at matrix-multiplication speed.
    """
    a = adjacency.astype(np.float32)
    a2 = (np.matmul(a, a) > 0.5).astype(np.float32)
    k = 1
    current = a
    while k <= max_odd:
        if np.trace(current) > 0.5:
            return False
        if k + 2 > max_odd:
            break
        nxt = np.matmul(current, a2)
        nxt = (nxt > 0.5).astype(np.float32)
        current = nxt
        k += 2
    return True


def dense_odd_walk_free(adjacency: np.ndarray, length: int) -> bool:
    """True iff the symmetric 0/1 `adjacency` has no closed walk of odd
    length at most `length` (odd, positive); diagonal entries are loops.
    Only `length` itself is checked, on bit rows packed with np.packbits:
    S_1 is the adjacency, each of the k - 1 rounds ORs the rows of u's
    neighbours, and the edge test ANDs S_k[u] with S_k over the neighbours
    w >= u, for k = (length - 1) // 2."""
    if length == 1:
        return not adjacency.diagonal().any()
    n = len(adjacency)
    neighbours = [np.flatnonzero(row) for row in adjacency]
    words = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)  # whole 64-bit words
    words[:, : -(-n // 8)] = np.packbits(adjacency, axis=1)
    words = words.view(np.uint64)
    for _ in range(length // 2 - 1):
        words = _or_of_rows(words, neighbours)
    above = [nbrs[np.searchsorted(nbrs, u) :] for u, nbrs in enumerate(neighbours)]
    return not np.bitwise_and(words, _or_of_rows(words, above)).any()


def _or_of_rows(words: np.ndarray, index_rows: list) -> np.ndarray:
    out = np.empty_like(words)
    for u, idx in enumerate(index_rows):
        np.bitwise_or.reduce(words[idx], axis=0, out=out[u])
    return out


def pack_rows(indptr: np.ndarray, indices: np.ndarray, lo: int = 0, hi=None) -> np.ndarray:
    """Rows lo..hi-1 (all rows by default) of CSR arrays with ascending
    rows, as bit rows: entry w of row v sets bit w % 64 of word w // 64 of
    row v - lo.  Every row gets the words that the largest entry among
    them needs."""
    hi = len(indptr) - 1 if hi is None else hi
    cols = indices[indptr[lo] : indptr[hi]]
    width = int(cols.max()) // 64 + 1 if len(cols) else 1
    keys = np.repeat(np.arange(hi - lo) * width, np.diff(indptr[lo : hi + 1]))
    keys += cols >> 6
    words = np.zeros((hi - lo) * width, dtype=np.uint64)
    if len(keys):
        # ascending rows keep each word's entries together
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        bits = (cols & 63).astype(np.uint64)
        np.left_shift(np.uint64(1), bits, out=bits)
        words[keys[starts]] = np.bitwise_or.reduceat(bits, starts)
    return words.reshape(hi - lo, width)


def mirrored(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True iff u -> u ^ 1 is an automorphism of the graph with ascending
    CSR rows (indptr, indices): the vertex count is even and the darts
    (u ^ 1, w ^ 1), sorted, are the darts (u, w)."""
    n = len(indptr) - 1
    degree = np.diff(indptr)
    if n % 2 or not np.array_equal(degree[0::2], degree[1::2]):
        return False
    tails = csr_rows(indptr)
    mirror = np.sort((tails ^ 1) * n + (indices ^ 1), kind="stable")
    return np.array_equal(mirror, tails * n + indices)


def _gram_blocks(points: np.ndarray):
    """Yield (start, gram rows) with a reduction order independent of BLAS:
    the gram is accumulated coordinate by coordinate.  GRAM_BLOCK only sets
    how many rows are held at once, never an entry's value."""
    m, d = points.shape
    for start in range(0, m, GRAM_BLOCK):
        rows = points[start : start + GRAM_BLOCK]
        gram = np.zeros((len(rows), m))
        for k in range(d):
            gram += np.multiply.outer(rows[:, k], points[:, k])
        yield start, gram


def row_built_sample_graph(sample, epsilon: float) -> Graph:
    """The graph of `ApproxGraph.from_sample`, from one tuple of neighbours
    per vertex, through the validating constructor."""
    threshold = -math.cos(epsilon)
    rows = []
    for start, gram in _gram_blocks(sample.points):
        near = gram < threshold
        local = np.arange(len(near))
        near[local, (local + start) ^ 1] = False
        rows.extend(tuple(np.flatnonzero(row).tolist()) for row in near)
    return Graph(sample.size(), [(u, v) for u, row in enumerate(rows) for v in row if u < v])


def block_built_sample_graph(sample, epsilon: float) -> Graph:
    """The graph of `ApproxGraph.from_sample` from GRAM_BLOCK Gram rows of
    the draws at a time.  Row 2s holds 2t when G[s, t] < threshold and
    2t + 1 when -G[s, t] < threshold, both marked in one stacked mask, and
    row 2s + 1 is row 2s with every column xor 1, except that a pair 2t,
    2t + 1 held by both rows keeps its order."""
    threshold = -math.cos(epsilon)
    draws = np.ascontiguousarray(sample.points[0::2])
    count, d = draws.shape
    grams, terms = np.empty((2, min(GRAM_BLOCK, count), count))
    degrees, heads = [], []
    for start in range(0, count, GRAM_BLOCK):
        chunk = draws[start : start + GRAM_BLOCK]
        gram, term = grams[: len(chunk)], terms[: len(chunk)]
        np.multiply.outer(chunk[:, 0], draws[:, 0], out=gram)
        for k in range(1, d):
            gram += np.multiply.outer(chunk[:, k], draws[:, k], out=term)
        local = np.arange(len(chunk))
        near = np.stack([gram < threshold, gram > -threshold], axis=2)
        near[local, local + start] = False
        rows, cols = np.divmod(np.flatnonzero(near), 2 * count)
        degree = np.bincount(rows, minlength=len(gram))
        mirror = cols ^ 1
        if threshold > 0:  # a pair held by both rows keeps its order
            mirror[near.reshape(len(gram), -1)[rows, mirror]] ^= 1
        # row s's entries go to rows 2s and 2s + 1 of the block
        at = np.arange(len(cols)) + (np.cumsum(degree) - degree)[rows]
        block = np.empty(2 * len(cols), dtype=np.int64)
        block[at] = cols
        block[at + degree[rows]] = mirror
        degrees.append(np.repeat(degree, 2))
        heads.append(block)
    indptr = np.zeros(2 * count + 1, dtype=np.int64)
    np.cumsum(np.concatenate(degrees), out=indptr[1:])
    return Graph.from_sorted_unique(2 * count, indptr, np.concatenate(heads))


def unit_vector(d: int, stream) -> list:
    """A uniform point of the unit sphere in R^d: d normalised Gaussians,
    drawn again while their norm is (nearly) zero."""
    while True:
        coords = [stream.gaussian() for _ in range(d)]
        norm = math.sqrt(sum(c * c for c in coords))
        if norm > 1e-9:
            return [c / norm for c in coords]


def covering_radius_estimate(sample, probes: int, seed: int) -> float:
    """`borsuk.covering_radius_estimate` with every probe point drawn by
    `unit_vector`, 256 probes to a block."""
    stream = Stream(seed)
    n = sample.dimension
    worst = 0.0
    done = 0
    while done < probes:
        take = min(256, probes - done)
        probe_pts = np.empty((take, n + 1))
        for t in range(take):
            probe_pts[t] = unit_vector(n + 1, stream)
        dots = probe_pts @ sample.points.T
        best = np.clip(dots.max(axis=1), -1.0, 1.0)
        worst = max(worst, float(np.arccos(best).max()))
        done += take
    return worst

"""Undirected simple graphs on dense integer vertex ids, plus the parity,
girth, degeneracy and greedy coloring utilities the rest of the library is
built on.

Vertices are 0..n-1.  A graph is stored once, as compressed sparse rows:
two int64 arrays, `indptr` and `indices`, list every vertex's neighbours in
ascending order.  The Python views that the traversals walk (`adj`,
`sorted_adj`, `edges`, `bit_rows`) are built from those arrays on first
use, so array kernels such as `odd_walk_free` never pay for them.  Edges
are always handled in canonical form (min, max); `canon_edge` is the
single place that normalization happens.  All graphs are immutable after construction and
safe to share.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, ParseError
from .traverse import (
    NO,
    UNKNOWN,
    YES,
    bfs,
    depths,
    path_to_root,
    simple_path_dfs,
)

INFINITE = math.inf
# largest vertex count parse_graph accepts, checked before anything is allocated
MAX_VERTICES = 10**6
# largest vertex count for which has_cycle_of_length runs the exact odd-walk
# check first; its bit rows take n * n / 8 bytes per copy
ODD_WALK_CHECK_MAX_VERTICES = 2**14
# rows that Graph.bit_rows packs at once, on the first read of any of them,
# and roots that shortest_odd_cycle searches at once, one or_rows bit column each
ROW_BLOCK = 1024
# pack_rows packs a block through a boolean matrix of its cells when it has
# at most PACK_CELLS_PER_DART cells per dart, PACK_BUFFER_CELLS cells (1 MiB,
# or one row if that is more) at a time
PACK_CELLS_PER_DART = 64
PACK_BUFFER_CELLS = 2**20
# or_rows splits its rows across the available cores once rows x steps x
# words reaches this many words; below it, thread starts cost more than
# they save
OR_SPLIT_WORDS = 2**20


def canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR `indices` array."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def pack_rows(
    indptr: np.ndarray, indices: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> np.ndarray:
    """Rows lo..hi-1 (all rows by default) of CSR arrays with ascending
    rows, as bit rows: entry w of row v sets bit w % 64 of word w // 64 of
    row v - lo.  Every row gets the words that the largest entry among
    them needs.

    The block's cells (rows times the words' 64 bits) per dart pick how
    the bits are set.  Up to PACK_CELLS_PER_DART, the darts mark a boolean
    matrix of the cells, PACK_BUFFER_CELLS at a time so that it stays in
    cache, and `np.packbits` packs it: about 0.08-0.12 ns a cell plus a few
    ns a dart.  Above it, each word ORs its darts' bits by `reduceat`:
    about 13-25 ns a dart.  On random blocks of 1,024-16,000 rows (numpy
    2.4, one x86-64 core) the two break even at 150-250 cells per dart; a
    4,000-vertex pi/5 sphere sample has 10.5 (packbits 5-7 ms, reduceat
    20-22 ms), a 16,383-cycle 8,192 (packbits 26 ms, reduceat 6 ms).  The
    matrix held is at most 64 bytes a dart, eight times the block's
    `indices` slice."""
    hi = len(indptr) - 1 if hi is None else hi
    cols = indices[indptr[lo] : indptr[hi]]
    width = int(cols.max()) // 64 + 1 if len(cols) else 1
    if (hi - lo) * width * 64 <= PACK_CELLS_PER_DART * len(cols):
        words = np.empty((hi - lo, width), dtype=np.uint64)
        step = max(1, min(hi - lo, PACK_BUFFER_CELLS // (64 * width)))
        cells = np.empty(step * width * 64, dtype=bool)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            marks = np.repeat(np.arange(b - a) * (64 * width), np.diff(indptr[a : b + 1]))
            marks += indices[indptr[a] : indptr[b]]
            cells.fill(False)
            cells[marks] = True
            packed = np.packbits(cells[: (b - a) * width * 64], bitorder="little")
            words[a - lo : b - lo] = packed.view("<u8").reshape(b - a, width)
        return words
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


def degree_steps(starts, ends, indices: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rows indices[starts[i]:ends[i]] by descending length (stable),
    `order`, and for each step k the k-th entry of every row longer than k
    in that order: the rows still stepping are a prefix of `order`."""
    lengths = ends - starts
    order = np.argsort(-lengths, kind="stable")
    longer = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    first = starts[order]
    return order, [indices[first[:c] + k] for k, c in enumerate(longer.tolist())]


def or_rows(words: np.ndarray, steps: list[np.ndarray], count: int) -> np.ndarray:
    """Row p of `count` rows is the OR of the rows of `words` listed in the
    p-th row of a `degree_steps` order (zero for an empty row), by steps.

    When rows x steps x words, a bound on the work, reaches OR_SPLIT_WORDS,
    the rows are cut into position ranges carrying equal numbers of darts,
    one a core (`_cores`).  The calling thread ORs the first range and a
    `threading.Thread` each of the others; numpy releases the interpreter
    lock in the gathers and ORs, so the ranges run at once.  Each range
    runs the serial loop on its own rows of the output, so every row is
    the OR of the same rows whatever the split.  A worker's exception is
    raised here once every worker has ended."""
    out = np.zeros((count, words.shape[1]), dtype=words.dtype)
    cores = _cores() if count * len(steps) * words.shape[1] >= OR_SPLIT_WORDS else 1
    if cores < 2:
        _or_range(words, steps, out, 0, count)
        return out
    # row p has as many darts as the steps longer than p
    lengths = np.array([len(x) for x in steps])
    darts = np.searchsorted(-lengths, -np.arange(count))
    cuts = np.searchsorted(np.cumsum(darts), darts.sum() * np.arange(1, cores) / cores)
    bounds = [0, *cuts.tolist(), count]
    errors = []

    def run(a, b):
        try:
            _or_range(words, steps, out, a, b)
        except BaseException as exc:  # raised in the calling thread below
            errors.append(exc)

    workers = [threading.Thread(target=run, args=ab) for ab in zip(bounds[1:-1], bounds[2:])]
    for worker in workers:
        worker.start()
    try:
        _or_range(words, steps, out, 0, bounds[1])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return out


def _or_range(words: np.ndarray, steps: list[np.ndarray], out: np.ndarray, a: int, b: int) -> None:
    """`or_rows` for the rows at positions a..b-1, into those rows of `out`."""
    for x in steps:
        if len(x) <= a:
            break
        out[a : min(len(x), b)] |= words.take(x[a:b], axis=0)


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def int_rows(words: np.ndarray) -> list[int]:
    """Each row of `pack_rows` words as one int, bit w from word w // 64."""
    raw, size = words.astype("<u8", copy=False).tobytes(), 8 * words.shape[1]
    return [int.from_bytes(raw[at : at + size], "little") for at in range(0, len(raw), size)]


class BitRows(dict):
    """Vertex v -> the int whose bit w is set for each neighbour w of v.

    Rows are packed by `pack_rows` in blocks of ROW_BLOCK vertices, a block
    on the first read of any of its rows, so a search that reaches few
    vertices of a large graph packs few rows.  The same pass fills
    `degree_sums`: v -> the sum of the degrees of v's neighbours."""

    __slots__ = ("indptr", "indices", "degree_sums")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        super().__init__()
        self.indptr, self.indices = indptr, indices
        self.degree_sums: dict[int, int] = {}

    def __missing__(self, v: int) -> int:
        indptr = self.indptr
        lo = v - v % ROW_BLOCK
        hi = min(lo + ROW_BLOCK, len(indptr) - 1)
        self.update(zip(range(lo, hi), int_rows(pack_rows(indptr, self.indices, lo, hi))))
        cols = self.indices[indptr[lo] : indptr[hi]]
        tails = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        sums = np.bincount(tails, weights=indptr[cols + 1] - indptr[cols], minlength=hi - lo)
        self.degree_sums.update(zip(range(lo, hi), sums.astype(np.int64).tolist()))
        return self[v]


def csr_from_darts(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the directed pairs (tails[i],
    heads[i]) on n vertices: repeated pairs are dropped and every row is
    ascending."""
    keys = np.sort(tails * n + heads)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rows, indices = np.divmod(keys[first], max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


class Graph:
    """Immutable undirected simple graph, stored as compressed sparse rows.

    Row v, `indices[indptr[v]:indptr[v + 1]]`, holds v's neighbours in
    ascending order.  No self-loops, no parallel edges, adjacency is
    symmetric, so the arrays are canonical: two graphs are equal exactly
    when their vertex counts and arrays are.

    Four views are built from the arrays on first use and kept: `sorted_adj`
    (ascending tuples), `adj` (frozensets of the same rows), `edges` (the
    sorted tuple of canonical edges) and `bit_rows` (the rows as ints, see
    `BitRows`, itself filled block by block).  Until then their slots are
    unset, and reading one falls through to `__getattr__`, which fills it;
    after that a read is a plain slot access.
    """

    __slots__ = (
        "n", "indptr", "indices", "sorted_adj", "adj", "edges", "bit_rows", "_hash",
        "_c4_partition",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """The graph on vertices 0..n-1 with the given vertex pairs as
        edges, repeats dropped; `edges` is any iterable of pairs or an
        (m, 2) integer array.  The first self-loop or out-of-range pair
        raises InputError."""
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        if isinstance(edges, np.ndarray):
            us, vs = edges.astype(np.int64, copy=False).reshape(len(edges), 2).T
        else:
            # columns of the pairs, a ValueError unless every edge is a pair
            us, vs = tuple(zip(*edges, strict=True)) or ((), ())
            try:
                us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
            except OverflowError:
                raise InputError(f"an edge has an end out of range for n={n}") from None
        bad = np.flatnonzero((us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= n))
        if len(bad):
            u, v = int(us[bad[0]]), int(vs[bad[0]])
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        self._set_arrays(n, *csr_from_darts(n, np.concatenate([us, vs]), np.concatenate([vs, us])))

    @classmethod
    def from_sorted_unique(cls, n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Bulk constructor from CSR arrays whose rows are already ascending,
        duplicate-free, symmetric, loop-free and range-checked (sample
        builders, vertex merges); skips all validation."""
        g = cls.__new__(cls)
        g._set_arrays(n, np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64))
        return g

    def _set_arrays(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = n
        self.indptr, self.indices = indptr, indices
        indptr.flags.writeable = indices.flags.writeable = False
        self._hash = None
        self._c4_partition = None  # closure.c4_partition's result, built on first use

    def __getattr__(self, name: str):
        # reached only for a slot that is still unset: build the view once
        if name == "sorted_adj":
            flat, bounds = self.indices.tolist(), self.indptr.tolist()
            view = tuple([tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])])
        elif name == "adj":
            view = tuple(map(frozenset, self.sorted_adj))
        elif name == "edges":
            us, ws = self.edge_ends()
            view = tuple(zip(us.tolist(), ws.tolist()))
        elif name == "bit_rows":
            view = BitRows(self.indptr, self.indices)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, view)
        return view

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges as two arrays (smaller ends, larger ends), in
        the order of `edges`."""
        tails = csr_rows(self.indptr)
        upper = self.indices > tails
        return tails[upper], self.indices[upper]

    def edge_ids(self, a, b) -> np.ndarray:
        """Index into `edges` of each vertex pair (a[i], b[i]), in either
        order, or -1 where the pair is not an edge (a self pair included).
        a and b are arrays of vertex ids of this graph, broadcast together."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        us, ws = self.edge_ends()
        # the keys ascend with the edge ids; the last, n * n, exceeds every pair's key
        keys = np.append(us * self.n + ws, self.n * self.n)
        want = np.minimum(a, b) * self.n
        want += np.maximum(a, b)
        at = np.searchsorted(keys, want)
        at[keys[at] != want] = -1
        return at

    def sorted_neighbors(self, v: int) -> tuple[int, ...]:
        return self.sorted_adj[v]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adj[u]

    def num_edges(self) -> int:
        return len(self.indices) // 2

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"

    def subgraph_on_edges(self, edge_set: Iterable[tuple[int, int]]) -> "Graph":
        """Spanning subgraph keeping only the given edges (same vertex ids)."""
        return Graph(self.n, edge_set)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Optional first data line "n <count>" declares the vertex count (allowing
    isolated vertices); otherwise it is 1 + the largest id seen.  One edge
    per line as "u v".  Lines starting with "#" and blank lines are ignored.
    Duplicate edges collapse; self-loops are rejected.  Graphs with more
    than MAX_VERTICES vertices are refused with an InputError.
    """
    declared_n: Optional[int] = None
    ends = array("q")  # u, v of every edge line, in line order
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_data and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            if declared_n > MAX_VERTICES:
                raise InputError(
                    f"line {lineno}: vertex count {declared_n} exceeds the limit {MAX_VERTICES}"
                )
            saw_data = True
            continue
        saw_data = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if u >= MAX_VERTICES or v >= MAX_VERTICES:
            raise InputError(
                f"line {lineno}: vertex id {max(u, v)} exceeds the limit {MAX_VERTICES - 1}"
            )
        ends.append(u)
        ends.append(v)
    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    max_id = int(pairs.max(initial=-1))
    n = max_id + 1 if declared_n is None else declared_n
    if declared_n is not None and max_id >= declared_n:
        raise ParseError(f"vertex id {max_id} exceeds declared count {declared_n}")
    return Graph(n, pairs)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; emits the header and lexicographically sorted edges."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


@dataclass
class Coloring:
    """Partial or total vertex coloring with an explicit palette size."""

    assignment: dict[int, int]
    palette_size: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not (0 <= c < self.palette_size):
                raise InputError(f"color {c} of vertex {v} outside palette [0, {self.palette_size})")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def is_proper(self, g: Graph) -> bool:
        a = self.assignment
        if any(v not in a for v in range(g.n)):
            return False
        for u, v in g.edges:
            if u in a and v in a and a[u] == a[v]:
                return False
        return True


# ---------------------------------------------------------------------------
# parity / girth


def is_bipartite(g: Graph) -> tuple[bool, object]:
    """Two-color the graph if possible.

    Returns (True, side map) with a proper 2-coloring, or (False, walk) where
    the walk is a closed odd walk witnessing non-bipartiteness.
    """
    side: dict[int, int] = {}
    for root in range(g.n):
        if root in side:
            continue
        parent = bfs([root], g.sorted_neighbors)
        depth = depths(parent)
        # an edge inside one BFS layer closes an odd walk; the first such
        # edge in discovery order is the first conflict a 2-colouring BFS meets
        for u in parent:
            for w in g.sorted_adj[u]:
                if depth[w] == depth[u]:
                    return (False, _odd_closed_walk(parent, u, w))
        side.update((v, d % 2) for v, d in depth.items())
    return (True, side)


def _odd_closed_walk(parent, u, w):
    """Closed odd walk u..lca..w..u through the conflict edge (u, w)."""
    up, wp = path_to_root(parent, u), path_to_root(parent, w)
    # drop the shared part strictly above the lowest common ancestor
    while len(up) >= 2 and len(wp) >= 2 and up[-2] == wp[-2]:
        up.pop()
        wp.pop()
    # u -> lca (up as-is), lca -> w (wp reversed, lca dropped), then edge w-u
    walk = up + wp[-2::-1] + [u]
    assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 1
    return walk


def double_cover_odd_walk(g: Graph, v: int) -> Optional[list[int]]:
    """Shortest odd closed walk through v, via BFS in the bipartite double cover.

    Returns the walk as a vertex list (v ... v) or None if no odd closed walk
    passes through v.
    """
    # state 2u + p is vertex u reached by a walk of parity p
    nbrs = g.sorted_adj

    def successors(state: int) -> list[int]:
        flip = 1 - (state & 1)
        return [2 * w + flip for w in nbrs[state >> 1]]

    target = 2 * v + 1
    parent = bfs([2 * v], successors, goal=target)
    if target not in parent:
        return None
    return [state >> 1 for state in reversed(path_to_root(parent, target))]


def odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; INFINITE when bipartite."""
    cycle = shortest_odd_cycle(g)
    return INFINITE if cycle is None else len(cycle) - 1


def shortest_odd_cycle(g: Graph) -> Optional[list[int]]:
    """A shortest odd cycle as a closed vertex list, or None if bipartite.

    From a root v, let k be the first BFS layer that contains an edge a-b.
    The walk v -> a, a-b, b -> v is an odd closed walk of length 2k + 1.
    No odd closed walk through v is shorter: an odd closed walk must use an
    edge inside one layer, at some depth j >= k, and getting there and back
    takes 2j steps.  So the search from v stops once 2k + 1 reaches the
    best length found so far (Itai & Rodeh, SIAM J. Comput. 1978).

    The roots are searched in ascending blocks of ROW_BLOCK, a block's BFSes
    in one pass: bit j of row u of `layer` is set iff u is at distance k
    from root lo + j, and each round ORs the layer rows of u's neighbours
    into reached[u] by `or_rows`, rows held in its step order (u's at
    rank[u]).  Bit j of the OR over u of layer[u] & reached[u] is set iff
    layer k of root lo + j holds an edge.  A block stops there, when its
    layers are all empty, or once 2k + 1 reaches the best length; its
    lowest set bit is its smallest shortest root, and only a strictly
    shorter block replaces the best, so the smallest root among the
    shortest wins.  Its walk is the double-cover BFS walk of
    `double_cover_odd_walk`.  Shortest odd closed walks never repeat
    vertices, so that walk is a cycle.
    """
    best_length: float = INFINITE
    best_root: Optional[int] = None
    order, steps = degree_steps(g.indptr[:-1], g.indptr[1:], g.indices)
    rank = np.argsort(order)
    steps = [rank[heads] for heads in steps]
    for lo in range(0, g.n, ROW_BLOCK):
        roots = np.arange(min(ROW_BLOCK, g.n - lo))
        layer = np.zeros((g.n, (len(roots) + 63) // 64), dtype=np.uint64)
        layer[rank[lo + roots], roots >> 6] = np.uint64(1) << (roots & 63).astype(np.uint64)
        unseen = ~layer
        k = 0
        while 2 * k + 1 < best_length and layer.any():
            reached = or_rows(layer, steps, g.n)
            inner = np.bitwise_or.reduce(layer & reached, axis=0)
            if inner.any():
                word = int(np.flatnonzero(inner)[0])
                bits = int(inner[word])
                best_length, best_root = 2 * k + 1, lo + 64 * word + (bits & -bits).bit_length() - 1
                break
            layer = np.bitwise_and(reached, unseen, out=reached)
            unseen ^= layer
            k += 1
    if best_root is None:
        return None
    best = double_cover_odd_walk(g, best_root)
    assert len(set(best[:-1])) == len(best) - 1, "shortest odd closed walk must be a cycle"
    return best


# ---------------------------------------------------------------------------
# fixed-length cycle search


@dataclass
class CycleSearch:
    status: str
    witness: Optional[list[int]] = None  # closed vertex list, length k+1
    expansions: int = 0


def has_cycle_of_length(g: Graph, k: int, budget: int = 10**7) -> CycleSearch:
    """Search for a simple cycle with exactly k vertices.

    For odd k, `odd_walk_free` first decides exactly whether any closed odd
    walk of length at most k exists.  A k-cycle is such a walk, so when
    there is none the answer is NO after 0 expansions.  When there is one,
    it proves nothing (a graph with a triangle can still have no 5-cycle),
    and the search below runs.  The exact check is skipped above
    ODD_WALK_CHECK_MAX_VERTICES vertices, where its bit rows get large.

    The search is an exhaustive DFS anchored at the smallest cycle vertex,
    pruned by distance back to the anchor (`simple_path_dfs` with `prune`,
    which reads the distances off balls of bit rows).  `budget` caps node
    expansions; exceeding it yields UNKNOWN rather than a wrong NO.

    Above ODD_WALK_CHECK_MAX_VERTICES vertices, where g's bit rows (as wide
    as its largest vertex id) could add up to n * n / 16 bytes over the
    starts, the DFS from s runs on a renamed copy (`_induced`) of part of g.
    It can enter only vertices within k // 2 of s (a path vertex i steps
    from s must get back to s in k - i), and it compares distances to s
    only up to k // 2, so the copy holds that ball of s, vertices below s
    included, since shortest paths may run through them.  The copy is s's
    ROW_BLOCK block, shared by the block's starts, when the ball lies in
    the block or has no vertex above s (the DFS then expands s alone);
    else it is the ball.
    """
    if k < 3:
        raise InputError("cycle length must be at least 3")
    if k % 2 and g.n <= ODD_WALK_CHECK_MAX_VERTICES and odd_walk_free(g.indptr, g.indices, k):
        return CycleSearch(NO, None, 0)
    expansions = 0
    h, rank, block = g, None, None  # the graph searched, g's vertex -> h's, h's block
    for s in range(g.n):
        if g.n > ODD_WALK_CHECK_MAX_VERTICES:
            # the vertices within k // 2 of s, below s too, which keep every
            # distance the DFS compares exact on the copy
            ball, ring = {s}, {s}
            for _ in range(k // 2):
                ring = {w for v in ring for w in g.sorted_adj[v]} - ball
                ball |= ring
            lo = s - s % ROW_BLOCK
            if max(ball) > s and not lo <= min(ball) <= max(ball) < lo + ROW_BLOCK:
                (h, rank), block = _induced(g, sorted(ball)), None
            elif block != lo:
                (h, rank), block = _induced(g, range(lo, min(lo + ROW_BLOCK, g.n))), lo
        start = s if rank is None else rank[s]
        status, path, used = simple_path_dfs(
            h, start, k - 1, start, budget=budget - expansions, lowest=start + 1, prune=True
        )
        expansions += used
        if status == YES:
            names = range(g.n) if rank is None else list(rank)
            return CycleSearch(YES, [names[v] for v in path] + [s], expansions)
        if status == UNKNOWN:
            return CycleSearch(UNKNOWN, None, expansions)
    return CycleSearch(NO, None, expansions)


def _induced(g: Graph, names: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """The subgraph on the ascending vertices `names`, names[i] renamed i,
    and the renaming, which keeps the order of every row, so a search on
    the copy takes the steps it takes on g."""
    rank = dict(zip(names, range(len(names))))
    indptr, indices = [0], []
    for v in names:
        indices += [rank[w] for w in g.sorted_adj[v] if w in rank]
        indptr.append(len(indices))
    return Graph.from_sorted_unique(len(rank), indptr, indices), rank


def odd_walk_free(indptr: np.ndarray, indices: np.ndarray, length: int) -> bool:
    """True iff the graph with ascending CSR rows (indptr, indices) has no
    closed walk of odd length at most `length`, which must be odd and
    positive.  A vertex listed in its own row is a loop, a closed walk of
    length 1.

    A shorter closed odd walk pads to exactly `length` steps by going back
    and forth along one of its edges, so only that length is checked.  Let
    S_j[u] be the set of vertices that u reaches by a walk of exactly j
    steps, k = (length - 1) // 2.  A closed walk of `length` steps exists
    iff some edge (u, w) has S_k[u] and S_k[w] meeting.  Each S_j is a
    matrix of bit rows packed into 64-bit words: S_1 is `pack_rows` of
    the CSR rows, and each of the k - 1 rounds ORs the rows of u's
    neighbours into S_{j+1}[u] (`or_rows`).  The edge test ORs S_k over
    the neighbours w >= u, by `or_rows` too, and ANDs it with S_k[u].  The
    check is exact integer work with no bound on the vertex count; it
    takes n * n / 8 bytes per bit matrix (Itai & Rodeh, SIAM J. Comput.
    1978, for odd girth by reachability).

    When u -> u ^ 1 is an automorphism (`_mirrors` on S_1, as on every
    sphere sample), S_j[u ^ 1] is S_j[u] with bits 2t and 2t + 1 swapped,
    so each round ORs only the even rows and mirrors them into the odd
    ones, and the edge test takes the even u only: the dart (u, w) meets
    in the same way as (u ^ 1, w ^ 1), and each such pair of darts has
    exactly one with u even and w >= u.
    """
    if length < 1 or length % 2 == 0:
        raise InputError(f"odd walk length must be odd and positive, not {length}")
    n = len(indptr) - 1
    if length == 1:
        return not np.any(indices == csr_rows(indptr))
    words = pack_rows(indptr, indices)
    rows = np.arange(0, n, 2 if _mirrors(words) else 1)
    order, steps = degree_steps(indptr[:-1][rows], indptr[1:][rows], indices)
    for _ in range(length // 2 - 1):
        words[rows[order]] = or_rows(words, steps, len(rows))
        if len(rows) < n:  # mirrored
            words[1::2] = _swap_pairs(words[0::2])
    order, steps = degree_steps(_first_at_least(indptr, indices, rows), indptr[1:][rows], indices)
    return not np.bitwise_and(words[rows[order]], or_rows(words, steps, len(rows))).any()


def _first_at_least(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index into `indices` of the first entry >= r of each ascending
    CSR row r in `rows` (the row's end if none), by one binary search over
    all of them at once."""
    lo, hi = indptr[rows], indptr[rows + 1]
    while (open_ := lo < hi).any():
        mid = (lo + hi) >> 1
        below = indices[np.minimum(mid, len(indices) - 1)] < rows
        lo = np.where(open_ & below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _swap_pairs(words: np.ndarray) -> np.ndarray:
    """Bit rows with bits 2t and 2t + 1 swapped, the vertex map t -> t ^ 1;
    a pair never straddles two 64-bit words."""
    even, one = np.uint64(0x5555555555555555), np.uint64(1)
    return ((words >> one) & even) | ((words & even) << one)


def _mirrors(words: np.ndarray) -> bool:
    """True iff the bit rows `words` come in pairs 2t, 2t + 1 (an even
    number of rows) and row 2t + 1 is row 2t with bits 2s and 2s + 1
    swapped: u -> u ^ 1 then maps every row, as a set, onto its partner's.
    Pairs are compared ROW_BLOCK at a time, and the first block that
    differs ends the test."""
    if len(words) % 2:
        return False
    even, odd = words[0::2], words[1::2]
    return all(
        np.array_equal(odd[lo : lo + ROW_BLOCK], _swap_pairs(even[lo : lo + ROW_BLOCK]))
        for lo in range(0, len(even), ROW_BLOCK)
    )


def mirrored(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True iff u -> u ^ 1 is an automorphism of the graph with ascending
    CSR rows (indptr, indices), rows taken as sets: the vertex count is
    even and `_mirrors` holds on the `pack_rows` bit rows.  They are packed
    in blocks of an even number of rows (two at least) whose bit rows take
    no more bytes than `indices`, so a sparse graph is never held as n * n
    bits."""
    n = len(indptr) - 1
    step = max(2, len(indices) // (n // 64 + 1) // 2 * 2)
    return n % 2 == 0 and all(
        _mirrors(pack_rows(indptr, indices, lo, min(lo + step, n))) for lo in range(0, n, step)
    )


# ---------------------------------------------------------------------------
# BFS layers / degeneracy


def bfs_layers(g: Graph, v: int) -> list[set[int]]:
    """Partition of v's component by BFS distance; layer 0 is {v}."""
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    layers: list[set[int]] = []
    for w, d in depths(bfs([v], g.sorted_neighbors)).items():
        if d == len(layers):
            layers.append(set())
        layers[d].add(w)
    return layers


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal (ties to the smallest id).

    Returns (removal order, degeneracy).  Greedy coloring along the reversed
    order uses at most degeneracy + 1 colors.  A bucket queue by current
    degree, each bucket a heap of ids, finds the next vertex; entries left
    behind in a higher bucket by a degree drop are skipped when popped.
    """
    deg = np.diff(g.indptr).tolist()
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(g.n):
        buckets[deg[v]].append(v)  # ascending ids, so each bucket is a heap
    removed = [False] * g.n
    order: list[int] = []
    degeneracy = d = 0
    while len(order) < g.n:
        bucket = buckets[d]
        if not bucket:
            d += 1
            continue
        v = heappop(bucket)
        if deg[v] != d:
            continue
        degeneracy = max(degeneracy, d)
        order.append(v)
        removed[v] = True
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heappush(buckets[deg[w]], w)
        # a removal lowers the minimum degree by at most one
        d = max(d - 1, 0)
    return order, degeneracy


def greedy_coloring(g: Graph, order: Sequence[int]) -> Coloring:
    """First-fit coloring along `order` (which may cover a vertex subset)."""
    assignment: dict[int, int] = {}
    top = 0
    subset = set(order)
    for v in order:
        used = {assignment[w] for w in g.adj[v] if w in assignment and w in subset}
        c = 0
        while c in used:
            c += 1
        assignment[v] = c
        top = max(top, c + 1)
    return Coloring(assignment, max(top, 1))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(bfs([0], g.sorted_neighbors)) == g.n

"""Finite antipodally-closed samples of spheres and the graphs joining
near-antipodal pairs, with the measure, covering and walk utilities the
sampling experiments need.

A sample stores each drawn point next to its exact coordinate negation
(vertex 2t is the draw, vertex 2t+1 its antipode, antipode(i) = i ^ 1), so
the antipodal involution is exact in floating point.  Vertices i and j are
adjacent when the geodesic distance from p_i to -p_j is strictly below the
threshold; the pair (i, antipode(i)) is excluded as a self-pairing, since
its adjacency test would compare a point against itself.

Randomness comes exclusively from the seeded counter-based stream in
`rng`, so identical parameters reproduce graphs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .closure import GraphHom
from .errors import ConstructionError, InputError, SearchFailure
from .graph import Graph, csr_rows, odd_walk_free
from .homotopy import Walk
from .rng import Stream, derive_seed

NORM_TOLERANCE = 1e-12
# bytes of each Gram tile that ApproxGraph.from_sample holds at once (one
# row at least), small enough that a tile and its products stay in cache
GRAM_BLOCK = 2**19


# ---------------------------------------------------------------------------
# spherical cap measure


def _adaptive_simpson(f, a, b, tol):
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 60 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = tol / 2.0
        return recurse(a, m, fa, flm, fm, left, half, depth + 1) + recurse(
            m, b, fm, frm, fb, right, half, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def cap_measure(n: int, eps: float) -> float:
    """Fraction of the n-sphere's surface covered by a cap of radius eps.

    Integrates sin^(n-1) by adaptive Simpson quadrature (absolute error
    within 1e-10); the two halves of the full integral share evaluations so
    the hemisphere comes out exactly one half.
    """
    if n < 1:
        raise InputError("sphere dimension must be at least 1")
    if not (0.0 <= eps <= math.pi):
        raise InputError("cap radius must lie in [0, pi]")
    if eps == 0.0:
        return 0.0
    if eps == math.pi:
        return 1.0

    def integrand(theta):
        return math.sin(theta) ** (n - 1)

    half = _adaptive_simpson(integrand, 0.0, math.pi / 2.0, 1e-13)
    total = 2.0 * half
    if eps <= math.pi / 2.0:
        if eps == math.pi / 2.0:
            return 0.5
        return _adaptive_simpson(integrand, 0.0, eps, 1e-13) / total
    return 1.0 - _adaptive_simpson(integrand, 0.0, math.pi - eps, 1e-13) / total


# ---------------------------------------------------------------------------
# samples


@dataclass
class SphereSample:
    """Antipodally closed point set: points[2t+1] is exactly -points[2t]."""

    points: np.ndarray  # (m, n+1) float64, unit rows
    dimension: int
    seed: int

    def __post_init__(self):
        m, d = self.points.shape
        if d != self.dimension + 1:
            raise InputError("coordinate width must be dimension + 1")
        if m % 2 != 0:
            raise InputError("sample must pair every point with its antipode")
        norms = np.linalg.norm(self.points, axis=1)
        if np.abs(norms - 1.0).max() > NORM_TOLERANCE:
            raise InputError("points must be unit vectors")
        if not np.array_equal(self.points[1::2], -self.points[0::2]):
            raise InputError("odd-index points must be exact negations")
        self.points.flags.writeable = False

    def size(self) -> int:
        return len(self.points)

    def antipode(self, i: int) -> int:
        return i ^ 1

    def distance(self, i: int, j: int) -> float:
        dot = float(np.dot(self.points[i], self.points[j]))
        return math.acos(max(-1.0, min(1.0, dot)))


def _unit_vectors(d: int, count: int, stream: Stream) -> np.ndarray:
    """`count` uniform points of the unit sphere in R^d, as a (count, d)
    array: each is the next d Gaussians of the stream, normalised, and a
    d-tuple whose norm is (nearly) zero is dropped for the next one.  The
    Gaussians come from `stream.gaussians` in bulk, and each point's
    squares are added by the builtin `sum`, as a per-point loop over
    `gaussian` would (from Python 3.12 `sum` compensates its rounding, so
    a numpy sum would round differently), so the points and the stream's
    state are that loop's."""
    kept = [np.empty((0, d))]
    while count:
        coords = stream.gaussians(count * d).reshape(count, d)
        squares = map(sum, (coords * coords).tolist())
        norms = np.sqrt(np.fromiter(squares, dtype=np.float64, count=count))
        ok = norms > 1e-9
        kept.append(coords[ok] / norms[ok, None])
        count -= int(np.count_nonzero(ok))
    return np.concatenate(kept)


def _sample_points(n: int, count: int, stream: Stream) -> np.ndarray:
    draws = _unit_vectors(n + 1, count, stream)
    rows = np.empty((2 * count, n + 1), dtype=np.float64)
    rows[0::2] = draws
    rows[1::2] = -draws
    return rows


@dataclass
class ApproxGraph:
    """Sample plus the graph joining points within eps of each other's
    antipodes (excluding the exact antipodal self-pairing)."""

    sample: SphereSample
    epsilon: float
    graph: Graph

    @classmethod
    def from_sample(cls, sample: SphereSample, epsilon: float) -> "ApproxGraph":
        """Threshold the Gram matrix of the draws (the even points) only.

        Vertex 2t + 1 is the exact negation of vertex 2t, and rounding to
        nearest commutes with negation, so the Gram entry of 2s ^ a and
        2t ^ b is (-1)^(a+b) G[s, t] bit for bit, where G is the draws'
        Gram matrix.  G is accumulated coordinate by coordinate, in place,
        so its reduction order is independent of BLAS.  It is held in tiles
        of whole rows, GRAM_BLOCK bytes each (32 rows of 2,000 draws), so
        that a tile, the coordinate's product added into it and its masks
        stay in cache; the tiling never changes an entry's value.  Row 2s
        holds 2t when G[s, t] < threshold and 2t + 1 when -G[s, t] <
        threshold; t = s is dropped (the vertex itself and its antipodal
        self-pairing).  For epsilon <= pi/2 the threshold is at most zero,
        so the two tests are exclusive and together read |G[s, t]| >
        -threshold: one mask of the tile's cells, one `np.flatnonzero`
        listing them row by row in ascending t, and column 2t + (G[s, t] >
        0).  Row 2s + 1 is row 2s with every column xor 1.  Above pi/2 a
        row can hold both 2t and 2t + 1, when -threshold < G[s, t] <
        threshold; there both tests go into a mask of two cells per entry,
        and a pair held by both rows keeps its order in row 2s + 1.
        """
        if not (0.0 < epsilon < math.pi):
            raise InputError("threshold must lie in (0, pi)")
        threshold = -math.cos(epsilon)
        draws = np.ascontiguousarray(sample.points[0::2])
        count, d = draws.shape
        step = max(1, min(count, GRAM_BLOCK // (8 * count)))
        grams, terms = np.empty((2, step, count))
        degrees, heads = [], []
        for start in range(0, count, step):
            chunk = draws[start : start + step]
            gram, term = grams[: len(chunk)], terms[: len(chunk)]
            np.multiply.outer(chunk[:, 0], draws[:, 0], out=gram)
            for k in range(1, d):
                gram += np.multiply.outer(chunk[:, k], draws[:, k], out=term)
            local = np.arange(len(chunk))
            if threshold > 0:  # a row can hold both 2t and 2t + 1
                near = np.stack([gram < threshold, gram > -threshold], axis=2)
                near[local, local + start] = False
                rows, cols = np.divmod(np.flatnonzero(near), 2 * count)
                mirror = cols ^ 1
                # a pair held by both rows keeps its order
                mirror[near.reshape(len(gram), -1)[rows, mirror]] ^= 1
            else:  # the two tests are exclusive
                near = np.abs(gram, out=term) > -threshold
                near[local, local + start] = False
                cells = np.flatnonzero(near)
                rows, cols = np.divmod(cells, count)
                cols = 2 * cols + (gram.reshape(-1)[cells] > 0)
                mirror = cols ^ 1
            degree = np.bincount(rows, minlength=len(gram))
            # row s's entries go to rows 2s and 2s + 1 of the block
            at = np.arange(len(cols)) + (np.cumsum(degree) - degree)[rows]
            block = np.empty(2 * len(cols), dtype=np.int64)
            block[at] = cols
            block[at + degree[rows]] = mirror
            degrees.append(np.repeat(degree, 2))
            heads.append(block)
        indptr = np.zeros(2 * count + 1, dtype=np.int64)
        np.cumsum(np.concatenate(degrees), out=indptr[1:])
        return cls(sample, epsilon, Graph.from_sorted_unique(2 * count, indptr, np.concatenate(heads)))

    def adjacency_matrix(self) -> np.ndarray:
        g = self.graph
        a = np.zeros((g.n, g.n), dtype=bool)
        a[csr_rows(g.indptr), g.indices] = True
        return a

    def dump(self) -> str:
        n_draws = self.sample.size() // 2
        lines = [
            f"{self.sample.dimension} {self.epsilon!r} {n_draws} {self.sample.seed}"
        ]
        for row in self.sample.points:
            lines.append(" ".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "ApproxGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        n, eps, count, seed = int(head[0]), float(head[1]), int(head[2]), int(head[3])
        rows = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
        if len(rows) != 2 * count:
            raise InputError("point count does not match header")
        return cls.from_sample(SphereSample(rows, n, seed), eps)

    def vertex_point_crossref(self) -> str:
        lines = []
        for i in range(self.sample.size()):
            sign = "+" if i % 2 == 0 else "-"
            lines.append(f"{i} {i // 2} {sign}")
        return "\n".join(lines) + "\n"


def sample_approximation(n: int, eps: float, count: int, seed: int) -> ApproxGraph:
    """Uniform sample of `count` points (plus exact antipodes) with edges at
    threshold eps; bit-for-bit deterministic in (n, eps, count, seed)."""
    if n < 1:  # checked before drawing: with no coordinates no draw has a norm
        raise InputError("sphere dimension must be at least 1")
    if count < 1:
        raise InputError("need at least one point")
    stream = Stream(seed)
    points = _sample_points(n, count, stream)
    return ApproxGraph.from_sample(SphereSample(points, n, seed), eps)


def covering_radius_estimate(
    sample: SphereSample, probes: int, seed: int
) -> float:
    """Statistical lower estimate of the covering radius.

    Draws `probes` uniform points from the given probe stream and reports
    the largest distance to the nearest sample point.  With a shared seed,
    more probes never decrease the estimate (the probe stream is a prefix).
    """
    if probes < 1:
        raise InputError("need at least one probe")
    if sample.size() == 0:
        raise InputError("sample is empty")
    stream = Stream(seed)
    n = sample.dimension
    worst = 0.0
    block = 256
    done = 0
    while done < probes:
        take = min(block, probes - done)
        dots = _unit_vectors(n + 1, take, stream) @ sample.points.T
        best = np.clip(dots.max(axis=1), -1.0, 1.0)
        worst = max(worst, float(np.arccos(best).max()))
        done += take
    return worst


def min_degree_ratio(g: Graph) -> float:
    if g.n < 1:
        raise InputError("graph is empty")
    return int(np.diff(g.indptr).min()) / g.n


# ---------------------------------------------------------------------------
# homomorphisms between samples


def nearest_vertex_hom(fine: ApproxGraph, coarse: ApproxGraph) -> GraphHom:
    """Map each fine vertex to its nearest coarse vertex and validate.

    Both samples hold exact negations, so the map commutes with the
    antipode: mapping[u ^ 1] == mapping[u] ^ 1.  A fine edge (u, v) whose
    v lies in the cell of -mapping[u] therefore lands on the excluded
    self-pairing (a, a ^ 1), whatever the thresholds.  A coarse threshold
    exceeding the fine one by twice the coarse covering radius is thus
    necessary, not sufficient.  Any fine edge landing on a coarse non-edge
    raises with the first 25 violating pairs ((u, v), (a, b)).
    """
    if fine.sample.dimension != coarse.sample.dimension:
        raise InputError("samples must share a dimension")
    dots = fine.sample.points @ coarse.sample.points.T
    mapping = tuple(int(i) for i in dots.argmax(axis=1))
    image = np.asarray(mapping, dtype=np.int64)
    us, vs = fine.graph.edge_ends()
    bad = np.flatnonzero(coarse.graph.edge_ids(image[us], image[vs]) < 0)[:25]
    ends = zip(us[bad].tolist(), vs[bad].tolist())
    violations = [((u, v), (mapping[u], mapping[v])) for u, v in ends]
    if violations:
        antipodal = sum(1 for _, (a, b) in violations if b == a ^ 1)
        raise ConstructionError(
            f"fine edges map to coarse non-edges; of the {len(violations)} "
            f"reported, {antipodal} are antipodal self-pairings and "
            f"{len(violations) - antipodal} are threshold-gap non-edges "
            "(coarse points too far apart for the coarse threshold)",
            violations=violations,
        )
    return GraphHom(fine.graph, coarse.graph, mapping)


_TETRAHEDRON = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


def tetrahedral_hom(g: ApproxGraph) -> GraphHom:
    """Canonical 4-coloring homomorphism for 2-sphere samples.

    Cells of the regular tetrahedron's nearest-vertex partition have
    diameter 2*arccos(1/3) < pi - eps whenever eps < 0.679, so no edge can
    have both endpoints in one cell; the quotient is a valid map onto K4.
    """
    if g.sample.dimension != 2:
        raise InputError("the tetrahedral quotient needs a 2-sphere sample")
    if g.epsilon >= math.pi - 2.0 * math.acos(1.0 / 3.0):
        raise InputError("threshold too large for the tetrahedral partition")
    cells = g.sample.points @ _TETRAHEDRON.T
    mapping = tuple(int(i) for i in cells.argmax(axis=1))
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return GraphHom(g.graph, k4, mapping)


# ---------------------------------------------------------------------------
# bracket walks and the short-odd-cycle finder


def bracket_walk(g: ApproxGraph, ids: Sequence[int]) -> Walk:
    """Walk visiting ids[0], -ids[1], ids[2], -ids[3], ...

    Consecutive ids must be within eps of each other (as points); the
    resulting alternating sequence is validated against the graph.
    """
    ids = list(ids)
    if not ids:
        raise InputError("empty vertex sequence")
    for idx in range(len(ids) - 1):
        if g.sample.distance(ids[idx], ids[idx + 1]) >= g.epsilon:
            raise InputError(f"points {idx} and {idx + 1} are not within the threshold")
    vertices = [
        ids[i] if i % 2 == 0 else g.sample.antipode(ids[i]) for i in range(len(ids))
    ]
    return Walk(g.graph, vertices)


def odd_girth_at_least(g: ApproxGraph, bound: int) -> bool:
    """Exact check that no odd cycle shorter than `bound` exists; holds
    for every bound, odd or even.  Runs `odd_walk_free` on the graph's CSR
    arrays, so no view of the graph is built; u -> u ^ 1 is an
    automorphism of every sample graph, so the check ORs only even rows."""
    if bound < 3:
        return True
    longest = bound - 2 if bound % 2 else bound - 1
    return odd_walk_free(g.graph.indptr, g.graph.indices, longest)


def find_noninjective_c2r3(
    g: ApproxGraph,
    phi: GraphHom,
    r: int,
    probes: int = 2000,
    probe_seed: Optional[int] = None,
) -> Walk:
    """A (2r+3)-cycle on which phi collides two vertices.

    Collide two vertices mapped together whose distance fits between
    (4r+2)*delta and 2*(eps - 2*delta) for the estimated covering radius
    delta, then walk a great circle through them in 2r+1 long steps plus
    two half-steps, snapping every scheduled point to its nearest sample
    vertex.  The snapped alternating walk is validated as a genuine cycle.

    The distance window is empty unless delta <= eps/(2r+3), that is
    delta <= pi/((2r+1)(2r+3)) (pi/35 for r = 2); otherwise SearchFailure
    is raised before phi's vertex map is read.
    """
    eps = math.pi / (2 * r + 1)
    if abs(g.epsilon - eps) > 1e-12:
        raise InputError(f"threshold must be pi/{2 * r + 1} for this construction")
    if phi.source != g.graph:
        raise InputError("homomorphism must start at the sample graph")
    if phi.target.n >= g.graph.n:
        raise InputError("target must be smaller than the sample")
    if probe_seed is None:
        probe_seed = derive_seed(g.sample.seed, "covering-probes")
    delta = covering_radius_estimate(g.sample, probes, probe_seed)
    delta1 = (4 * r + 2) * delta
    delta2 = eps - 2 * delta
    stats = {"delta_hat": delta, "delta1": delta1, "delta2": delta2}
    if delta1 > 2 * delta2:
        raise SearchFailure(
            "estimated covering radius leaves no admissible collision distance",
            stats=stats,
        )
    by_image: dict[int, list[int]] = {}
    for v in range(g.graph.n):
        by_image.setdefault(phi.mapping[v], []).append(v)
    candidates = []
    for image, members in sorted(by_image.items()):
        if len(members) < 2:
            continue
        pts = g.sample.points[members]
        grams = np.clip(pts @ pts.T, -1.0, 1.0)
        dists = np.arccos(grams)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                d = float(dists[a, b])
                if delta1 <= d <= 2 * delta2:
                    candidates.append((members[a], members[b], d))
    if not candidates:
        densest = max(
            (len(m) for m in by_image.values()), default=0
        )
        stats["largest_fiber"] = densest
        raise SearchFailure(
            "no colliding pair falls in the admissible distance range", stats=stats
        )
    candidates.sort(key=lambda t: (t[0], t[1]))
    for v, v2, theta in candidates:
        walk = _snap_circle_walk(g, v, v2, theta, r)
        if walk is not None:
            assert len({phi.mapping[w] for w in walk.vertices}) <= 2 * r + 2
            return walk
    raise ConstructionError(
        "every snapped circle walk failed cycle validation "
        "(covering radius too large for the schedule)",
    )


def _snap_circle_walk(g: ApproxGraph, v: int, v2: int, theta: float, r: int) -> Optional[Walk]:
    pv = g.sample.points[v]
    pv2 = g.sample.points[v2]
    sin_theta = math.sin(theta)
    if sin_theta < 1e-12:
        return None
    e2 = (math.cos(theta) * pv - pv2) / sin_theta
    schedule = [i * (math.pi - theta) / (2 * r + 1) for i in range(2 * r + 2)]
    schedule.append(math.pi - theta / 2.0)
    schedule.append(math.pi)
    snapped = []
    for t in schedule:
        x = math.cos(t) * pv + math.sin(t) * e2
        snapped.append(int(np.argmax(g.sample.points @ x)))
    try:
        walk = bracket_walk(g, snapped)
    except InputError:
        return None
    if not walk.is_closed() or walk.length != 2 * r + 3:
        return None
    if len(set(walk.vertices[:-1])) != 2 * r + 3:
        return None
    if v not in walk.vertices or v2 not in walk.vertices:
        return None
    return walk

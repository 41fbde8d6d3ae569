"""The common-neighbor complex of a graph, its first homology, and
edge-path presentations of its fundamental group.

Faces are the vertex sets admitting a common neighbor, so the maximal faces
are the maximal neighborhoods; only the 2-skeleton is ever materialized.
Even closed walks of the graph translate to edge paths of the complex by
keeping every other vertex, and back by inserting smallest common
neighbors; the two translations are mutually inverse on representatives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Optional, Sequence

from .errors import InputError, RefusalError
from .graph import Graph, canon_edge
from .homotopy import HOMOTOPIC, Walk
from .homotopy import UNKNOWN as HUNKNOWN
from .snf import smith_normal_form
from .traverse import bfs, meet_in_the_middle

TRIVIAL = "TRIVIAL"
CYCLIC = "CYCLIC"
UNKNOWN_NONTRIVIAL_ABELIANIZATION = "UNKNOWN_NONTRIVIAL_ABELIANIZATION"
UNKNOWN = "UNKNOWN"


class SimplicialComplex:
    """Abstract complex given by its maximal faces; skeleta built on demand."""

    def __init__(self, maximal_faces: Sequence[frozenset[int]]):
        faces = sorted({frozenset(f) for f in maximal_faces if f}, key=lambda f: (len(f), sorted(f)))
        kept = [f for f in faces if not any(f < g for g in faces)]
        self.maximal_faces = tuple(sorted(kept, key=lambda f: sorted(f)))
        self._skeleta: dict[int, tuple] = {}

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for f in self.maximal_faces:
            out |= f
        return frozenset(out)

    def _skeleton(self, size: int) -> tuple:
        """The faces of `size` vertices, as sorted tuples in ascending order."""
        if size not in self._skeleta:
            found = set()
            for f in self.maximal_faces:
                found.update(combinations(sorted(f), size))
            self._skeleta[size] = tuple(sorted(found))
        return self._skeleta[size]

    def edges(self) -> tuple:
        return self._skeleton(2)

    def triangles(self) -> tuple:
        return self._skeleton(3)

    def in_common_simplex(self, vertices) -> bool:
        vs = set(vertices)
        return any(vs <= f for f in self.maximal_faces)

    def _one_skeleton(self) -> dict[int, list[int]]:
        """Each vertex's neighbours in the 1-skeleton, ascending."""
        adj: dict[int, list[int]] = {v: [] for v in sorted(self.vertices())}
        for a, b in self.edges():  # sorted, so every list stays ascending
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def components(self) -> list["SimplicialComplex"]:
        """Connected pieces (by the 1-skeleton), each as its own complex."""
        adj = self._one_skeleton()
        seen: set[int] = set()
        comps = []
        for v in adj:
            if v in seen:
                continue
            comp = set(bfs([v], adj.__getitem__))
            seen |= comp
            comps.append(comp)
        return [
            SimplicialComplex([f for f in self.maximal_faces if f <= comp]) for comp in comps
        ]

    def is_connected(self) -> bool:
        adj = self._one_skeleton()
        return len(bfs(list(adj)[:1], adj.__getitem__)) == len(adj)

    def dump(self) -> str:
        return "\n".join(" ".join(map(str, sorted(f))) for f in self.maximal_faces) + "\n"


def build_ncomplex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are the vertex sets with a common neighbor."""
    return SimplicialComplex([frozenset(g.adj[v]) for v in range(g.n) if g.adj[v]])


@dataclass
class H1Descriptor:
    free_rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def h1_homology(k: SimplicialComplex) -> H1Descriptor:
    """First homology over the integers from the 2-skeleton's boundary maps."""
    if not k.is_connected():
        raise RefusalError("complex is disconnected; compute components separately")
    edges = k.edges()
    if not edges:
        return H1Descriptor(0, ())
    eidx = {e: i for i, e in enumerate(edges)}
    # In a face with smallest vertex v, triangle abc has the boundary of
    # vbc - vac + vab, so each maximal face's triangles through its smallest
    # vertex span the image of d2 over the integers: a seventh of all
    # triangles on the 300-vertex pi/5 sample.  Column abc is bc - ac + ab.
    cones = set()
    for f in k.maximal_faces:
        v, *rest = sorted(f)
        cones.update((v, a, b) for a, b in combinations(rest, 2))
    d2 = [{eidx[(b, c)]: 1, eidx[(a, c)]: -1, eidx[(a, b)]: 1} for a, b, c in sorted(cones)]
    # the cycles ker d1 of a connected complex are free of rank |E| - (|V| - 1)
    return _quotient(len(edges) - len(k.vertices()) + 1, d2)


# The unit-pivot reduction refuses once it has created this many new nonzero
# entries per nonzero entry of its input, which also bounds its memory.  The
# 120- and 300-vertex pi/5 sphere samples need 0.9 and 1.1.
FILL_IN_PER_NONZERO = 4


def _quotient(rank: int, columns: list[dict[int, int]]) -> H1Descriptor:
    """A free group of `rank` modulo the span of `columns` inside it; each
    column maps a row to its nonzero entry."""
    factors = _invariant_factors(columns)
    return H1Descriptor(rank - len(factors), tuple(d for d in factors if d > 1))


def _invariant_factors(cols: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix, ascending.

    Eliminates +-1 pivots while any is left, each from the row with the
    fewest nonzeros that holds one, in its unit column with the fewest
    nonzeros.  Column operations clear the rest of the pivot row, after
    which the pivot column needs only row operations, so both are dropped
    and the pivot contributes a factor 1.  The dense Smith normal form runs
    only on the core left without unit entries (Kaczynski, Mrozek &
    Slusarek 1998).  The columns are reduced in place.
    """
    rows: dict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    cap = FILL_IN_PER_NONZERO * sum(map(len, cols))
    fill = units = 0
    queue = [(len(js), i) for i, js in rows.items()]
    heapify(queue)
    while queue:
        count, i = heappop(queue)
        js = rows[i]
        if len(js) != count:
            continue  # stale: the row changed after it was queued
        best = min(((len(cols[j]), j) for j in js if cols[j][i] in (1, -1)), default=None)
        if best is None:
            continue  # queued again if an elimination changes it
        j = best[1]
        pivot = cols[j]
        sign = pivot.pop(i)
        for k in js:
            if k == j:
                continue
            col = cols[k]
            f = col.pop(i) * sign
            for r, v in pivot.items():
                old = col.get(r)
                if old is None:
                    col[r] = -f * v
                    rows[r].add(k)
                    fill += 1
                elif old != f * v:
                    col[r] = old - f * v
                else:
                    del col[r]
                    rows[r].discard(k)
        if fill > cap:
            raise RefusalError(f"unit-pivot reduction exceeded its fill-in cap of {cap}")
        units += 1
        js.clear()
        for r in pivot:
            js_r = rows[r]
            js_r.discard(j)
            if js_r:
                heappush(queue, (len(js_r), r))
        pivot.clear()
    core_rows = sorted(i for i, js in rows.items() if js)
    core_cols = sorted({j for i in core_rows for j in rows[i]})
    position = {i: p for p, i in enumerate(core_rows)}
    core = [[0] * len(core_cols) for _ in core_rows]
    for c, j in enumerate(core_cols):
        for i, v in cols[j].items():
            core[position[i]][c] = v
    return [1] * units + smith_normal_form(core).diagonal


@dataclass
class EdgePath:
    """Vertex sequence whose consecutive pairs lie in a common simplex."""

    complex: SimplicialComplex
    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("edge path needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        known = self.complex.vertices()
        for v in self.vertices:
            if v not in known:
                raise InputError(f"vertex {v} not in the complex")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a != b and not self.complex.in_common_simplex((a, b)):
                raise InputError(f"({a}, {b}) spans no simplex")

    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]


@dataclass
class GroupPresentation:
    """Relators are words over signed 1-based generator indices."""

    num_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for word in self.relators:
            for sym in word:
                if sym == 0 or abs(sym) > self.num_generators:
                    raise InputError(f"symbol {sym} references no generator")

    def dump(self) -> str:
        lines = [f"gens {self.num_generators}"]
        lines.extend(" ".join(map(str, word)) for word in self.relators)
        return "\n".join(lines) + "\n"


def edge_path_presentation(k: SimplicialComplex, v0: int) -> GroupPresentation:
    """Presentation of the complex's loop classes at v0.

    Generators: edges outside a breadth-first spanning tree of the
    1-skeleton.  Relators: the boundary word of every triangle, with tree
    edges contributing nothing.
    """
    if v0 not in k.vertices():
        raise InputError(f"basepoint {v0} not in the complex")
    if not k.is_connected():
        raise RefusalError("complex is disconnected")
    parent = bfs([v0], k._one_skeleton().__getitem__)
    tree = {canon_edge(u, w) for w, u in parent.items() if u is not None}
    gens = [e for e in k.edges() if e not in tree]
    gen_index = {e: i + 1 for i, e in enumerate(gens)}  # 1-based

    def directed_symbol(a: int, b: int) -> Optional[int]:
        e = canon_edge(a, b)
        if e in tree:
            return None
        idx = gen_index[e]
        return idx if (a, b) == e else -idx

    relators = []
    for a, b, c in k.triangles():
        word = []
        for x, y in ((a, b), (b, c), (c, a)):
            sym = directed_symbol(x, y)
            if sym is not None:
                word.append(sym)
        word = _free_reduce(tuple(word))
        if word:
            relators.append(word)
    return GroupPresentation(len(gens), tuple(relators))


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for sym in word:
        if out and out[-1] == -sym:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = _free_reduce(word[1:-1])
    return word


def tietze_simplify(
    p: GroupPresentation, budget: int = 10**5
) -> tuple[GroupPresentation, str]:
    """Deterministic simplification loop with an honest give-up.

    Priority per pass: free/cyclic reduction, drop empty and duplicate
    relators, eliminate a generator via a length-1 relator, substitute via a
    length-2 relator, then rewrite with short relators as cyclic subwords.
    Status TRIVIAL means the empty presentation was reached; CYCLIC means at
    most one generator survives with power relators; otherwise the
    abelianization (by integer SNF) distinguishes a certified-nontrivial
    UNKNOWN from a plain one.
    """
    gens = list(range(1, p.num_generators + 1))
    relators = [_cyclic_reduce(w) for w in p.relators]
    steps = 0

    def substitute(words, target, replacement):
        # replace every occurrence of generator `target` (1-based) by the word
        out = []
        for w in words:
            if all(abs(s) != target for s in w):
                out.append(w)
                continue
            new: list[int] = []
            for s in w:
                if s == target:
                    new.extend(replacement)
                elif s == -target:
                    new.extend(-x for x in reversed(replacement))
                else:
                    new.append(s)
            out.append(_cyclic_reduce(tuple(new)))
        return out

    changed = True
    while changed and steps < budget:
        changed = False
        relators = [w for w in (_cyclic_reduce(w) for w in relators) if w]
        relators = sorted(set(relators), key=lambda w: (len(w), w))
        # length-1: the generator is trivial
        length1 = next((w for w in relators if len(w) == 1), None)
        if length1 is not None:
            target = abs(length1[0])
            relators = substitute(relators, target, ())
            gens.remove(target)
            steps += 1
            changed = True
            continue
        # length-2 with distinct generators: one substitutes for the other
        length2 = next(
            (w for w in relators if len(w) == 2 and abs(w[0]) != abs(w[1])), None
        )
        if length2 is not None:
            a, b = length2
            # relator a b = 1 so gen |b| = (sign) a^{-1}
            target = abs(b)
            repl = (-a,) if b > 0 else (a,)
            relators = substitute(relators, target, repl)
            gens.remove(target)
            steps += 1
            changed = True
            continue
        # rewriting: shorten a relator using a strictly shorter one
        rewritten = False
        for short in relators:
            if rewritten:
                break
            variants = set()
            doubled = short + short
            for i in range(len(short)):
                rot = doubled[i : i + len(short)]
                variants.add(rot)
                variants.add(tuple(-s for s in reversed(rot)))
            span = len(short) // 2 + 1
            for idx, w in enumerate(relators):
                if len(w) <= len(short) or rewritten:
                    continue
                for var in variants:
                    head, tail = var[:span], var[span:]
                    for pos in range(len(w) - span + 1):
                        if tuple(w[pos : pos + span]) == head:
                            # w = x head y; head = tail^{-1} modulo the relator
                            replacement = tuple(-s for s in reversed(tail))
                            new = w[:pos] + replacement + w[pos + span :]
                            new = _cyclic_reduce(new)
                            if len(new) < len(w):
                                relators[idx] = new
                                rewritten = True
                                steps += 1
                                break
                    if rewritten:
                        break
        if rewritten:
            changed = True

    relators = [w for w in (_cyclic_reduce(w) for w in relators) if w]
    relators = sorted(set(relators), key=lambda w: (len(w), w))
    # compact generators
    remap = {old: i + 1 for i, old in enumerate(sorted(gens))}
    compact = tuple(
        tuple((1 if s > 0 else -1) * remap[abs(s)] for s in w) for w in relators
    )
    reduced = GroupPresentation(len(gens), compact)
    if not gens:
        return reduced, TRIVIAL
    if len(gens) == 1:
        return reduced, CYCLIC
    abelian = presentation_abelianization(reduced)
    if abelian.free_rank > 0 or abelian.torsion:
        return reduced, UNKNOWN_NONTRIVIAL_ABELIANIZATION
    return reduced, UNKNOWN


def presentation_abelianization(p: GroupPresentation) -> H1Descriptor:
    """Abelianization of the presented group: the generators modulo the
    relators' exponent sums."""
    relators = []
    for w in p.relators:
        sums: dict[int, int] = defaultdict(int)
        for s in w:
            sums[abs(s) - 1] += 1 if s > 0 else -1
        relators.append({g: e for g, e in sums.items() if e})
    return _quotient(p.num_generators, relators)


# ---------------------------------------------------------------------------
# walk <-> edge path translation


def walk_to_edgepath(p: Walk) -> EdgePath:
    """Even-index subsequence of an even closed walk, as an edge path.

    Consecutive kept vertices share the dropped intermediate neighbor, so
    the pair always spans a simplex of the neighbor complex.
    """
    if not p.is_closed() or p.parity() != 0:
        raise InputError("translation needs a closed walk of even length")
    complex_ = build_ncomplex(p.graph)
    kept = p.vertices[0:-1:2] + (p.vertices[-1],) if p.length else p.vertices
    return EdgePath(complex_, kept)


def edgepath_to_walk(q: EdgePath, g: Graph) -> Walk:
    """Interleave each consecutive pair with its smallest common neighbor."""
    vs = q.vertices
    out = [vs[0]]
    for a, b in zip(vs, vs[1:]):
        common = sorted(g.adj[a] & g.adj[b])
        if not common:
            raise InputError(f"({a}, {b}) has no common neighbor in the graph")
        out.extend([common[0], b])
    return Walk(g, out)


# ---------------------------------------------------------------------------
# edge-path equivalence moves (bounded search)


def _edgepath_moves(k: SimplicialComplex, vs: tuple[int, ...], length_cap: int):
    out = []
    n = len(vs)
    # drop a repeat: v v -> v
    for i in range(n - 1):
        if vs[i] == vs[i + 1]:
            out.append(vs[: i + 1] + vs[i + 2 :])
    # contract a simplex triple: a b c -> a c when {a,b,c} spans a simplex
    for i in range(1, n - 2):
        if k.in_common_simplex((vs[i], vs[i + 1], vs[i + 2])):
            out.append(vs[: i + 1] + vs[i + 2 :])
    if n + 1 <= length_cap:
        # duplicate a vertex: v -> v v
        for i in range(n):
            out.append(vs[: i + 1] + vs[i:])
        # insert inside a simplex: a c -> a b c
        for i in range(n - 1):
            a, c = vs[i], vs[i + 1]
            for face in k.maximal_faces:
                if a in face and c in face:
                    for b in sorted(face):
                        out.append(vs[: i + 1] + (b,) + vs[i + 1 :])
    return out


def equivalent_edge_paths(
    k: SimplicialComplex,
    q1: EdgePath,
    q2: EdgePath,
    length_cap: Optional[int] = None,
    state_cap: int = 10**5,
) -> str:
    """Bounded bidirectional search over the four edge-path moves.

    Returns HOMOTOPIC or UNKNOWN (the moves cannot certify inequivalence).
    """
    if length_cap is None:
        length_cap = max(len(q1.vertices), len(q2.vertices)) + 4

    _, chains = meet_in_the_middle(
        q1.vertices, q2.vertices, lambda vs: _edgepath_moves(k, vs, length_cap), state_cap
    )
    return HUNKNOWN if chains is None else HOMOTOPIC

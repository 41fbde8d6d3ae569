"""Walks in a graph and the three local moves that generate walk homotopy:
substitute an interior vertex for another common neighbor of its two
neighbors, insert a there-and-back detour, or delete one.

Two walks are homotopic when a finite move sequence transforms one into the
other.  Deciding this is only semi-decidable, so `are_homotopic` is total at
the price of an UNKNOWN verdict: it separates walks by cheap invariants
(endpoints, parity, the mod-2 closure functionals) and otherwise runs a
capped bidirectional search whose positive answers carry replayable move
sequences.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .closure import EdgeMultiset, GraphHom, InvariantOracle, InvariantSpec
from .errors import InputError, MoveError, ParseError, RefusalError
from .graph import Graph, is_bipartite, is_connected
from .traverse import meet_in_the_middle

SUB = "sub"
INS = "ins"
DEL = "del"

HOMOTOPIC = "HOMOTOPIC"
NOT_HOMOTOPIC = "NOT_HOMOTOPIC"
UNKNOWN = "UNKNOWN"


class Walk:
    """Oriented walk: a vertex sequence whose consecutive pairs are edges."""

    __slots__ = ("graph", "vertices")

    def __init__(self, graph: Graph, vertices: Sequence[int]):
        vertices = tuple(vertices)
        if not vertices:
            raise InputError("a walk has at least one vertex")
        for v in vertices:
            if not (0 <= v < graph.n):
                raise InputError(f"vertex {v} out of range")
        for a, b in zip(vertices, vertices[1:]):
            if not graph.has_edge(a, b):
                raise InputError(f"({a}, {b}) is not an edge")
        self.graph = graph
        self.vertices = vertices

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def is_closed(self) -> bool:
        return self.start == self.end

    def parity(self) -> int:
        return self.length % 2

    def is_cycle(self) -> bool:
        return (
            self.is_closed()
            and self.length >= 3
            and len(set(self.vertices[:-1])) == self.length
        )

    def edge_multiset(self) -> EdgeMultiset:
        return EdgeMultiset.from_walk_vertices(self.graph, self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Walk)
            and self.graph == other.graph
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "Walk(" + ",".join(map(str, self.vertices)) + ")"


def parse_walk(graph: Graph, literal: str) -> Walk:
    """Comma-separated vertex ids, e.g. "0,1,2,0"."""
    try:
        vertices = [int(tok) for tok in literal.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"bad walk literal {literal!r}")
    return Walk(graph, vertices)


@dataclass(frozen=True)
class Move:
    kind: str  # sub / ins / del
    index: int
    vertex: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (SUB, INS, DEL):
            raise InputError(f"unknown move kind {self.kind!r}")
        if self.kind in (SUB, INS) and self.vertex is None:
            raise InputError(f"{self.kind} move needs a vertex")

    def format(self) -> str:
        if self.kind == DEL:
            return f"del {self.index}"
        return f"{self.kind} {self.index} {self.vertex}"


def parse_moves(text: str) -> list[Move]:
    """Move log: one move per line, "sub i v" / "ins i w" / "del i"."""
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == DEL and len(parts) == 2:
                moves.append(Move(DEL, int(parts[1])))
            elif parts[0] in (SUB, INS) and len(parts) == 3:
                moves.append(Move(parts[0], int(parts[1]), int(parts[2])))
            else:
                raise ValueError
        except (ValueError, InputError):
            raise ParseError(f"line {lineno}: bad move {raw!r}")
    return moves


def apply_move(walk: Walk, move: Move) -> Walk:
    """Apply one move, checking its applicability condition.

    sub i v: 0 < i < length, v adjacent to both neighbors of position i.
    ins i w: 0 <= i <= length, w adjacent to the vertex at position i.
    del i:   0 < i < length and the two neighbors of position i coincide.
    """
    g = walk.graph
    vs = walk.vertices
    k = walk.length
    i = move.index
    if move.kind == SUB:
        if not (0 < i < k):
            raise MoveError(f"sub index {i} not interior to a length-{k} walk")
        v = move.vertex
        if v not in g.adj[vs[i - 1]] or v not in g.adj[vs[i + 1]]:
            raise MoveError(
                f"vertex {v} is not a common neighbor of positions {i - 1} and {i + 1}"
            )
        return Walk(g, vs[:i] + (v,) + vs[i + 1 :])
    if move.kind == INS:
        if not (0 <= i <= k):
            raise MoveError(f"ins index {i} outside walk of length {k}")
        w = move.vertex
        if w not in g.adj[vs[i]]:
            raise MoveError(f"vertex {w} is not a neighbor of position {i}")
        return Walk(g, vs[: i + 1] + (w, vs[i]) + vs[i + 1 :])
    # DEL
    if not (0 < i < k):
        raise MoveError(f"del index {i} not interior to a length-{k} walk")
    if vs[i - 1] != vs[i + 1]:
        raise MoveError(f"del needs equal neighbors around position {i}")
    return Walk(g, vs[:i] + vs[i + 2 :])


def replay_moves(walk: Walk, moves: Sequence[Move]) -> Walk:
    """Fold apply_move; errors carry the failing step index."""
    current = walk
    for step, move in enumerate(moves):
        try:
            current = apply_move(current, move)
        except MoveError as exc:
            raise MoveError(f"step {step}: {exc}") from exc
    return current


def inverse_move(before: Walk, move: Move) -> Move:
    """The move undoing `move` as applied to `before`."""
    if move.kind == SUB:
        return Move(SUB, move.index, before.vertices[move.index])
    if move.kind == INS:
        return Move(DEL, move.index + 1)
    return Move(INS, move.index - 1, before.vertices[move.index])


def _moves(g: Graph, vs: tuple[int, ...], length_cap: int):
    """Every move applicable to the vertex tuple `vs` within the length cap,
    as ((kind, index, vertex), successor tuple) pairs in sorted order:
    deletions and substitutions by position, then insertions."""
    adj, nbrs = g.adj, g.sorted_adj
    k = len(vs) - 1
    for i in range(1, k):
        a, b = vs[i - 1], vs[i + 1]
        if a == b:
            yield (DEL, i, None), vs[:i] + vs[i + 2 :]
        for v in sorted(adj[a] & adj[b]):
            if v != vs[i]:
                yield (SUB, i, v), vs[:i] + (v,) + vs[i + 1 :]
    if k + 2 <= length_cap:
        for i in range(k + 1):
            head, tail = vs[: i + 1], (vs[i],) + vs[i + 1 :]
            for w in nbrs[vs[i]]:
                yield (INS, i, w), head + (w,) + tail


def _key(vs: Sequence[int]) -> bytes:
    """The search key of a vertex sequence: one native 4-byte word per vertex."""
    return array("I", vs).tobytes()


def _vertices(key: bytes) -> tuple[int, ...]:
    return tuple(memoryview(key).cast("I"))


def _key_moves(g: Graph, length_cap: int):
    """successors(key): the keys of `_moves(g, vs, length_cap)`'s successors
    for the walk keyed `key`, in the same order, repeats included.

    Each successor is sliced out of the key with the new words spliced in.
    A vertex's word, a vertex pair's common neighbours as words, and each
    vertex's insertion pairs w·u are built on first use and kept for the
    successor function's lifetime (one query).
    """
    adj, nbrs = g.adj, g.sorted_adj
    words: dict = {}
    common: dict = {}
    detours: dict = {}

    def word(v: int) -> bytes:
        if v not in words:
            words[v] = _key((v,))
        return words[v]

    def successors(key: bytes) -> list:
        vs = memoryview(key).cast("I")
        k = len(vs) - 1
        out = []
        for i in range(1, k):
            lo, mid, hi = key[: 4 * i], key[4 * i : 4 * i + 4], key[4 * i + 4 :]
            a, b = vs[i - 1], vs[i + 1]
            if a == b:
                out.append(lo + hi[4:])
            pair = (a, b)
            if pair not in common:
                common[pair] = [word(v) for v in sorted(adj[a] & adj[b])]
            out += [lo + c + hi for c in common[pair] if c != mid]
        if k + 2 <= length_cap:
            for i in range(k + 1):
                u = vs[i]
                if u not in detours:
                    detours[u] = [word(w) + word(u) for w in nbrs[u]]
                head, tail = key[: 4 * i + 4], key[4 * i + 4 :]
                out += [head + wu + tail for wu in detours[u]]
        return out

    return successors


def _label(g: Graph, before: tuple, after: tuple, length_cap: int) -> tuple:
    """The first move, in `_moves` order, that takes `before` to `after`."""
    return next(label for label, vs in _moves(g, before, length_cap) if vs == after)


def legal_moves(walk: Walk, length_cap: int):
    """All (move, successor) pairs within the length cap, in sorted order."""
    g = walk.graph
    return [(Move(*label), Walk(g, vs)) for label, vs in _moves(g, walk.vertices, length_cap)]


@dataclass
class HomotopyVerdict:
    status: str
    moves: Optional[list[Move]] = None  # HOMOTOPIC: replayable witness
    separator: Optional[object] = None  # NOT_HOMOTOPIC: what differs
    states_explored: int = 0

    def describe(self) -> dict:
        out = {"status": self.status, "states_explored": self.states_explored}
        if self.moves is not None:
            out["moves"] = [m.format() for m in self.moves]
        if self.separator is not None:
            sep = self.separator
            out["separator"] = sep.describe() if isinstance(sep, InvariantSpec) else str(sep)
        return out


def are_homotopic(
    g: Graph,
    p: Walk,
    q: Walk,
    length_cap: Optional[int] = None,
    state_cap: int = 10**6,
) -> HomotopyVerdict:
    """Decide walk homotopy within caps.

    Endpoints and parity separate immediately; so do the single-class mod-2
    functionals of the identity homomorphism.  Otherwise a bidirectional
    breadth-first search over move-reachable walks (lengths capped) either
    meets in the middle, yielding a validated move sequence, or gives up
    with UNKNOWN once `state_cap` states have been expanded or both
    reachable sets are exhausted under the length cap.

    The search keys each walk as bytes (`_key`) and expands it into the
    keys of `_moves`'s successors, in their order (`_key_moves`), storing
    no move labels.  The witness is read off the two chains of walks it
    returns: each step's move is the first in `_moves` order that takes
    one walk to the next, which is the move the step was discovered by;
    the q-side moves are inverted and the whole sequence is replayed.
    """
    if p.graph != g or q.graph != g:
        raise InputError("walks must live in the given graph")
    if length_cap is None:
        length_cap = max(p.length, q.length) + 6
    if (p.start, p.end) != (q.start, q.end):
        return HomotopyVerdict(NOT_HOMOTOPIC, separator="endpoints differ")
    if p.parity() != q.parity():
        return HomotopyVerdict(NOT_HOMOTOPIC, separator="parity differs")
    oracle = InvariantOracle(GraphHom.identity(g))
    spec = oracle.separating_spec(p.edge_multiset(), q.edge_multiset())
    if spec is not None:
        return HomotopyVerdict(NOT_HOMOTOPIC, separator=spec)

    explored, chains = meet_in_the_middle(
        _key(p.vertices), _key(q.vertices), _key_moves(g, length_cap), state_cap
    )
    if chains is None:
        return HomotopyVerdict(UNKNOWN, states_explored=explored)
    forward, backward = ([_vertices(key) for key in chain] for chain in chains)
    moves = [Move(*_label(g, a, b, length_cap)) for a, b in zip(forward, forward[1:])]
    # invert the q-side path to continue from the meeting walk to q
    for before, after in reversed(list(zip(backward, backward[1:]))):
        label = _label(g, before, after, length_cap)
        moves.append(inverse_move(Walk(g, before), Move(*label)))
    replayed = replay_moves(p, moves)
    assert replayed == q, "witness failed to replay"
    return HomotopyVerdict(HOMOTOPIC, moves=moves, states_explored=explored)


SIMPLY_CONNECTED = "SIMPLY_CONNECTED"
NOT_SIMPLY_CONNECTED = "NOT"


@dataclass
class SimpleConnectivityVerdict:
    status: str
    detail: Optional[object] = None


def check_simply_connected(g: Graph, budget: int = 10**5) -> SimpleConnectivityVerdict:
    """Semi-decide whether all same-endpoint same-parity walk pairs are homotopic.

    Routes through the neighborhood complex: its fundamental group matches
    the even-walk classes for connected non-bipartite graphs.  A nonzero
    first homology certifies NOT.  Otherwise the first homology is 0, so a
    presentation simplifying to the empty one or to one generator
    certifies SIMPLY_CONNECTED: a cyclic group equals its abelianization,
    which is 0.  Anything else is UNKNOWN.  Bipartite or disconnected
    inputs are refused.
    """
    from . import ncomplex  # deferred: ncomplex imports Walk from this module

    if not is_connected(g):
        raise RefusalError("graph must be connected")
    if is_bipartite(g)[0]:
        raise RefusalError("graph must be non-bipartite")
    complex_ = ncomplex.build_ncomplex(g)
    h1 = ncomplex.h1_homology(complex_)
    if h1.free_rank != 0 or h1.torsion:
        return SimpleConnectivityVerdict(NOT_SIMPLY_CONNECTED, detail=h1)
    basepoint = min(complex_.vertices())
    pres = ncomplex.edge_path_presentation(complex_, basepoint)
    reduced, status = ncomplex.tietze_simplify(pres, budget=budget)
    if status in (ncomplex.TRIVIAL, ncomplex.CYCLIC):
        return SimpleConnectivityVerdict(SIMPLY_CONNECTED)
    return SimpleConnectivityVerdict(UNKNOWN, detail=status)

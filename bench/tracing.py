"""Span recorder that instruments oddwalk from outside.

`Recorder.install` replaces each listed public function or method of
oddwalk by a timing wrapper at every place it is bound: the defining
module's attribute, every `from .x import y` alias in the other oddwalk
modules, and class attributes for methods.  Nothing inside `src/` is
edited.  `uninstall` restores the originals.

Each call records one span: name, start, end, parent span index and the id
of the benchmark item that caused it.  Spans stay in memory until the
caller writes them out.  Counters are read from the values the wrapped
calls return, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from oddwalk import (
    borsuk,
    closure,
    coloring,
    graph,
    homotopy,
    homsearch,
    ncomplex,
    snf,
)


def _graph_key(g):
    return (g.n, len(g.edges), hash(g.edges))


def _hom_key(phi):
    return (_graph_key(phi.source), _graph_key(phi.target), hash(phi.mapping))


# Counter hooks: (recorder, call args, return value).


def _count_edges(rec, args, result):
    rec.counts["borsuk.edges"] += result.graph.num_edges()


def _count_expansions(rec, args, result):
    rec.counts["graph.has_cycle_of_length.expansions"] += result.expansions


def _count_c4(rec, args, result):
    rec.counts["closure.c4_partition.classes"] += len(result.classes)
    rec.closure_inputs.add(("graph", _graph_key(args[0])))


def _count_phi(rec, args, result):
    rec.counts["closure.phi_partition.classes"] += len(result.classes)
    rec.closure_inputs.add(("hom", _hom_key(args[0])))


def _count_homotopy(rec, args, result):
    rec.counts["homotopy.states_explored"] += result.states_explored
    rec.counts["homotopy.witness_moves"] += len(result.moves or ())


def _count_snf(rec, args, result):
    rec.counts["snf.matrix_cells"] += result.rows * result.cols


def _count_fold(rec, args, result):
    rec.counts["homsearch.merges"] += len(result.steps)


# (owner, attribute, span name, counter hook).  Owners are modules or
# classes; for a module function every alias of the same object in any
# oddwalk module is replaced too.
TARGETS = [
    (borsuk, "sample_approximation", "borsuk.sample_approximation", _count_edges),
    (borsuk.ApproxGraph, "from_sample", "borsuk.from_sample", None),
    (borsuk.ApproxGraph, "adjacency_matrix", "borsuk.adjacency_matrix", None),
    (borsuk, "odd_girth_at_least", "borsuk.odd_girth_at_least", None),
    (borsuk, "min_degree_ratio", "borsuk.min_degree_ratio", None),
    (borsuk, "cap_measure", "borsuk.cap_measure", None),
    (borsuk, "tetrahedral_hom", "borsuk.tetrahedral_hom", None),
    (graph.Graph, "__init__", "graph.graph_build", None),
    (graph.Graph, "from_sorted_unique", "graph.graph_build", None),
    (graph, "shortest_odd_cycle", "graph.shortest_odd_cycle", None),
    (graph, "double_cover_odd_walk", "graph.double_cover_odd_walk", None),
    (graph, "has_cycle_of_length", "graph.has_cycle_of_length", _count_expansions),
    (graph, "is_bipartite", "graph.is_bipartite", None),
    (graph, "is_connected", "graph.is_connected", None),
    (graph, "bfs_layers", "graph.bfs_layers", None),
    (graph, "degeneracy_order", "graph.degeneracy_order", None),
    (graph, "greedy_coloring", "graph.greedy_coloring", None),
    (closure.GraphHom, "__post_init__", "closure.hom_validate", None),
    (closure, "c4_partition", "closure.c4_partition", _count_c4),
    (closure, "phi_partition", "closure.phi_partition", _count_phi),
    (closure.ClosurePartition, "is_stable", "closure.is_stable", None),
    (closure, "eval_invariant", "closure.eval_invariant", None),
    (closure, "find_pivot_edge", "closure.find_pivot_edge", None),
    (closure.InvariantOracle, "profile", "closure.oracle_profile", None),
    (homotopy, "are_homotopic", "homotopy.are_homotopic", _count_homotopy),
    (homotopy, "legal_moves", "homotopy.legal_moves", None),
    (homotopy, "apply_move", "homotopy.apply_move", None),
    (homotopy, "replay_moves", "homotopy.replay_moves", None),
    (homotopy, "check_simply_connected", "homotopy.check_simply_connected", None),
    (ncomplex, "build_ncomplex", "ncomplex.build_ncomplex", None),
    (ncomplex.SimplicialComplex, "edges", "ncomplex.complex_edges", None),
    (ncomplex.SimplicialComplex, "triangles", "ncomplex.complex_triangles", None),
    (ncomplex, "h1_homology", "ncomplex.h1_homology", None),
    (ncomplex, "edge_path_presentation", "ncomplex.edge_path_presentation", None),
    (ncomplex, "tietze_simplify", "ncomplex.tietze_simplify", None),
    (snf, "smith_normal_form", "snf.smith_normal_form", _count_snf),
    (coloring, "bounded_coloring_pipeline", "coloring.bounded_coloring_pipeline", None),
    (coloring, "extend_coloring", "coloring.extend_coloring", None),
    (coloring, "color_closure_subgraph", "coloring.color_closure_subgraph", None),
    (coloring, "color_ball", "coloring.color_ball", None),
    (coloring, "shortest_odd_cycle_meeting", "coloring.shortest_odd_cycle_meeting", None),
    (coloring.StableSplit, "validate", "coloring.split_validate", None),
    (coloring.PipelineTrace, "validate", "coloring.trace_validate", None),
    (homsearch, "fold_search", "homsearch.fold_search", _count_fold),
]


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.closure_inputs: set = set()  # distinct graphs and homs partitioned
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, rec = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.item]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "oddwalk" or key.startswith("oddwalk."))
        ]
        for owner, attr, name, hook in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children; summed over all names it
    partitions the time covered by top-level spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return out


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


# Per-layer metrics: (name, unit, better, source, key).  Sources: "busy" and
# "self" are span seconds, "calls" a span count, "count" a counter read from
# returned values, "builds" partitions built per distinct graph or hom
# (layer_values); "unattributed" and "overhead" are derived in run.py.
PER_LAYER = [
    ("closure.c4_partition_s", "s", "lower", "busy", "closure.c4_partition"),
    ("closure.c4_partition.calls", "count", "lower", "calls", "closure.c4_partition"),
    ("closure.c4_partition.classes", "count", "lower", "count", "closure.c4_partition.classes"),
    ("closure.builds_per_input", "builds/input", "lower", "builds", None),
    ("closure.phi_partition_s", "s", "lower", "busy", "closure.phi_partition"),
    ("closure.phi_partition.calls", "count", "lower", "calls", "closure.phi_partition"),
    ("closure.phi_partition.classes", "count", "lower", "count", "closure.phi_partition.classes"),
    ("closure.is_stable_s", "s", "lower", "busy", "closure.is_stable"),
    ("closure.eval_invariant_s", "s", "lower", "busy", "closure.eval_invariant"),
    ("closure.find_pivot_edge_s", "s", "lower", "busy", "closure.find_pivot_edge"),
    ("closure.hom_validate_s", "s", "lower", "busy", "closure.hom_validate"),
    ("graph.shortest_odd_cycle_s", "s", "lower", "busy", "graph.shortest_odd_cycle"),
    ("graph.double_cover_odd_walk.calls", "count", "lower", "calls", "graph.double_cover_odd_walk"),
    ("graph.has_cycle_of_length_s", "s", "lower", "busy", "graph.has_cycle_of_length"),
    ("graph.has_cycle_of_length.expansions", "count", "lower", "count",
     "graph.has_cycle_of_length.expansions"),
    ("graph.graph_build_s", "s", "lower", "busy", "graph.graph_build"),
    ("graph.graph_build.calls", "count", "lower", "calls", "graph.graph_build"),
    ("graph.is_bipartite_s", "s", "lower", "busy", "graph.is_bipartite"),
    ("homotopy.are_homotopic_self_s", "s", "lower", "self", "homotopy.are_homotopic"),
    ("homotopy.legal_moves_s", "s", "lower", "busy", "homotopy.legal_moves"),
    ("homotopy.states_explored", "count", "lower", "count", "homotopy.states_explored"),
    ("homotopy.witness_moves", "count", "lower", "count", "homotopy.witness_moves"),
    ("ncomplex.build_ncomplex_s", "s", "lower", "busy", "ncomplex.build_ncomplex"),
    ("ncomplex.h1_homology_self_s", "s", "lower", "self", "ncomplex.h1_homology"),
    ("ncomplex.tietze_simplify_s", "s", "lower", "busy", "ncomplex.tietze_simplify"),
    ("snf.smith_normal_form_s", "s", "lower", "busy", "snf.smith_normal_form"),
    ("snf.matrix_cells", "count", "lower", "count", "snf.matrix_cells"),
    ("borsuk.sample_approximation_s", "s", "lower", "busy", "borsuk.sample_approximation"),
    ("borsuk.sample_approximation_self_s", "s", "lower", "self", "borsuk.sample_approximation"),
    ("borsuk.from_sample_s", "s", "lower", "busy", "borsuk.from_sample"),
    ("borsuk.adjacency_matrix_s", "s", "lower", "busy", "borsuk.adjacency_matrix"),
    ("borsuk.odd_girth_at_least_s", "s", "lower", "busy", "borsuk.odd_girth_at_least"),
    ("borsuk.edges", "count", "lower", "count", "borsuk.edges"),
    ("borsuk.tetrahedral_hom_s", "s", "lower", "busy", "borsuk.tetrahedral_hom"),
    ("coloring.bounded_coloring_pipeline_self_s", "s", "lower", "self",
     "coloring.bounded_coloring_pipeline"),
    ("coloring.extend_coloring_self_s", "s", "lower", "self", "coloring.extend_coloring"),
    ("coloring.color_closure_subgraph_s", "s", "lower", "busy", "coloring.color_closure_subgraph"),
    ("coloring.trace_validate_s", "s", "lower", "busy", "coloring.trace_validate"),
    ("coloring.split_validate_s", "s", "lower", "busy", "coloring.split_validate"),
    ("homsearch.fold_search_self_s", "s", "lower", "self", "homsearch.fold_search"),
    ("homsearch.merges", "count", "higher", "count", "homsearch.merges"),
    ("bench.unattributed_s", "s", "lower", "unattributed", None),
    ("bench.trace_overhead_s", "s", "lower", "overhead", None),
]


def layer_values(rec: Recorder) -> dict:
    """Per-layer values of one traced job, keyed by metric name, without
    the unattributed and trace-overhead metrics, which run.py derives."""
    summary = summarize(rec.spans)
    builds = sum(summary.get(n, {}).get("calls", 0)
                 for n in ("closure.c4_partition", "closure.phi_partition"))
    values = {}
    for metric, _, _, source, key in PER_LAYER:
        if source in ("busy", "self", "calls"):
            field = {"busy": "busy_s", "self": "self_s", "calls": "calls"}[source]
            values[metric] = summary.get(key, {}).get(field, 0)
        elif source == "count":
            values[metric] = rec.counts.get(key, 0)
        elif source == "builds":
            values[metric] = builds / len(rec.closure_inputs) if rec.closure_inputs else 0.0
    return values

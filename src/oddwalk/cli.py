"""Command-line interface: every subcommand runs one operation or
experiment, revalidates its witnesses, and emits a JSON report.

Exit codes: 0 success, 1 hypothesis/verification failure, 2 usage error,
3 internal error (an exception that is not an OddwalkError, i.e. a bug).
Reports keep a stable field order with all timing isolated under "timing",
so fixed seeds reproduce byte-identical documents up to that block.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .borsuk import (
    cap_measure,
    min_degree_ratio,
    odd_girth_at_least,
    sample_approximation,
)
from .closure import (
    GraphHom,
    InvariantOracle,
    c4_partition,
    parse_hom,
    serialize_hom,
)
from .coloring import PRODUCT_4COLOR, bounded_coloring_pipeline
from .errors import OddwalkError, ParseError, InputError
from .graph import INFINITE, mirrored, odd_girth, parse_graph, serialize_graph
from .homotopy import (
    are_homotopic,
    check_simply_connected,
    parse_walk,
    replay_moves,
)
from .homsearch import FOUND, fold_search, hom_exists
from .ncomplex import build_ncomplex, h1_homology

SCHEMA_VERSION = 1

USAGE_ERROR = 2
FAILURE = 1
INTERNAL_ERROR = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_epsilon(text: str, r=None) -> float:
    """Accepts a float literal, "pi", "pi/<k>", or the symbolic "pi/(2r+1)"."""
    cleaned = text.strip().lower().replace(" ", "")
    if cleaned == "pi":
        return math.pi
    if cleaned == "pi/(2r+1)":
        if r is None:
            raise InputError("symbolic threshold needs --r")
        return math.pi / (2 * r + 1)
    if cleaned.startswith("pi/"):
        try:
            return math.pi / float(cleaned[3:])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad threshold {text!r}")
    try:
        return float(cleaned)
    except ValueError:
        raise InputError(f"bad threshold {text!r}")


def _int_list(text: str, option: str) -> list[int]:
    """The comma-separated integers of an option's value."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"{option} takes comma-separated integers, not {text!r}")


def _report(command: str, config: dict, results: dict, verification: dict, timing: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "verification": verification,
        "timing": timing,
    }


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if getattr(args, "json", None):
        _write(args.json, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_borsuk(args) -> tuple[int, dict]:
    if args.epsilon:
        eps = parse_epsilon(args.epsilon, args.r)
    elif args.r is not None:
        eps = math.pi / (2 * args.r + 1)
    else:
        raise InputError("need --epsilon or --r")
    t0 = time.perf_counter()
    g = sample_approximation(args.n, eps, args.N, args.seed)
    elapsed = time.perf_counter() - t0
    symmetric = mirrored(g.graph.indptr, g.graph.indices)
    if args.out:
        _write(args.out, serialize_graph(g.graph))
    if args.points:
        _write(args.points, g.dump())
    if args.crossref:
        _write(args.crossref, g.vertex_point_crossref())
    results = {
        "vertices": g.graph.n,
        "edges": g.graph.num_edges(),
        "epsilon": eps,
        "min_degree_ratio": min_degree_ratio(g.graph) if g.graph.n else None,
        "cap_measure": cap_measure(args.n, eps),
    }
    verification = {"antipodal_edge_symmetry": symmetric}
    report = _report(
        "gen-borsuk",
        {"n": args.n, "epsilon": eps, "N": args.N, "seed": args.seed},
        results,
        verification,
        {"seconds": elapsed},
    )
    return (0 if symmetric else FAILURE), report


def cmd_odd_girth(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    t0 = time.perf_counter()
    girth = odd_girth(g)
    report = _report(
        "odd-girth",
        {"graph": args.graph},
        {"odd_girth": "infinite" if girth == INFINITE else int(girth)},
        {"bipartite": girth == INFINITE},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_closure(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    t0 = time.perf_counter()
    part = c4_partition(g)
    if args.out:
        _write(args.out, part.dump())
    sizes = sorted(part.sizes.tolist(), reverse=True)
    report = _report(
        "closure",
        {"graph": args.graph},
        {"classes": len(sizes), "class_sizes": sizes},
        {"edges_covered": sum(sizes) == g.num_edges()},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_invariants(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    if args.target and args.hom:
        h = parse_graph(_read(args.target))
        phi = parse_hom(_read(args.hom), g, h)
    else:
        phi = GraphHom.identity(g)
    walk = parse_walk(g, args.walk)
    t0 = time.perf_counter()
    oracle = InvariantOracle(phi)
    plain, anchored = oracle.profile(walk.edge_multiset())
    report = _report(
        "invariants",
        {"graph": args.graph, "walk": args.walk, "hom": args.hom},
        {
            "classes": len(plain),
            "odd_classes": [i for i, bit in enumerate(plain) if bit],
            "odd_anchored": [[cid, u] for cid, u in anchored],
        },
        {"walk_length": walk.length},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_homotopy(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    p = parse_walk(g, args.p)
    q = parse_walk(g, args.q)
    t0 = time.perf_counter()
    verdict = are_homotopic(
        g, p, q, length_cap=args.length_cap, state_cap=args.state_cap
    )
    elapsed = time.perf_counter() - t0
    verification = {}
    if verdict.moves is not None:
        verification["witness_replays"] = replay_moves(p, verdict.moves) == q
        if args.out:
            _write(args.out, "\n".join(m.format() for m in verdict.moves) + "\n")
    report = _report(
        "homotopy",
        {"graph": args.graph, "p": args.p, "q": args.q},
        verdict.describe(),
        verification,
        {"seconds": elapsed},
    )
    ok = verification.get("witness_replays", True)
    return (0 if ok else FAILURE), report


def cmd_simply_connected(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    t0 = time.perf_counter()
    verdict = check_simply_connected(g, budget=args.budget)
    detail = verdict.detail
    if detail is not None and hasattr(detail, "describe"):
        detail = detail.describe()
    report = _report(
        "simply-connected",
        {"graph": args.graph, "budget": args.budget},
        {"status": verdict.status, "detail": detail},
        {},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_color_pipeline(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.g))
    h = parse_graph(_read(args.h))
    phi = parse_hom(_read(args.hom), g, h)
    cycle_walk = parse_walk(g, args.cycle)
    t0 = time.perf_counter()
    coloring, trace = bounded_coloring_pipeline(
        phi, cycle_walk, args.r, sc_certificate=args.assert_sc
    )
    elapsed = time.perf_counter() - t0
    if args.out:
        lines = [f"{v} {c}" for v, c in sorted(coloring.assignment.items())]
        _write(args.out, "\n".join(lines) + "\n")
    if args.trace:
        _write(args.trace, json.dumps(trace.describe(), indent=2) + "\n")
    proper = coloring.is_proper(g)
    within = coloring.palette_size < 8 * args.r * args.r or trace.branch == PRODUCT_4COLOR
    report = _report(
        "color-pipeline",
        {
            "g": args.g,
            "h": args.h,
            "hom": args.hom,
            "cycle": args.cycle,
            "r": args.r,
        },
        {
            "branch": trace.branch,
            "palette_size": coloring.palette_size,
            "colors_used": coloring.colors_used(),
            "pivot_edge": list(trace.pivot_edge),
        },
        {"proper": proper, "palette_below_bound": within},
        {"seconds": elapsed},
    )
    return (0 if proper and within else FAILURE), report


def cmd_ncomplex(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    t0 = time.perf_counter()
    k = build_ncomplex(g)
    if args.out:
        _write(args.out, k.dump())
    report = _report(
        "ncomplex",
        {"graph": args.graph},
        {
            "maximal_faces": len(k.maximal_faces),
            "vertices": len(k.vertices()),
            "edges": len(k.edges()),
            "triangles": len(k.triangles()),
            "components": len(k.components()),
        },
        {},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_h1(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    t0 = time.perf_counter()
    k = build_ncomplex(g)
    components = k.components()
    descriptors = [h1_homology(comp).describe() for comp in components]
    report = _report(
        "h1",
        {"graph": args.graph},
        {"components": len(components), "h1": descriptors},
        {},
        {"seconds": time.perf_counter() - t0},
    )
    return 0, report


def cmd_hom_exists(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.g))
    h = parse_graph(_read(args.h))
    result = hom_exists(g, h, node_budget=args.budget)
    if result.status == FOUND and args.out:
        _write(args.out, serialize_hom(result.hom))
    report = _report(
        "hom-exists",
        {"g": args.g, "h": args.h, "budget": args.budget},
        {"status": result.status, "nodes": result.nodes},
        {},
        {"seconds": result.seconds},
    )
    return 0, report


def cmd_fold(args) -> tuple[int, dict]:
    g = parse_graph(_read(args.graph))
    forbidden = set(_int_list(args.forbid, "--forbid"))
    t0 = time.perf_counter()
    trace = fold_search(
        g, forbidden, beam=args.beam, budget=args.budget, seed=args.seed
    )
    elapsed = time.perf_counter() - t0
    doc = trace.describe()
    if args.out:
        _write(args.out, json.dumps(doc, indent=2) + "\n")
    report = _report(
        "fold",
        {
            "graph": args.graph,
            "forbid": sorted(forbidden),
            "beam": args.beam,
            "budget": args.budget,
            "seed": args.seed,
        },
        {
            "final_vertices": trace.final_graph.n,
            "final_edges": trace.final_graph.num_edges(),
            "merges": doc["merges"],
        },
        {},
        {"seconds": elapsed},
    )
    return 0, report


def cmd_experiment_dhom(args) -> tuple[int, dict]:
    r = args.r
    eps = math.pi / (2 * r + 1)
    n_values = _int_list(args.N_list, "--N-list")
    seeds = _int_list(args.seeds, "--seeds")
    mu = cap_measure(args.n, eps)
    runs = []
    verification_ok = True
    t0 = time.perf_counter()
    for count in n_values:
        for seed in seeds:
            g = sample_approximation(args.n, eps, count, seed)
            ratio = min_degree_ratio(g.graph) if g.graph.n else 0.0
            free = odd_girth_at_least(g, 2 * r + 3)
            verification_ok = verification_ok and free
            entry = {
                "N": count,
                "seed": seed,
                "vertices": g.graph.n,
                "edges": g.graph.num_edges(),
                "min_degree_ratio": ratio,
                "ratio_over_mu": ratio / mu if mu else None,
                "short_odd_cycle_free": free,
            }
            if args.fold_budget > 0:
                trace = fold_search(
                    g.graph,
                    {2 * r + 1},
                    beam=args.beam,
                    budget=args.fold_budget,
                    seed=seed,
                )
                entry["fold_floor_vertices"] = trace.final_graph.n
            runs.append(entry)
    floors = [e["fold_floor_vertices"] for e in runs if "fold_floor_vertices" in e]
    results = {
        "mu": mu,
        "runs": runs,
        "fold_floor_min": min(floors) if floors else None,
        "fold_floor_max": max(floors) if floors else None,
    }
    report = _report(
        "experiment-dhom",
        {
            "n": args.n,
            "r": r,
            "epsilon": eps,
            "N_list": n_values,
            "seeds": seeds,
            "fold_budget": args.fold_budget,
            "beam": args.beam,
        },
        results,
        {"all_samples_short_cycle_free": verification_ok},
        {"seconds": time.perf_counter() - t0},
    )
    return (0 if verification_ok else FAILURE), report


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddwalk",
        description="discrete homotopy, closure invariants, coloring pipeline "
        "and sphere-sample experiments for graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", help="write the JSON report to this path")

    p = sub.add_parser("gen-borsuk", help="sample an antipodally closed sphere graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--epsilon", help="float, pi/<k>, or pi/(2r+1)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="edge-list output path")
    p.add_argument("--points", help="point dump output path")
    p.add_argument("--crossref", help="vertex-to-point cross reference path")
    common(p)
    p.set_defaults(func=cmd_gen_borsuk)

    p = sub.add_parser("odd-girth", help="shortest odd cycle length")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=cmd_odd_girth)

    p = sub.add_parser("closure", help="4-cycle closure classes of the edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="partition dump path")
    common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("invariants", help="closure-class parities of a walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", help="target graph (with --hom)")
    p.add_argument("--hom", help="homomorphism file")
    p.add_argument("--walk", required=True)
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("homotopy", help="decide walk homotopy within caps")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--length-cap", type=int, dest="length_cap")
    p.add_argument("--state-cap", type=int, dest="state_cap", default=10**6)
    p.add_argument("--out", help="move log output path")
    common(p)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("simply-connected", help="certify trivial even walk classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=10**5)
    common(p)
    p.set_defaults(func=cmd_simply_connected)

    p = sub.add_parser("color-pipeline", help="run the bounded coloring pipeline")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--assert-sc", action="store_true", dest="assert_sc")
    p.add_argument("--out", help="coloring output path")
    p.add_argument("--trace", help="trace JSON output path")
    common(p)
    p.set_defaults(func=cmd_color_pipeline)

    p = sub.add_parser("ncomplex", help="common-neighbor complex of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="complex dump path")
    common(p)
    p.set_defaults(func=cmd_ncomplex)

    p = sub.add_parser("h1", help="first homology of the neighbor complex")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("hom-exists", help="search for a graph homomorphism")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--out", help="homomorphism output path")
    common(p)
    p.set_defaults(func=cmd_hom_exists)

    p = sub.add_parser("fold", help="search for a small admissible quotient")
    p.add_argument("--graph", required=True)
    p.add_argument("--forbid", required=True, help="comma-separated odd lengths")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="fold trace JSON path")
    common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser(
        "experiment-dhom", help="degree-ratio and fold-floor experiment table"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument(
        "--fold-budget", dest="fold_budget", type=int, default=20_000,
        help="merge-search budget per run; 0 skips the quotient floors",
    )
    p.add_argument("--beam", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_experiment_dhom)

    return parser


def run_cli(argv) -> tuple[int, dict]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (USAGE_ERROR if exc.code not in (0, None) else 0), {}
    try:
        code, report = args.func(args)
    except (ParseError, InputError) as exc:
        return _fail(USAGE_ERROR, "usage error", str(exc), type(exc).__name__, args)
    except OddwalkError as exc:
        return _fail(FAILURE, "failure", str(exc), type(exc).__name__, args)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return _fail(INTERNAL_ERROR, "internal error", message, "InternalError", args)
    _emit(report, args)
    return code, report


def _fail(code: int, label: str, message: str, kind: str, args) -> tuple[int, dict]:
    """Report a failed command on stderr and as a JSON report where the
    command's report would have gone; the exit code stays `code` even when
    that report cannot be written."""
    sys.stderr.write(f"{label}: {message}\n")
    report = {"error": message, "kind": kind}
    try:
        _emit(report, args)
    except OSError as exc:
        sys.stderr.write(f"cannot write the failure report: {exc}\n")
    return code, report


def main() -> int:
    return run_cli(sys.argv[1:])[0]


if __name__ == "__main__":
    sys.exit(main())

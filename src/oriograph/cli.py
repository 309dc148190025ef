"""Command-line front end.

Subcommands mirror the library modules: generate named families, run
embedding and tiling searches on .dg files, produce lattice and vertex
statistic reports, drive the enumeration/sampling probes, and replay the
built-in claim checklist.

Every command returns its outcome, a document and the lines of its
human-readable report; main prints the document under --json (one JSON
document, sorted keys) or else the lines, and reads the exit code from
EXIT by outcome: 0 "found" (a copy, a tiling, a verified claim, or a
report), 1 "refuted" (a proof that there is none, or a failed check)
and 3 "inconclusive" (a search gave up on its node budget, or
`analyze --stats extremal` found no partition by local search, a
heuristic miss; when no part sizes fit the window, it refutes without a
search).  The probes answer with their report's "outcome", and
verify-paper with verify.run_checks' answer, the worst of its checks.
Exits 2 and 4 come only from main's handlers: 2 for a usage or I/O
error or a resource cap hit, 4 for any other exception, a fault of the
program, whose traceback goes to stderr.  Inputs are checked where they
are read, before any search, so a --parts file that does not cover
exactly the host's vertices 0..n-1 exits 2 whatever the budget and the
orders.  `lattice --target` refutes only at --threshold 1, where the
lattice is built from every copy vector.  Logs go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import analysis, embed, generators, lattice, search, tiling, verify
from .core import (
    read_graph,
    read_partition,
    serialize,
    serialize_partition,
    write_graph,
    write_partition,
)
from .errors import BudgetExceededError, ResourceLimitError
from .tiling import answer

log = logging.getLogger("oriograph")


# the exit code of each outcome: a copy or tiling found, a proof there is
# none, or a budget that ran out; 2 and 4 come only from main's handlers
EXIT = {"found": 0, "refuted": 1, "inconclusive": 3}


def _table(rows, header):
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    return ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in [header, *rows]]


# generate

def _t_sk(s, k):
    w = generators.t_sk(int(s), int(k))
    return w.graph, w.partition


# family -> (parameter names, builder of a graph or a (graph, partition) pair)
GENERATE = {
    "transitive": ("n", lambda n: generators.transitive(int(n))),
    "cycle-power": ("k ell", lambda k, ell: generators.cycle_power(int(k), int(ell))),
    "d-abc": ("a b c", lambda a, b, c: generators.d_abc(int(a), int(b), int(c))),
    "f-r": ("r", lambda r: generators.f_r(int(r))),
    "s": ("", generators.graph_s),
    "rotational": ("n r1,r2,...", lambda n, rs: generators.rotational(int(n), [int(x) for x in rs.split(",") if x])),
    "blow-up": ("base.dg t", lambda base, t: generators.blow_up(read_graph(base), int(t))),
    "t-sk": ("s k", _t_sk),
    "c3-barrier": ("n", lambda n: generators.c3_barrier(int(n))),
}


def cmd_generate(args):
    names, build = GENERATE[args.family]
    if len(args.params) != len(names.split()):
        raise ValueError(f"family {args.family!r} takes parameters: {names or '(none)'}")
    built = build(*args.params)
    graph, partition = built if isinstance(built, tuple) else (built, None)
    if args.output:
        sidecar = os.path.splitext(args.output)[0] + ".parts"
        if partition is not None and sidecar == args.output:
            raise ValueError(f"{args.output} would be overwritten by its .parts sidecar")
        write_graph(args.output, graph)
        doc = {"written": args.output}
        if partition is not None:
            write_partition(sidecar, partition)
            doc["parts"] = sidecar
        log.info("wrote %s (n=%d, m=%d)", args.output, graph.n, graph.edge_count)
        return "found", doc, []
    doc = {"dg": serialize(graph)}
    if partition is not None:
        doc["parts"] = serialize_partition(partition)
    return "found", doc, doc["dg"].splitlines()


def _read_parts(args, host):
    """The --parts partition, or None; refused before any search unless it
    covers exactly the host's vertices."""
    if not args.parts:
        return None
    partition = read_partition(args.parts)
    partition.check_covers(host.n)
    return partition


# embed

def cmd_embed(args):
    if args.count and args.parts:
        raise ValueError("--parts is not read with --count")
    pattern = read_graph(args.pattern)
    host = read_graph(args.host)
    partition = _read_parts(args, host)
    if args.vectors:
        if partition is None:
            raise ValueError("--vectors needs --parts")
        hyper = tiling.copy_hypergraph(pattern, host, budget=args.budget)
        vecs = sorted(lattice.edge_vectors(hyper, partition).vectors)
        lines = [",".join(map(str, v)) for v in vecs]
        return answer(vecs), {"index_vectors": [list(v) for v in vecs]}, lines
    if args.count:
        n = embed.count_embeddings(pattern, host, budget=args.budget)
        return answer(n), {"count": n}, [str(n)]
    emb = embed.find_embedding(pattern, host, budget=args.budget)
    if emb is None:
        return "refuted", {"found": False}, ["not found"]
    doc = {"found": True, "mapping": list(emb.mapping)}
    if partition is not None:
        doc["index_vector"] = list(emb.index_vector(partition))
    return "found", doc, [" ".join(map(str, emb.mapping))]


# tile

def cmd_tile(args):
    pattern = read_graph(args.pattern)
    host = read_graph(args.host)
    partition = _read_parts(args, host)
    result = tiling.perfect_tiling(pattern, host, partition=partition, budget=args.budget)
    doc = {"mode": result.mode}
    lines = [result.mode]
    if result.tiling is not None:
        doc["copies"] = [sorted(c) for c in result.tiling.copies]
        lines += [" ".join(map(str, copy)) for copy in doc["copies"]]
    if result.note:
        doc["note"] = result.note
    if args.certificate:
        with open(args.certificate, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        log.info("certificate written to %s", args.certificate)
    return tiling.OUTCOME[result.mode], doc, lines


# lattice

def cmd_lattice(args):
    host = read_graph(args.host)
    partition = _read_parts(args, host)
    pattern = read_graph(args.pattern)
    hyper = tiling.copy_hypergraph(pattern, host, budget=args.budget)
    report = lattice.edge_vectors(hyper, partition, threshold=args.threshold)
    transferrals = lattice.find_2_transferrals(report)
    modulus = pattern.n if args.mod is None else args.mod
    lat = lattice.residue_lattice(report.robust, modulus, partition.d)
    doc = {
        "copies": len(hyper.edges),
        "vectors": {
            ",".join(map(str, v)): c for v, c in sorted(report.counts)
        },
        "threshold": args.threshold,
        "implied_mu_hat": args.threshold / host.n ** pattern.n,
        "robust_vectors": sorted(map(list, report.robust)),
        "two_transferrals": [
            {"i": i, "j": j, "from": list(a), "to": list(b)}
            for i, j, a, b in transferrals
        ],
        "modulus": modulus,
        "lattice_size": lat.size,
    }
    lines = [
        f"copies: {doc['copies']}",
        *_table(list(doc["vectors"].items()), ("vector", "count")),
        f"robust at threshold {args.threshold}: {doc['robust_vectors']}",
        f"2-transferrals: {len(transferrals)}",
        f"residue lattice mod {modulus}: {doc['lattice_size']} classes",
    ]
    if not args.target:
        return "found", doc, lines
    target = tuple(int(x) for x in args.target.split(","))
    if len(target) != partition.d:
        raise ValueError(f"--target needs {partition.d} comma-separated entries")
    verdict = target in lat
    doc["target"] = list(target)
    doc["target_in_lattice"] = verdict
    lines.append(f"target {doc['target']} is {'inside' if verdict else 'OUTSIDE'} the lattice")
    # Above threshold 1 the lattice comes from a subset of the copy
    # vectors, so a target outside it is no refutation.
    return ("refuted" if not verdict and args.threshold == 1 else "found"), doc, lines


# analyze

def cmd_analyze(args):
    if args.stats != "extremal" and (args.parts or args.seed is not None or args.gamma is not None):
        raise ValueError("--parts, --seed and --gamma are read only with --stats extremal")
    if args.parts and args.seed is not None:
        raise ValueError("--seed is read only without --parts: a given partition is not searched for")
    host = read_graph(args.host)
    partition = _read_parts(args, host)
    if args.stats == "extremal":
        gamma = args.gamma if args.gamma is not None else 0.05
        seed = args.seed if args.seed is not None else "0"
        if partition is None:
            if not analysis.extremal_sizes_fit(host.n, gamma):
                # no three part sizes fit the window: a refutation, with no search
                doc = {"gamma": gamma, "extremal": False, "note": "refuted: no part sizes fit the window"}
                return "refuted", doc, [f"extremal at gamma={gamma}: False (no part sizes fit the window)"]
            partition = analysis.find_extremal_partition(host, gamma, seed=seed)
        if partition is None:
            # a local-search miss rules no partition out
            doc = {"gamma": gamma, "extremal": None, "note": "inconclusive: local search found no partition"}
            return "inconclusive", doc, [f"extremal at gamma={gamma}: inconclusive (local search found no partition)"]
        verdict = analysis.extremal_check(host, partition, gamma)
        doc = {
            "gamma": gamma,
            "extremal": verdict.ok,
            "sizes": list(verdict.sizes),
            "reverse_counts": list(verdict.reverse_counts),
            "parts": serialize_partition(partition),
        }
        lines = [
            f"extremal at gamma={gamma}: {verdict.ok}",
            f"part sizes {list(verdict.sizes)}",
            f"reverse class counts {list(verdict.reverse_counts)}",
        ]
        return answer(verdict.ok), doc, lines
    cls = host.classify()
    lo, hi = analysis.cyclic_edge_window(host)
    floor = analysis.d_copies_floor(host)
    counts = analysis.d_copy_counts(host)
    rows = []
    for v in range(host.n):
        rows.append(
            (
                v,
                host.out_degree(v),
                host.in_degree(v),
                analysis.cyclic_edge_stat(host, v),
                counts[v],
            )
        )
    doc = {
        "n": host.n,
        "edges": host.edge_count,
        "tournament": cls.is_tournament,
        "semi_regular": cls.is_semi_regular,
        "min_semi_degree": cls.min_semi_degree,
        "cyclic_edge_window": [float(lo), float(hi)],
        "d_copies_floor": float(floor),
        "vertices": [
            {
                "v": v,
                "out": o,
                "in": i,
                "cyclic_edges": ce,
                "d_copies": dc,
            }
            for v, o, i, ce, dc in rows
        ],
    }
    kind = "tournament" if cls.is_tournament else "oriented graph"
    lines = [
        f"{kind} on {host.n} vertices, {host.edge_count} edges",
        f"min semi-degree {cls.min_semi_degree}, semi-regular: {cls.is_semi_regular}",
        f"cyclic edge window [{float(lo):g}, {float(hi):g}], copy floor {float(floor):g}",
        *_table(rows, ("v", "out", "in", "cyclic", "copies")),
    ]
    return "found", doc, lines


# search

def _parse_sizes(text):
    sizes = [int(x) for x in text.split(",") if x]
    if not sizes:
        raise ValueError(f"--n lists no size: {text!r}")
    return sizes


def cmd_enumerate_rt(args):
    reps = search.enumerate_regular_tournaments(args.n)
    doc = {
        "n": args.n,
        "classes": len(reps),
        "graphs": [serialize(g) for g in reps],
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for i, g in enumerate(reps):
            write_graph(os.path.join(args.out_dir, f"rt{args.n}-{i}.dg"), g)
        doc["written"] = args.out_dir
    return "found", doc, [f"{len(reps)} isomorphism classes of regular tournaments on {args.n} vertices"]


def cmd_probe(args):
    if args.mode == "exhaustive" and (args.samples is not None or args.seed is not None):
        raise ValueError("--samples and --seed are read only with --mode sample")
    pattern = read_graph(args.pattern)
    report = search.turanability_probe(
        pattern,
        sizes=_parse_sizes(args.n),
        mode=args.mode,
        samples=args.samples if args.samples is not None else 20,
        seed=args.seed if args.seed is not None else "0",
        budget=args.budget,
    )
    lines = [
        f"n={entry['n']}: {entry['containing']}/{entry['population']} hosts contain the pattern"
        for entry in report["per_n"]
    ]
    return report["outcome"], report, [*lines, report["note"]]


def cmd_tile_probe(args):
    pattern = read_graph(args.pattern)
    report = search.tileability_probe(
        pattern,
        sizes=_parse_sizes(args.n),
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
    )
    lines = [
        f"n={entry['n']}: skipped ({entry['skipped']})" if "skipped" in entry
        else f"n={entry['n']}: {entry['tiled']}/{entry['samples']} samples tiled"
        for entry in report["per_n"]
    ]
    return report["outcome"], report, [*lines, report["note"]]


# verify-paper

def cmd_verify_paper(args):
    def timing(name, seconds):
        print(f"{name} {seconds:.3f}", file=sys.stderr)

    outcome, report = verify.run_checks(args.profile, on_timing=timing if args.timings else None)
    lines = []
    for check in report["checks"]:
        status = check["status"]
        if status == verify.STATUS["inconclusive"]:
            status += "(budget)"
        lines.append(f"{status:20s} {check['name']}")
    s = report["summary"]
    lines.append(f"{s['pass']} pass, {s['fail']} fail, {s['inconclusive']} inconclusive")
    return outcome, report, lines


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser():
    # each subcommand takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a single JSON document on stdout")
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=_non_negative_int, default=None, help="search node budget")

    parser = argparse.ArgumentParser(
        prog="oriograph",
        description="oriented-graph construction, embedding, tiling and lattice toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a named family to a .dg file")
    p.add_argument("family", choices=sorted(GENERATE))
    p.add_argument("params", nargs="*", help="family parameters, see docs")
    p.add_argument("-o", "--output", help="output .dg path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "embed", parents=[common, budgeted], help="search for one pattern copy in a host"
    )
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--parts", help="host partition sidecar")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="count embeddings instead")
    group.add_argument("--vectors", action="store_true", help="list index vectors of all copies")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("tile", parents=[common, budgeted], help="search for a perfect tiling")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument(
        "--parts", help="host partition sidecar, enables the quotient bound, then the lattice pre-check"
    )
    p.add_argument("--certificate", help="write the result JSON here as well")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser(
        "lattice", parents=[common, budgeted], help="edge-vector and residue-lattice report"
    )
    p.add_argument("--host", required=True)
    p.add_argument("--parts", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mod", type=_positive_int, default=None, help="lattice modulus (default pattern order)")
    p.add_argument(
        "--target",
        help="comma-separated index vector to test for membership; "
        "one that starts with a minus sign is written --target=-1,5,2",
    )
    p.add_argument("--threshold", type=int, default=1, help="robustness count threshold")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("analyze", parents=[common], help="vertex statistics or extremal structure")
    p.add_argument("--host", required=True)
    # read only by --stats extremal; default None so that other stats can reject them
    p.add_argument("--parts", help="candidate partition for the extremal check")
    p.add_argument("--seed", default=None, help="seed for the extremal partition search")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--stats", choices=["vertex", "extremal"], default="vertex")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="enumeration and sampling probes")
    ssub = p.add_subparsers(dest="search_cmd", required=True)
    q = ssub.add_parser("enumerate-rt", parents=[common], help="regular tournaments up to isomorphism")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out-dir", help="also write each class as a .dg file")
    q.set_defaults(func=cmd_enumerate_rt)
    q = ssub.add_parser(
        "probe", parents=[common, budgeted], help="pattern containment over tournament corpora"
    )
    q.add_argument("--pattern", required=True)
    q.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    q.add_argument("--n", required=True, help="comma-separated odd host orders")
    # read only by --mode sample; default None so that exhaustive mode can reject them
    q.add_argument("--samples", type=_positive_int, default=None, help="hosts per order (default 20)")
    q.add_argument("--seed", default=None, help="seed for the sampled hosts (default 0)")
    q.set_defaults(func=cmd_probe)
    q = ssub.add_parser(
        "tile-probe", parents=[common, budgeted], help="perfect-tiling evidence over samples"
    )
    q.add_argument("--pattern", required=True)
    q.add_argument("--seed", default="0", help="seed for the sampled hosts")
    q.add_argument(
        "--n", required=True,
        help="comma-separated host orders, at least one divisible by the pattern order",
    )
    q.add_argument("--samples", type=_positive_int, default=20)
    q.set_defaults(func=cmd_tile_probe)

    p = sub.add_parser("verify-paper", parents=[common], help="replay the built-in claim checklist")
    p.add_argument("--profile", choices=sorted(verify.PROFILES), default="full")
    p.add_argument(
        "--timings", action="store_true", help="write one 'name seconds' line per check to stderr"
    )
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        outcome, doc, lines = args.func(args)
        code = EXIT[outcome]
        if args.json:
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        return code
    except BudgetExceededError as exc:
        log.error("search budget of %s nodes exhausted", exc.budget)
        return EXIT["inconclusive"]
    except (OSError, ValueError, ResourceLimitError) as exc:
        log.error("%s", exc)
        return 2
    except Exception:
        # a fault of the program; exit 1 stays a command's own refutation
        log.exception("internal error")
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Benchmark for the oriograph package: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload sampled-hosts --seed 1 --seconds 40 --trace 0

The package is imported from ./src in this process; nothing is installed
or spawned.  The run sets up several times (import plus fixed inputs)
and reports the median.  With --trace 0 it then runs whole rounds of
checked items for about --seconds, and the last line of stdout is a JSON
object holding the end-to-end metrics.  With --trace 1 it runs the
workload's fixed number of rounds instead, each item once untraced and
once traced; the last line holds the per-layer metrics and the tracing
overhead, and the spans are written to perfbench/out/.  Exit code 2
means the package or an argument is missing.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracer import NULL_TRACER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "oriograph"
OUT_DIR = ROOT / "perfbench" / "out"
MODULES = ("core", "generators", "embed", "tiling", "lattice", "analysis", "search")
SETUP_REPEATS = 9


def import_package():
    """Import the package afresh, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "oriograph" or m.startswith("oriograph.")]:
        del sys.modules[name]
    package = importlib.import_module("oriograph")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ImportError(f"imported oriograph from {package.__file__}, not {PACKAGE_DIR}")
    return SimpleNamespace(**{m: importlib.import_module(f"oriograph.{m}") for m in MODULES})


def set_up(workload):
    start = time.perf_counter()
    pkg = import_package()
    fixed = workload.build(pkg)
    return time.perf_counter() - start, pkg, fixed


class Tally:
    """The timed durations of items that returned, and the counts of
    items attempted and failed."""

    def __init__(self):
        self.durations = []
        self.attempted = self.failed = 0

    @property
    def timed_s(self):
        return math.fsum(self.durations)


def run_item(item, tally, tracer=NULL_TRACER):
    """Run one item and check its output.  Only item.work() is timed."""
    tally.attempted += 1
    tracer.item = tally.attempted
    tracer.open("bench.item")
    try:
        t0 = time.perf_counter()
        out = item.work()
        tally.durations.append(time.perf_counter() - t0)
    except Exception:
        tally.failed += 1
        print(f"FAILED {item.label}: raised", file=sys.stderr)
        traceback.print_exc()
        return
    finally:
        tracer.close()
    tracer.open("bench.check")
    try:
        problem = item.check(out)
    except Exception as exc:
        problem = f"check raised {exc!r}"
    finally:
        tracer.close()
    if problem:
        tally.failed += 1
        print(f"FAILED {item.label}: {problem}", file=sys.stderr)


def run_for(rounds, budget_s):
    """Run whole rounds while the next one is expected to end within
    budget_s (always at least one).  Returns the tally and the rounds run."""
    tally = Tally()
    done = 0
    start = time.perf_counter()
    for items in rounds:
        round_start = time.perf_counter()
        for item in items:
            run_item(item, tally)
        done += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > budget_s:
            break
    return tally, done


def run_interleaved(rounds, count, tracer):
    """Run every item of `count` rounds twice, once untraced and once with
    the tracer attached, alternating which side goes first.  The machine's
    speed drift then falls on both sides alike, and the difference of
    their sums is the tracing overhead.  Returns (untraced, traced)."""
    untraced, traced = Tally(), Tally()

    def run_traced(item):
        tracer.attach()
        try:
            run_item(item, traced, tracer)
        finally:
            tracer.detach()

    items = itertools.chain.from_iterable(itertools.islice(rounds, count))
    for k, item in enumerate(items):
        sides = [lambda: run_item(item, untraced), lambda: run_traced(item)]
        if k % 2:
            sides.reverse()
        for side in sides:
            side()
    return untraced, traced


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and how many values lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# --- tracing -----------------------------------------------------------------

def _found(args, kwargs, result):
    return (("found", result is not None),)


def _copies(args, kwargs, result):
    return (("copies", len(result.edges)),)


def _lattice(args, kwargs, result):
    return (("refutes", bool(result.refutes)), ("members", len(result.lattice)))


def _classes(args, kwargs, result):
    return (("classes", len(result)),)


def _four_sets(args, kwargs, result):
    return (("four_sets", math.comb(args[0].n, 4)),)


def _moves(sampler):
    default = inspect.signature(sampler).parameters["moves_per_pair"].default

    def count(args, kwargs, result):
        return (("moves", kwargs.get("moves_per_pair", default) * args[0] ** 2),)

    return count


def traced_layers(pkg):
    """(module, attribute, span name, counter) for every layer measured."""
    return [
        (pkg.search, "random_semi_regular", "search.random_semi_regular",
         _moves(pkg.search.random_semi_regular)),
        (pkg.analysis, "d_copy_counts", "analysis.d_copy_counts", _four_sets),
        (pkg.analysis, "cyclic_edge_stat", "analysis.cyclic_edge_stat", None),
        (pkg.embed, "find_embedding", "embed.find_embedding", _found),
        (pkg.tiling, "perfect_tiling", "tiling.perfect_tiling", None),
        (pkg.tiling, "copy_hypergraph", "tiling.copy_hypergraph", _copies),
        (pkg.tiling, "hypergraph_perfect_matching", "tiling.hypergraph_perfect_matching",
         _found),
        (pkg.tiling, "verify_tiling", "tiling.verify_tiling", None),
        (pkg.lattice, "tiling_lattice_precheck", "lattice.tiling_lattice_precheck", _lattice),
        (pkg.search, "canonical_form", "search.canonical_form", None),
        (pkg.search, "enumerate_regular_tournaments", "search.enumerate_regular_tournaments",
         _classes),
        # enumeration's isomorphism test between equal-order tournaments
        (pkg.search, "find_embedding", "search.iso_check", _found),
    ] + [
        (pkg.generators, attr, "generators", None)
        for attr, fn in sorted(vars(pkg.generators).items())
        if inspect.isfunction(fn) and fn.__module__ == pkg.generators.__name__
        and not attr.startswith("_")
    ]


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics: (name, value, unit, label), label being
    "observed", "computed" or "timed"."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    rows = []

    def timing(name, with_calls=True):
        rows.append((f"{name}.self_s", s[name], "s", "timed"))
        if with_calls:
            rows.append((f"{name}.calls", calls[name], "count", "observed"))

    def count(name, key, label="observed"):
        rows.append((f"{name}.{key}", counts[f"{name}.{key}"], "count", label))

    def share(name, key, metric):
        value = counts[f"{name}.{key}"] / calls[name] if calls[name] else 0.0
        rows.append((f"{name}.{metric}", value, "ratio", "observed"))

    timing("search.random_semi_regular")
    count("search.random_semi_regular", "moves", "computed")
    timing("analysis.d_copy_counts")
    count("analysis.d_copy_counts", "four_sets", "computed")
    timing("analysis.cyclic_edge_stat")
    timing("embed.find_embedding")
    count("embed.find_embedding", "found")
    timing("tiling.copy_hypergraph")
    count("tiling.copy_hypergraph", "copies")
    timing("tiling.hypergraph_perfect_matching")
    share("tiling.hypergraph_perfect_matching", "found", "found_ratio")
    timing("tiling.verify_tiling", with_calls=False)
    timing("lattice.tiling_lattice_precheck")
    share("lattice.tiling_lattice_precheck", "refutes", "refute_ratio")
    count("lattice.tiling_lattice_precheck", "members")
    timing("tiling.perfect_tiling", with_calls=False)
    timing("search.canonical_form")
    timing("search.enumerate_regular_tournaments")
    count("search.enumerate_regular_tournaments", "classes")
    timing("search.iso_check")
    share("search.iso_check", "found", "hit_ratio")
    timing("generators", with_calls=False)
    overhead = traced.timed_s - untraced.timed_s
    rows += [
        ("trace.phase_s", traced.timed_s, "s", "timed"),
        ("trace.untraced_phase_s", untraced.timed_s, "s", "timed"),
        ("trace.overhead_s", overhead, "s", "timed"),
        ("trace.overhead_ratio", overhead / untraced.timed_s, "ratio", "timed"),
        # time inside items that no layer span covers: the benchmark's
        # own glue plus the wrappers' cost outside their spans
        ("trace.unattributed_s", s["bench.item"], "s", "timed"),
    ]
    return rows


# --- main --------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: package sources not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    workload = WORKLOADS[args.workload]

    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))

    setups = [set_up(workload) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(t for t, _, _ in setups)
    _, pkg, fixed = setups[-1]
    del setups

    if args.trace:
        tracer = Tracer()
        for module, attr, name, count in traced_layers(pkg):
            tracer.wrap(module, attr, name, count)
        tracer.attach()
        try:
            tracer.open("bench.setup")
            fixed = workload.build(pkg)
            tracer.close()
        finally:
            tracer.detach()
        untraced, traced = run_interleaved(
            workload.rounds(pkg, fixed, args.seed), workload.trace_rounds, tracer
        )
        rows = layer_metrics(tracer, traced, untraced)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path, {**env, "metrics": {n: [v, u, lab] for n, v, u, lab in rows}})
        print(f"rounds {workload.trace_rounds}, each item run untraced and traced; "
              f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        run, rounds = run_for(workload.rounds(pkg, fixed, args.seed), args.seconds)
        attempted, failed = run.attempted, run.failed
        durations = sorted(run.durations)
        tail_ms, beyond = nearest_rank(durations, workload.tail_pct)
        passed = attempted - failed
        rows = [
            ("items_per_s", passed / run.timed_s, "1/s", "timed"),
            ("item_p50_ms", statistics.median(durations) * 1000, "ms", "timed"),
            ("item_tail_ms", tail_ms * 1000, "ms", "timed"),
            ("setup_s", setup_s, "s", "timed"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
             "observed"),
        ]
        print(f"rounds {rounds}, items {len(durations)} timed in {run.timed_s:.3f} s; "
              f"item_tail_ms is p{workload.tail_pct} with {beyond} items beyond it")

    print(f"attempted {attempted}, failed {failed}, failed_ratio {failed / max(attempted, 1)}")
    for name, value, unit, label in rows:
        print(f"  {name:52s} {value:>16.6g} {unit:6s} {label}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

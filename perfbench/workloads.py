"""The benchmark's three workloads.

Each workload is a closed loop over rounds of items, one item at a time.
A round holds a fixed mix of items, so whole rounds give every run the
same mix and put the median and the tail percentile inside one kind of
item instead of on the edge between two.  Inputs come only from the
workload seed; preparing them (drawing sizes, relabelling hosts) happens
outside the timed work of each item.

`build(pkg)` makes the fixed inputs (the generators calls and patterns)
and is timed as set-up.  `rounds(pkg, fixed, seed)` yields lists of
`Item`s forever.  A traced run takes `trace_rounds` of them, a fixed
number, so the same code always gives the same work counts.  An item's `work()` calls into the package through
module attributes, so the tracer's wrappers see every call; `check(out)`
returns None or the reason the output is wrong.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from checks import (
    canonical_pair_problem,
    embedding_problem,
    regular_classes_problem,
    semi_regular_problem,
    statistic_window_problem,
    strong_four_factor_problem,
)


class Item(NamedTuple):
    label: str
    work: Callable[[], object]
    check: Callable[[object], str | None]


def random_tournament(pkg, rng, n):
    edges = [
        (i, j) if rng.random() < 0.5 else (j, i) for i in range(n) for j in range(i + 1, n)
    ]
    return pkg.core.OrientedGraph(n, edges)


def relabel(pkg, graph, partition, perm):
    """The graph (and partition) with vertex v renamed perm[v]."""
    host = pkg.core.OrientedGraph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])
    if partition is None:
        return host, None
    return host, pkg.core.Partition([[perm[v] for v in part] for part in partition.parts])


class SampledHosts:
    """The sampler-heavy workload: the traffic of `search probe --mode
    sample` and of verify's sampled-corpus checks."""

    name = "sampled-hosts"
    sizes = tuple(range(9, 32))
    tail_pct = 85  # lands inside the n = 28 items of every round
    trace_rounds = 4

    def build(self, pkg):
        return {"s": pkg.generators.graph_s()}

    def rounds(self, pkg, fixed, seed):
        rng = random.Random(f"{self.name}:{seed}")
        s = fixed["s"]
        index = 0
        while True:
            sizes = list(self.sizes)
            rng.shuffle(sizes)
            batch = []
            for n in sizes:
                batch.append(self._item(pkg, s, n, f"{seed}:{index}"))
                index += 1
            yield batch

    @staticmethod
    def _item(pkg, s, n, walk_seed):
        def work():
            host = pkg.search.random_semi_regular(n, seed=walk_seed)
            emb = pkg.embed.find_embedding(s, host)
            cyclic = [pkg.analysis.cyclic_edge_stat(host, v) for v in range(host.n)]
            return host, emb, cyclic, pkg.analysis.d_copy_counts(host)

        def check(out):
            host, emb, cyclic, d_counts = out
            if host.n != n:
                return f"host has {host.n} vertices, asked for {n}"
            return (
                semi_regular_problem(host)
                or embedding_problem(s, host, emb)
                or statistic_window_problem(host, cyclic, d_counts)
            )

        return Item(f"n={n} seed={walk_seed}", work, check)


class BarrierTiling:
    """The search-kernel workload: `tile` traffic on the paper's barrier
    families, plus D-factors of semi-regular hosts."""

    name = "barrier-tiling"
    # A round runs c3_barrier(10) three times and D on n=16 twice, every
    # other instance once (15 items).  That gives the median a plateau of
    # ~10 ms items spanning ranks 27%-60%, so run-to-run noise in the item
    # times cannot push it onto the 5 ms or 25 ms kinds next to it; p97
    # falls inside the top 13%, the 200-300 ms items t_sk(2,3) and D on n=32.
    tail_pct = 97
    trace_rounds = 24

    def build(self, pkg):
        gen = pkg.generators
        c3 = gen.cycle_power(3, 1)
        d = gen.d_abc(1, 1, 2)[0]
        instances = []  # (label, pattern, host, partition, expected verdict, per round)
        for s, k in ((2, 1), (3, 1), (2, 3)):
            w = gen.t_sk(s, k)
            instances.append((f"t_sk({s},{k})", gen.d_abc(s, s, s)[0], w.graph, w.partition,
                              "refuted-lattice", 1))
        for n in (4, 6, 8, 10):
            host, parts = gen.c3_barrier(n)
            instances.append((f"c3_barrier({n})", c3, host, parts, "refuted-lattice",
                              3 if n == 10 else 1))
        instances.append(("t_sk(3,1) vs D_3", gen.d_abc(3, 3, 3)[0], gen.t_sk(3, 1).graph, None,
                          "refuted-exhaustive", 1))
        instances.append(("c3_barrier(5) vs C3", c3, gen.c3_barrier(5)[0], None,
                          "refuted-exhaustive", 1))
        for m in (16, 24, 32):
            instances.append((f"D on semi_regular({m})", d, gen.semi_regular_tournament(m), None,
                              "found", 2 if m == 16 else 1))
        return {"instances": instances}

    def rounds(self, pkg, fixed, seed):
        rng = random.Random(f"{self.name}:{seed}")
        plan = [inst[:5] for inst in fixed["instances"] for _ in range(inst[5])]
        while True:
            order = list(plan)
            rng.shuffle(order)
            batch = []
            for label, pattern, graph, partition, expected in order:
                perm = list(range(graph.n))
                rng.shuffle(perm)
                host, parts = relabel(pkg, graph, partition, perm)
                batch.append(self._item(pkg, label, pattern, host, parts, expected))
            yield batch

    @staticmethod
    def _item(pkg, label, pattern, host, parts, expected):
        def work():
            return pkg.tiling.perfect_tiling(pattern, host, partition=parts)

        def check(result):
            if result.mode != expected:
                return f"{label}: mode {result.mode}, expected {expected}"
            if expected == "found":
                return strong_four_factor_problem(host, result.tiling)
            if result.tiling is not None:
                return f"{label}: a refutation carries a tiling"
            return None

        return Item(label, work, check)


class RegularClasses:
    """The canonical-form and isomorphism workload: the traffic of `search
    enumerate-rt` and of `search probe --mode exhaustive`."""

    name = "regular-classes"
    enumerated = (5, 7)
    canonical_sizes = (7, 8, 9)
    per_size = 6
    tail_pct = 97  # lands inside the enumerate(7) items, 1 in 20 per round
    trace_rounds = 20

    def build(self, pkg):
        return {"s": pkg.generators.graph_s()}

    def rounds(self, pkg, fixed, seed):
        rng = random.Random(f"{self.name}:{seed}")
        s = fixed["s"]
        while True:
            kinds = list(self.enumerated) + [
                -n for n in self.canonical_sizes for _ in range(self.per_size)
            ]
            rng.shuffle(kinds)
            batch = []
            for kind in kinds:
                if kind > 0:
                    batch.append(self._enumeration(pkg, s, kind))
                else:
                    g = random_tournament(pkg, rng, -kind)
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    batch.append(self._canonical(pkg, g, relabel(pkg, g, None, perm)[0]))
            yield batch

    @staticmethod
    def _enumeration(pkg, s, n):
        def work():
            reps = pkg.search.enumerate_regular_tournaments(n)
            return reps, [pkg.embed.find_embedding(s, g) for g in reps]

        def check(out):
            reps, embeddings = out
            return regular_classes_problem(n, reps, s, embeddings, pkg.core.isomorphic_brute)

        return Item(f"enumerate({n})", work, check)

    @staticmethod
    def _canonical(pkg, g, h):
        def work():
            return pkg.search.canonical_form(g), pkg.search.canonical_form(h)

        def check(forms):
            return canonical_pair_problem(g, h, *forms)

        return Item(f"canonical n={g.n}", work, check)


WORKLOADS = {w.name: w for w in (SampledHosts(), BarrierTiling(), RegularClasses())}

"""Built-in checklist re-verifying the package's mathematical claims.

Each check re-derives one finite claim from scratch: the named-graph
containments and non-containments, the divisibility barriers and their
lattice certificates, the copy index-vector patterns, the degree
statistic windows on a random corpus, and the agreement of the search
kernels with the brute-force oracles in the oracles module.  A check is
the only definition of its claim: the acceptance tests call these same
functions under the full profile, passing their own seeds.  The two
evidence checks, S in regular tournaments and D-factors in sampled
hosts, run the search module's probes and answer with their outcome.
Every check answers "found", "refuted" or "inconclusive" (see
tiling.worst), and the report prints each answer by its word in STATUS.

Three profiles trade coverage for time.  "fast" caps the backtracking
searches at a small node budget and shrinks the sampled corpora; a check
that runs out of budget answers "inconclusive" (run_checks alone decides
this) and the rest still run.  The oracle-agreement check, whose hosts
have at most 8 vertices, runs unbudgeted under every profile.  "full"
runs everything unbudgeted at its stated size; "exhaustive" doubles the
sampled corpora on top of that.  All randomness is seeded and no timing
data enters the report, so the report for a profile is byte-stable.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product
from math import factorial

from . import analysis, embed, generators, lattice, oracles, search, tiling
from .core import OrientedGraph, isomorphic_brute
from .errors import BudgetExceededError
from .tiling import answer, worst

# the report's word for each check's answer, and the only place it is spelled
STATUS = {"found": "PASS", "refuted": "FAIL", "inconclusive": "INCONCLUSIVE"}

# The 12000 node budget is calibrated: the costliest search the fast
# profile must finish, the exhaustive refutation of a D_3-factor of
# t_sk(3,1), needs 4922 nodes of one budget (4886 to enumerate the
# level-3 triangle-blow-up copies under symmetry breaking, where every
# embedding took 16212, and 36 for the cover search), and C_6^2 into
# the t=3 blow-up needs 2478; every check passes from 4922 nodes up,
# and below that the checks that run out read INCONCLUSIVE(budget).
PROFILES = {
    "fast": {
        "budget": 12_000,
        "corpus_graphs": 12,
        "embed_instances": 150,
        "tiling_instances": 60,
        "enumeration_sizes": (3, 5),
        "probe_sizes": (9, 15, 21),
        "probe_samples": 20,
        "tiling_evidence_samples": 6,
        "nine_vertex_vectors": False,
    },
    "full": {
        "budget": None,
        "corpus_graphs": 50,
        "embed_instances": 500,
        "tiling_instances": 200,
        "enumeration_sizes": (3, 5, 7),
        "probe_sizes": (9, 11, 13, 15, 17, 19, 21),
        "probe_samples": 100,
        "tiling_evidence_samples": 20,
        "nine_vertex_vectors": True,
    },
    # full already runs every refutation exhaustively, so the extra
    # headroom of the unbounded profile goes into the sampled corpora.
    "exhaustive": {
        "budget": None,
        "corpus_graphs": 100,
        "embed_instances": 1000,
        "tiling_instances": 400,
        "enumeration_sizes": (3, 5, 7),
        "probe_sizes": (9, 11, 13, 15, 17, 19, 21),
        "probe_samples": 200,
        "tiling_evidence_samples": 40,
        "nine_vertex_vectors": True,
    },
}

TEN_VECTORS = frozenset(
    [(6, 0, 0), (0, 6, 0), (0, 0, 6), (4, 1, 1), (1, 4, 1), (1, 1, 4),
     (3, 3, 0), (3, 0, 3), (0, 3, 3), (2, 2, 2)]
)
FOUR_VECTORS = frozenset([(9, 0, 0), (0, 9, 0), (0, 0, 9), (3, 3, 3)])
MOD6_GENERATORS = (
    (2, 2, 2), (4, 1, 1), (1, 4, 1), (1, 1, 4), (3, 3, 0), (3, 0, 3), (0, 3, 3)
)
# isomorphism classes of regular tournaments on n vertices
REGULAR_COUNTS = {3: 1, 5: 1, 7: 3}


def check_c6_power_2_avoids_rotational_7(p):
    pattern = generators.cycle_power(6, 2)
    host = generators.rotational(7, [1, 2, 4])
    found = embed.find_embedding(pattern, host, budget=p["budget"])
    count = embed.count_embeddings(pattern, host, budget=p["budget"])
    detail = {"embedding_found": found is not None, "embeddings": count}
    return (answer(found is None and count == 0), detail)

def check_blowup_semidegree_and_freeness(p):
    pattern = generators.cycle_power(6, 2)
    base = generators.rotational(7, [1, 2, 4])
    detail = {}
    ok = True
    for t in (2, 3):
        host, _ = generators.blow_up(base, t)
        d0 = host.min_semi_degree()
        found = embed.find_embedding(pattern, host, budget=p["budget"])
        detail[f"t={t}"] = {
            "n": host.n, "min_semi_degree": d0, "embedding_found": found is not None
        }
        ok = ok and host.n == 7 * t and d0 == 3 * t and found is None
    return (answer(ok), detail)

def check_s_avoids_triangle_blowups(p):
    s_graph = generators.graph_s()
    detail = {}
    ok = True
    for s in range(1, 7):
        host, _ = generators.d_abc(s, s, s)
        found = embed.find_embedding(s_graph, host, budget=p["budget"])
        detail[f"s={s}"] = found is not None
        ok = ok and found is None
    return (answer(ok), detail)

def check_containment_chain(p):
    s_graph = generators.graph_s()
    d_graph, _ = generators.d_abc(1, 1, 2)
    chain = [
        ("strong-4-tournament into s", d_graph, s_graph),
        ("s into cycle-power(5,2)", s_graph, generators.cycle_power(5, 2)),
        ("s into level-2 triangle tower", s_graph, generators.f_r(2)),
    ]
    detail = {}
    ok = True
    for label, pattern, host in chain:
        emb = embed.find_embedding(pattern, host, budget=p["budget"])
        good = emb is not None and emb.verify()
        detail[label] = {"found": emb is not None, "edge_by_edge": good}
        ok = ok and good
    return (answer(ok), detail)

def check_mod6_lattice(p):
    lat = lattice.residue_lattice(MOD6_GENERATORS, 6, 3)
    members = {v for v in product(range(6), repeat=3) if v in lat}
    detail = {
        "size": lat.size,
        "brute_force_agrees": oracles.residue_span(MOD6_GENERATORS, 6, 3) == members,
        "excludes_123": (1, 2, 3) not in lat,
        "includes_330": (3, 3, 0) in lat,
    }
    ok = all(detail[k] for k in ("brute_force_agrees", "excludes_123", "includes_330"))
    return (answer(ok), detail)

def check_tsk_semi_regular(p):
    detail = {}
    ok = True
    for s, k in ((2, 0), (2, 1), (2, 2), (4, 0)):
        w = generators.t_sk(s, k)
        q = s * (k + 1)
        degs = {w.graph.out_degree(v) for v in range(w.graph.n)}
        cls = w.graph.classify()
        good = (
            w.graph.n == 3 * q
            and cls.is_semi_regular
            and degs <= {3 * q // 2 - 1, 3 * q // 2}
        )
        detail[f"s={s},k={k}"] = {
            "n": w.graph.n,
            "semi_regular": cls.is_semi_regular,
            "out_degrees": sorted(degs),
        }
        ok = ok and good
    return (answer(ok), detail)

def tsk_refutations(p, lattice_only):
    """Refute a D_s-factor of t_sk(s, k) for (s, k) in (2,0), (2,1), (3,1),
    by exhaustive cover search or, with lattice_only, by a residue lattice
    on the planted partition (the quotient bound's, or else the copies' in
    the lattice pre-check); a lattice that fails to refute lets the cover
    search run and refutes.  Returns (answer, modes)."""
    wanted = tiling.REFUTED_LATTICE if lattice_only else tiling.REFUTED_EXHAUSTIVE
    modes = {}
    for s, k in ((2, 0), (2, 1), (3, 1)):
        w = generators.t_sk(s, k)
        pattern, _ = generators.d_abc(s, s, s)
        result = tiling.perfect_tiling(
            pattern,
            w.graph,
            partition=w.partition if lattice_only else None,
            budget=p["budget"],
        )
        modes[f"s={s},k={k}"] = result.mode
    return (worst(_refutation_status(m, wanted) for m in modes.values()), modes)

def check_tsk_tiling_refuted(p):
    search_answer, searched = tsk_refutations(p, lattice_only=False)
    lattice_answer, latticed = tsk_refutations(p, lattice_only=True)
    detail = {key: {"search": searched[key], "lattice": latticed[key]} for key in searched}
    return (worst((search_answer, lattice_answer)), detail)

def _refutation_status(mode, wanted):
    if mode == wanted:
        return "found"
    return "inconclusive" if mode == tiling.INCONCLUSIVE else "refuted"

def check_copy_index_vectors(p):
    cases = [(2, "six", TEN_VECTORS)]
    if p["nine_vertex_vectors"]:
        cases.append((3, "nine", FOUR_VECTORS))
    detail = {"nine_vertex_vectors": "skipped under this profile"}
    ok = True
    for s, name, allowed in cases:
        w = generators.t_sk(s, 1)
        pattern, _ = generators.d_abc(s, s, s)
        hyper = tiling.copy_hypergraph(pattern, w.graph, budget=p["budget"])
        vecs = lattice.edge_vectors(hyper, w.partition).vectors
        detail[f"{name}_vertex_vectors"] = sorted(map(list, vecs))
        detail[f"{name}_vertex_within_pattern"] = vecs <= allowed
        ok = ok and bool(vecs) and vecs <= allowed
    return (answer(ok), detail)

def check_c3_barrier_family(p):
    triangle = generators.f_r(1)
    allowed = {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    detail = {}
    answers = []
    for n in (2, 3, 4):
        host, part = generators.c3_barrier(n)
        d0 = host.min_semi_degree()
        result = tiling.perfect_tiling(triangle, host, budget=p["budget"])
        hyper = tiling.copy_hypergraph(triangle, host, budget=p["budget"])
        report = lattice.edge_vectors(hyper, part, threshold=1)
        transferrals = lattice.find_2_transferrals(report)
        entry = {
            "min_semi_degree": d0,
            "tiling": result.mode,
            "vectors_within_pattern": report.vectors <= allowed,
            "two_transferrals": len(transferrals),
        }
        detail[f"n={n}"] = entry
        answers += (
            _refutation_status(result.mode, tiling.REFUTED_EXHAUSTIVE),
            answer(d0 == (3 * n - 3) // 2 and entry["vectors_within_pattern"] and not transferrals),
        )
    return (worst(answers), detail)

def check_degree_statistic_windows(p, seed="verify"):
    sizes = list(range(11, 32))
    violations = 0
    graphs = 0
    for i in range(p["corpus_graphs"]):
        n = sizes[i % len(sizes)]
        host = search.random_semi_regular(n, seed=f"{seed}:{i}")
        graphs += 1
        lo, hi = analysis.cyclic_edge_window(host)
        floor = analysis.d_copies_floor(host)
        counts = analysis.d_copy_counts(host)
        for v in range(n):
            stat = analysis.cyclic_edge_stat(host, v)
            if not lo <= stat <= hi:
                violations += 1
            if counts[v] < floor:
                violations += 1
    detail = {"graphs": graphs, "violations": violations}
    return (answer(violations == 0), detail)

def _embedding_mismatch(pattern, host):
    expected = oracles.embeddings(pattern, host)
    got = {e.mapping for e in embed.iter_embeddings(pattern, host)}
    found = embed.find_embedding(pattern, host)
    return (
        got != expected
        or (found is not None) != bool(expected)
        or embed.count_embeddings(pattern, host) != len(expected)
    )

def check_oracle_agreement(p, seed="oracle-agreement"):
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(p["embed_instances"]):
        pn = rng.randrange(1, 5)
        pattern = oracles.random_oriented(rng, pn, rng.uniform(0.3, 1.0))
        host = oracles.random_oriented(rng, rng.randrange(pn, 8), rng.uniform(0.3, 1.0))
        mismatches += _embedding_mismatch(pattern, host)
    # C_3 and D are tournaments; S and the directed path are not, so
    # only they tell copies apart from induced copies.
    patterns = (
        generators.f_r(1),
        generators.d_abc(1, 1, 2)[0],
        generators.graph_s(),
        OrientedGraph(3, [(0, 1), (1, 2)]),
    )
    tiling_mismatches = 0
    for i in range(p["tiling_instances"]):
        pattern = patterns[i % len(patterns)]
        host_n = pattern.n * rng.choice((1, 2))
        host = oracles.random_oriented(rng, host_n, rng.uniform(0.5, 1.0))
        fast = tiling.perfect_tiling(pattern, host).mode == tiling.FOUND
        tiling_mismatches += fast != oracles.tilable(pattern, host)
    counts = {}
    enum_ok = True
    for n in p["enumeration_sizes"]:
        reps = search.enumerate_regular_tournaments(n)
        labeled = oracles.labeled_regular_tournaments(n)
        # orbit-stabiliser: class i holds n!/|Aut(rep_i)| labeled tournaments,
        # so pairwise non-isomorphic regular reps summing to the labeled
        # count meet every class
        orbit_sum = sum(factorial(n) // oracles.automorphisms(g) for g in reps)
        counts[f"n={n}"] = {"enumerated": len(reps), "labeled": labeled, "orbit_sum": orbit_sum}
        enum_ok = (
            enum_ok
            and len(reps) == REGULAR_COUNTS[n]
            and labeled == search.LABELED_REGULAR[n]
            and orbit_sum == labeled
            and all(g.classify().is_regular for g in reps)
            and not any(isomorphic_brute(a, b) for a, b in combinations(reps, 2))
        )
    detail = {
        "embedding_mismatches": mismatches,
        "tiling_mismatches": tiling_mismatches,
        "class_counts": counts,
    }
    return (answer(mismatches == 0 and tiling_mismatches == 0 and enum_ok), detail)

def check_s_in_small_tournaments(p, seed="probe"):
    s_graph = generators.graph_s()
    exhaustive = search.turanability_probe(s_graph, (5, 7, 9), budget=p["budget"])
    sampled = search.turanability_probe(
        s_graph, p["probe_sizes"], mode="sample", samples=p["probe_samples"], seed=seed,
        budget=p["budget"],
    )
    detail = {}
    for e in exhaustive["per_n"]:
        detail[f"exhaustive n={e['n']}"] = {"containing": e["containing"], "classes": e["population"]}
    for e in sampled["per_n"]:
        detail[f"sampled n={e['n']}"] = {"containing": e["containing"], "samples": e["population"]}
    # a regular tournament without S is a counterexample
    findings = [
        {"n": e["n"], "tag": miss["tag"]}
        for report in (exhaustive, sampled)
        for e in report["per_n"]
        for miss in e["misses"]
    ]
    if findings:
        detail["findings"] = findings
    return (worst(r["outcome"] for r in (exhaustive, sampled)), detail)

def check_d_tiling_in_samples(p, seed="tile"):
    pattern, _ = generators.d_abc(1, 1, 2)
    report = search.tileability_probe(
        pattern, (8, 12, 16), samples=p["tiling_evidence_samples"], seed=seed, budget=p["budget"]
    )
    detail = {f"n={e['n']}": {"tiled": e["tiled"], "samples": e["samples"]} for e in report["per_n"]}
    return (report["outcome"], detail)

CHECKS = (
    ("c6-power-2-avoids-rotational-7", check_c6_power_2_avoids_rotational_7),
    ("blowup-semidegree-and-freeness", check_blowup_semidegree_and_freeness),
    ("s-avoids-triangle-blowups", check_s_avoids_triangle_blowups),
    ("containment-chain", check_containment_chain),
    ("mod6-residue-lattice", check_mod6_lattice),
    ("tsk-semi-regular", check_tsk_semi_regular),
    ("tsk-tiling-refuted", check_tsk_tiling_refuted),
    ("copy-index-vectors", check_copy_index_vectors),
    ("c3-barrier-family", check_c3_barrier_family),
    ("degree-statistic-windows", check_degree_statistic_windows),
    ("oracle-agreement", check_oracle_agreement),
    ("s-in-small-tournaments", check_s_in_small_tournaments),
    ("d-tiling-in-samples", check_d_tiling_in_samples),
)


def run_checks(profile="full", on_timing=None):
    """Run every check under the profile; return the worst of their answers
    (tiling.worst) and the report, where a check that runs out of budget
    answers "inconclusive".  on_timing, if given, is called with each
    check's name and wall-clock seconds; times stay out of the report."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    params = PROFILES[profile]
    results = []
    answers = []
    for name, fn in CHECKS:
        started = time.perf_counter()
        try:
            verdict, detail = fn(params)
        except BudgetExceededError as exc:
            verdict, detail = "inconclusive", {"note": f"budget of {exc.budget} nodes exhausted"}
        if on_timing is not None:
            on_timing(name, time.perf_counter() - started)
        answers.append(verdict)
        results.append({"name": name, "status": STATUS[verdict], "detail": detail})
    return worst(answers), {
        "profile": profile,
        "checks": results,
        # keyed "pass", "fail" and "inconclusive"
        "summary": {STATUS[a].lower(): answers.count(a) for a in STATUS},
    }

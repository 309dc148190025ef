"""Canonical forms, tournament enumeration, the sampler, and the probes."""

import hashlib
import random
from collections import Counter
from itertools import combinations
from math import exp, factorial, sqrt

import pytest

from oriograph.core import OrientedGraph, isomorphic_brute, serialize
from oriograph.embed import count_embeddings, find_embedding
from oriograph.errors import BudgetExceededError
from oriograph.generators import cycle_power, d_abc, f_r, graph_s, rotational, semi_regular_tournament
from oriograph import analysis, cli, generators, oracles, search, tiling, verify
from oriograph.oracles import random_oriented, random_tournament
from oriograph.search import (
    _canonical_perm_and_form,
    _relabelled,
    canonical_form,
    enumerate_regular_tournaments,
    random_semi_regular,
    tileability_probe,
    turanability_probe,
    walk_samples,
)


def canonical_graph(graph):
    """The graph relabelled by its first minimizing permutation."""
    return _relabelled(graph, _canonical_perm_and_form(graph)[0][0])


def relabel(graph, perm):
    return OrientedGraph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def shuffled(rng, graph):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return relabel(graph, perm)


def staircase(graph):
    """The staircase serialization of the graph as it is labelled."""
    value = 0
    for k in range(1, graph.n):
        for i in range(k):
            value = value << 2 | graph.has_edge(i, k) << 1 | graph.has_edge(k, i)
    return value


def test_canonical_form_matches_bruteforce():
    rng = random.Random("canon")
    for trial in range(200):
        g = random_oriented(rng, rng.randrange(1, 7))
        assert canonical_form(g) == oracles.canonical_form(g), trial
    # 7 vertices: random tournaments, the regular classes relabelled, and
    # twins (1, 2, 3 and 4, 5), which keep many prefixes on every level
    sevens = [random_tournament(rng, 7) for _ in range(4)]
    regular = (rotational(7, [1, 2, 4]), *enumerate_regular_tournaments(7))
    sevens += [shuffled(rng, g) for g in regular]
    sevens.append(OrientedGraph(7, [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0)]))
    # and oriented graphs with non-edges, where a placed vertex splits the
    # candidates three ways
    sevens += [random_oriented(rng, 7) for _ in range(6)]
    assert all(g.edge_count < 21 for g in sevens[-6:])
    for trial, g in enumerate(sevens):
        assert canonical_form(g) == oracles.canonical_form(g), trial


def test_canonical_form_on_nine_vertices():
    # too many relabellings for the oracle: isomorphic inputs must get equal
    # forms, no higher than either input serializes, and the canonical
    # graph must serialize to the form
    rng = random.Random("canon-9")
    hosts = [random_semi_regular(9, seed=f"canon-9:{i}") for i in range(20)]
    hosts += [random_tournament(rng, 9) for _ in range(20)]
    for trial, g in enumerate(hosts):
        h = shuffled(rng, g)
        form = canonical_form(g)
        assert form == canonical_form(h), trial
        assert form[1] <= min(staircase(g), staircase(h)), trial
        assert (9, staircase(canonical_graph(h))) == form, trial


def test_canonical_search_work_count():
    # prefixes kept, summed over the levels; the branch and bound this
    # replaced placed 640 and 15,334
    _, _, qr7 = _canonical_perm_and_form(rotational(7, [1, 2, 4]))
    _, _, regular9 = _canonical_perm_and_form(random_semi_regular(9, "c9:0", moves_per_pair=50))
    assert (qr7, regular9) == (133, 125)


def test_minimizers_are_the_automorphism_coset():
    # sigma sending the first minimizer to each one is an automorphism, and
    # there are |Aut| minimizers
    rng = random.Random("aut")
    graphs = [*enumerate_regular_tournaments(5), *enumerate_regular_tournaments(7)]
    graphs.append(rotational(7, [1, 2, 4]))  # QR7, |Aut| 21
    graphs.append(OrientedGraph(7, [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0)]))  # twins, |Aut| 12
    graphs += [random_tournament(rng, rng.randrange(1, 8)) for _ in range(12)]
    graphs += [random_oriented(rng, rng.randrange(1, 8)) for _ in range(12)]
    for trial, g in enumerate(graphs):
        perms, _, _ = _canonical_perm_and_form(g)
        assert len(perms) == oracles.automorphisms(g), trial
        for p in perms:
            sigma = dict(zip(perms[0], p))
            assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges()), trial
    # past the oracle's reach, |Aut| is the number of self-embeddings
    nine = enumerate_regular_tournaments(9)
    auts = [len(_canonical_perm_and_form(g)[0]) for g in nine]
    assert auts == [count_embeddings(g, g) for g in nine]
    assert auts == [9, 1, 1, 1, 3, 1, 3, 3, 1, 1, 3, 81, 1, 9, 3]


def test_closure_work_count(monkeypatch):
    # one canonical search for the start, then one per Aut-orbit of cyclic
    # triangles in each class until the orbit-stabiliser count is complete;
    # reversing every triangle, then searching again for each
    # representative, took 7, 46 and 466, and one search per orbit of every
    # class, without the stop, 2, 11 and 281
    inner = search._canonical_perm_and_form
    calls = []

    def counted(graph):
        calls.append(graph.n)
        return inner(graph)

    monkeypatch.setattr(search, "_canonical_perm_and_form", counted)
    for n in (5, 7, 9):
        enumerate_regular_tournaments(n)
    assert [calls.count(n) for n in (5, 7, 9)] == [1, 5, 89]


def canonical_digest(graphs):
    text = ";".join(f"{n},{value},{kept}" for _, (n, value), kept in map(_canonical_perm_and_form, graphs))
    return hashlib.sha256(text.encode()).hexdigest()


def test_canonical_outputs_are_pinned():
    # (form, kept) past the oracle's reach, recorded before the level loop
    # became a bitmask refinement: regular 11-vertex hosts, and oriented
    # graphs with non-edges on 9 and 10 vertices; the hosts are walks of the
    # length that was the default then
    semi = [random_semi_regular(11, f"c11:{i}", moves_per_pair=50) for i in range(30)]
    rng = random.Random("canon-sparse")
    sparse = [random_oriented(rng, rng.choice((9, 10))) for _ in range(20)]
    assert all(g.edge_count < g.n * (g.n - 1) // 2 for g in sparse)
    assert canonical_digest(semi) == "9bf1514e3200b7012d52e71ea48ecf3194f1ae6462816ab5202346a6d15f9c1b"
    assert canonical_digest(sparse) == "405220c2e7c72ffade3d59bee420f2701b622e04221f0fd19a3592a5db3f1303"


def test_canonical_form_is_an_isomorphism_invariant():
    rng = random.Random("canon-inv")
    for _ in range(100):
        g = random_oriented(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(g) == canonical_form(h)
        assert isomorphic_brute(canonical_graph(g), g)
    a = rotational(5, [1, 2])
    b = transitive_5 = OrientedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert canonical_form(a) != canonical_form(b)


def test_canonical_graph_is_canonical():
    g = graph_s()
    cg = canonical_graph(g)
    assert canonical_form(cg) == canonical_form(g)
    assert canonical_graph(cg) == cg


def test_enumeration_counts():
    expected = {3: 1, 5: 1, 7: 3, 9: 15}
    for n, classes in expected.items():
        reps = enumerate_regular_tournaments(n)
        assert len(reps) == classes
        for g in reps:
            assert g.classify().is_regular
        for a, b in combinations(reps, 2):
            # brute force walks 9! relabellings a pair at n = 9; between
            # tournaments of one order an embedding is an isomorphism
            assert n == 9 or not isomorphic_brute(a, b)
            assert find_embedding(a, b) is None
    with pytest.raises(ValueError):
        enumerate_regular_tournaments(4)
    with pytest.raises(ValueError):
        enumerate_regular_tournaments(13)


def test_labeled_enumeration_oracle():
    # orbit-stabiliser: the enumerated classes hold every labeled one
    for n, labeled in ((3, 2), (5, 24), (7, 2640)):
        assert oracles.labeled_regular_tournaments(n) == labeled
        reps = enumerate_regular_tournaments(n)
        assert sum(factorial(n) // oracles.automorphisms(g) for g in reps) == labeled
    with pytest.raises(ValueError):
        oracles.labeled_regular_tournaments(4)
    # the dynamic program over needed wins agrees with the leaf count, and
    # with OEIS A007079 past its reach
    for n in (1, 3, 5, 7):
        assert oracles.labeled_regular_dp(n) == oracles.labeled_regular_tournaments(n)
    assert oracles.labeled_regular_dp(9) == 3_230_080
    assert oracles.labeled_regular_dp(11) == 48_251_508_480
    with pytest.raises(ValueError):
        oracles.labeled_regular_dp(4)
    # the closure's stop rule reads the same counts
    assert search.LABELED_REGULAR == {n: oracles.labeled_regular_dp(n) for n in (1, 3, 5, 7, 9, 11)}
    # at 9 vertices 9! relabellings a class are too many for the Aut
    # oracle, so |Aut| is the number of self-embeddings
    reps = enumerate_regular_tournaments(9)
    assert sum(factorial(9) // count_embeddings(g, g) for g in reps) == oracles.labeled_regular_dp(9)


def test_closure_short_of_the_labeled_count_fails(monkeypatch, capsys):
    # a count the classes cannot reach empties the frontier: a fault of the
    # program (exit 4), never an uncertified list
    monkeypatch.setitem(search.LABELED_REGULAR, 7, 2641)
    with pytest.raises(AssertionError):
        enumerate_regular_tournaments(7)
    assert cli.main(["search", "enumerate-rt", "--n", "7"]) == 4
    assert capsys.readouterr().out == ""


def test_enumeration_is_deterministic():
    # committed forms, so that drift between versions fails too
    forms = [canonical_form(g) for g in enumerate_regular_tournaments(7)]
    assert forms == [(7, 0x15565695A95), (7, 0x15566695A59), (7, 0x15665A65A59)]
    # the 15 classes on 9 vertices, serialized and concatenated, pinned
    # from an independent enumeration by labelled-leaf backtracking
    text = "".join(serialize(g) for g in enumerate_regular_tournaments(9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "343bb9d038f600ee3c088e1db804f9336bca0aa23a00c0ae5566d565eb034a30"
    )


def test_sampler_properties():
    for n in (7, 8, 12, 15):
        g = random_semi_regular(n, seed=3)
        assert g.n == n
        assert g.classify().is_semi_regular
        start = semi_regular_tournament(n)
        assert [g.out_degree(v) for v in range(n)] == [start.out_degree(v) for v in range(n)]
    assert random_semi_regular(9, seed=5) == random_semi_regular(9, seed=5)
    walks = {random_semi_regular(9, seed=s) for s in range(6)}
    assert len(walks) > 1
    with pytest.raises(ValueError):
        random_semi_regular(2)


# Seeded realisations of the walk at its default length, committed so that
# a rewrite that changes the samples (while keeping them semi-regular)
# fails here.
PINNED_WALKS = {
    (3, 0): (2, 4, 1),
    (3, "probe:21:7"): (2, 4, 1),
    (4, 0): (6, 12, 8, 1),
    (4, "probe:21:7"): (6, 12, 8, 1),
    (9, 0): (210, 456, 163, 53, 326, 275, 300, 120, 141),
    (9, "probe:21:7"): (278, 312, 114, 197, 232, 393, 163, 263, 92),
    (10, 0): (342, 628, 744, 899, 428, 585, 792, 99, 166, 401),
    (10, "probe:21:7"): (458, 968, 707, 868, 79, 23, 928, 312, 564, 177),
}
# sha256 of the out-rows written in decimal and joined by commas
PINNED_WALK_DIGESTS = {
    (17, 0): "f459d3b69423e01fc3ad4d85faba6416041f5ba14fc71e387e1af41057c4da28",
    (17, "probe:21:7"): "5bab2e3351f9ec5d7c454f1d6e561cbea590baa7e670596a4e8b3fd05645b642",
    (31, 0): "12850b063fdbd2559c54e61325d06d573a10dd5b7f577467a89f7c79f1ae6309",
    (31, "probe:21:7"): "b68b1b1fed36fbf93d8051be930ae5bb188a0d19c776e64a000d22de395b9e25",
}


def test_sampler_realisations_are_pinned():
    for (n, seed), rows in PINNED_WALKS.items():
        assert random_semi_regular(n, seed).out_rows == rows, (n, seed)
    for (n, seed), digest in PINNED_WALK_DIGESTS.items():
        text = ",".join(map(str, random_semi_regular(n, seed).out_rows))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, seed)


def test_sampler_moves_per_pair():
    start = semi_regular_tournament(9)
    assert random_semi_regular(9, seed=1, moves_per_pair=0) == start
    for bad in (0.5, -1, 1.0, "2", True):
        with pytest.raises(ValueError):
            random_semi_regular(9, seed=1, moves_per_pair=bad)


def test_sampler_class_frequencies_at_7():
    # the walk's law at an even length is uniform over the labeled regular
    # tournaments at an even distance from the start, which hold half of
    # each class, so the three classes on 7 vertices occur in the
    # proportions 7!/|Aut| = 720 : 1680 : 240
    reps = enumerate_regular_tournaments(7)
    weight = {}
    for g in reps:
        weight[canonical_form(g)] = factorial(7) // oracles.automorphisms(g)
    assert sorted(weight.values()) == [240, 720, 1680]
    samples = 700
    counts = dict.fromkeys(weight, 0)
    for i in range(samples):
        counts[canonical_form(random_semi_regular(7, seed=f"chi:{i}"))] += 1
    total = sum(weight.values())
    chi2 = sum(
        (counts[f] - samples * w / total) ** 2 / (samples * w / total) for f, w in weight.items()
    )
    assert chi2 < 13.82, (counts, chi2)  # p = 0.001 at 2 degrees of freedom


def test_exact_sampler_is_uniform_at_5():
    # every one of the 24 labelled regular tournaments on 5 vertices
    # (OEIS A007079) equally often
    samples = 2400
    draws = oracles.uniform_semi_regular(random.Random("exact-5"), 5, samples)
    counts = Counter(g.out_rows for g in draws)
    assert len(counts) == oracles.labeled_regular_dp(5) == 24
    expected = samples / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 49.73, (counts, chi2)  # p = 0.001 at 23 degrees of freedom


def test_exact_sampler_draws_the_walk_states():
    # regular at odd n; at even n semi-regular with the out-degrees of the
    # walk's start, n/2 on 0..n/2-1 and n/2 - 1 on the rest
    rng = random.Random("exact-scores")
    for n in range(1, 14):
        start = semi_regular_tournament(n)
        for g in oracles.uniform_semi_regular(rng, n, 4):
            kind = g.classify()
            assert kind.is_regular if n % 2 else kind.is_semi_regular
            assert [g.out_degree(v) for v in range(n)] == [start.out_degree(v) for v in range(n)]
    for bad in (0, 22):
        with pytest.raises(ValueError):
            oracles.uniform_semi_regular(rng, bad, 1)


def test_exact_sampler_never_calls_the_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the oracle called the walk it checks")

    monkeypatch.setattr(search, "random_semi_regular", walk)
    assert "random_semi_regular" not in vars(oracles)
    assert len(oracles.uniform_semi_regular(random.Random(0), 10, 3)) == 3


def ks_pvalue(xs, ys):
    """Two-sample Kolmogorov-Smirnov p-value from the asymptotic law of
    the statistic; on discrete data it is conservative."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = 0
    d = 0.0
    while i < len(xs) and j < len(ys):
        v = min(xs[i], ys[j])
        while i < len(xs) and xs[i] == v:
            i += 1
        while j < len(ys) and ys[j] == v:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    ne = len(xs) * len(ys) / (len(xs) + len(ys))
    lam = (sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * d
    if lam < 0.2:
        return 1.0
    return min(1.0, 2 * sum((-1) ** (k - 1) * exp(-2 * k * k * lam * lam) for k in range(1, 101)))


def labelled_statistics(g, start):
    """The orientation of (0, 1), the number of pairs oriented against
    the walk's start, and the cyclic-edge statistic and strong-4-set count
    at vertex 0.  The cyclic-edge statistic is constant on regular
    tournaments."""
    against = sum((a ^ b).bit_count() for a, b in zip(g.out_rows, start.out_rows)) // 2
    return g.has_edge(0, 1), against, analysis.cyclic_edge_stat(g, 0), analysis.d_copy_counts(g)[0]


def test_walk_matches_the_exact_sampler():
    # Each reversal flips three pairs, so every walk of m moves orients a
    # number of pairs of m's parity against the start, and is compared with
    # the exact samples of that parity.  Swapping two vertices other than 0
    # and 1 flips the parity and keeps the other three statistics, so on
    # those the halves agree.  The walk passes at its default length and
    # fails without moves.
    for n in (9, 15):
        start = semi_regular_tournament(n)
        exact = [labelled_statistics(g, start)
                 for g in oracles.uniform_semi_regular(random.Random(f"two-sample:{n}"), n, 800)]
        for moves, passes in (({}, True), ({"moves_per_pair": 0}, False)):
            walk = [labelled_statistics(random_semi_regular(n, f"two-sample:{i}", **moves), start)
                    for i in range(400)]
            parity = {w[1] % 2 for w in walk}
            assert len(parity) == 1
            half = [e for e in exact if e[1] % 2 in parity]
            p = min(ks_pvalue(a, b) for a, b in zip(zip(*walk), zip(*half)))
            assert (p > 0.001) == passes, (n, moves, p)


def test_turanability_probe_exhaustive():
    report = turanability_probe(graph_s(), sizes=(5, 7))
    assert [e["containing"] for e in report["per_n"]] == [1, 3]
    assert all(not e["misses"] for e in report["per_n"])
    assert "finite evidence" in report["note"]
    assert report["outcome"] == "found"


def test_turanability_probe_records_misses():
    # exactly one of the three regular tournaments on 7 vertices avoids
    # the square of C_6: the rotational one with offsets 1,2,4
    from oriograph.core import parse

    report = turanability_probe(cycle_power(6, 2), sizes=(7,))
    assert report["outcome"] == "refuted"
    entry = report["per_n"][0]
    assert entry["population"] == 3
    assert entry["containing"] == 2
    assert len(entry["misses"]) == 1
    miss = parse(entry["misses"][0]["graph"])
    assert isomorphic_brute(miss, rotational(7, [1, 2, 4]))


def test_turanability_probe_sampled():
    report = turanability_probe(graph_s(), sizes=(9, 11), mode="sample", samples=5, seed=2)
    for entry in report["per_n"]:
        assert entry["population"] == 5
        assert entry["containing"] == 5
    assert report["outcome"] == "found"
    report = turanability_probe(graph_s(), sizes=(9,), mode="sample", samples=2, budget=1)
    assert report["per_n"][0]["inconclusive"] == ["sample-0", "sample-1"]
    assert report["outcome"] == "inconclusive"


def test_turanability_probe_rejects_even_sizes():
    # a sampled host on an even number of vertices is only semi-regular, so
    # a miss there would refute nothing about regular tournaments; and a
    # probe with no size would report "found" after testing nothing
    for mode in ("sample", "exhaustive"):
        for sizes in ((7, 6), ()):
            with pytest.raises(ValueError, match="odd n"):
                turanability_probe(graph_s(), sizes=sizes, mode=mode, samples=40)


def test_probes_reject_an_empty_sample():
    # zero samples would report "found" after testing no host
    with pytest.raises(ValueError, match="samples"):
        turanability_probe(graph_s(), sizes=(9,), mode="sample", samples=0)
    with pytest.raises(ValueError, match="samples"):
        tileability_probe(d_abc(1, 1, 2)[0], sizes=(8,), samples=0)


def test_walk_samples_are_the_seeded_walks():
    expected = [(f"sample-{i}", random_semi_regular(11, seed=f"x:{i}")) for i in range(3)]
    assert walk_samples(11, 3, "x") == expected


def test_one_population_reaches_both_probes(monkeypatch):
    # a new host source is one entry of POPULATIONS, not a change to either probe
    def fake(n, samples, seed):
        g = semi_regular_tournament(n)
        return [("fake-0", g), ("fake-1", relabel(g, list(range(n))[::-1]))]

    monkeypatch.setitem(search.POPULATIONS, "sample", fake)
    report = turanability_probe(graph_s(), sizes=(9,), mode="sample", samples=40, budget=1)
    entry = report["per_n"][0]
    assert (entry["population"], entry["inconclusive"]) == (2, ["fake-0", "fake-1"])
    report = tileability_probe(d_abc(1, 1, 2)[0], sizes=(8,), samples=40)
    assert [o["tag"] for o in report["per_n"][0]["outcomes"]] == ["fake-0", "fake-1"]
    assert report["per_n"][0]["samples"] == 2


def test_tileability_probe():
    d, _ = d_abc(1, 1, 2)
    report = tileability_probe(d, sizes=(8, 10), samples=4, seed=1)
    by_n = {e["n"]: e for e in report["per_n"]}
    assert by_n[8]["tiled"] == 4
    assert all(o["mode"] == "found" for o in by_n[8]["outcomes"])
    assert "skipped" in by_n[10]
    assert report["outcome"] == "found"
    report = tileability_probe(d, sizes=(8,), samples=2, budget=1)
    assert report["outcome"] == "inconclusive"
    # sizes that are all skipped test nothing
    for sizes in ((10, 14), ()):
        with pytest.raises(ValueError, match="divisible"):
            tileability_probe(d, sizes=sizes, samples=3)


# the evidence checks of verify, run on small corpora
SMALL = dict(verify.PROFILES["fast"], probe_sizes=(9,), probe_samples=3, tiling_evidence_samples=2)


def test_verify_s_check_reports_a_miss(monkeypatch):
    # the square of C_6 is missed by the one class on 5 vertices and by
    # the rotational class on 7: each miss is a finding, and the check fails
    monkeypatch.setattr(generators, "graph_s", lambda: cycle_power(6, 2))
    status, detail = verify.check_s_in_small_tournaments(SMALL)
    assert status == "refuted"
    assert detail["exhaustive n=7"] == {"containing": 2, "classes": 3}
    assert detail["findings"] == [{"n": 5, "tag": "class-0"}, {"n": 7, "tag": "class-2"}]


def test_verify_evidence_checks_are_inconclusive_out_of_budget():
    # a search that runs out of budget proves nothing either way
    starved = dict(SMALL, budget=1)
    status, detail = verify.check_s_in_small_tournaments(starved)
    assert status == "inconclusive"
    assert "findings" not in detail
    assert detail["exhaustive n=5"] == {"containing": 0, "classes": 1}
    status, detail = verify.check_d_tiling_in_samples(starved)
    assert status == "inconclusive"
    assert detail["n=8"] == {"tiled": 0, "samples": 2}


def test_verify_copy_checks_are_inconclusive_out_of_budget(monkeypatch):
    # the profile's budget caps every copy enumeration in verify, the
    # c3-barrier check's included; the checks raise, and run_checks answers
    starved = dict(SMALL, budget=1)
    names = ("copy-index-vectors", "c3-barrier-family")
    checks = tuple((name, fn) for name, fn in verify.CHECKS if name in names)
    for _, fn in checks:
        with pytest.raises(BudgetExceededError):
            fn(starved)
    monkeypatch.setitem(verify.PROFILES, "fast", starved)
    monkeypatch.setattr(verify, "CHECKS", checks)
    verdict, report = verify.run_checks("fast")
    assert verdict == "inconclusive"
    note = {"note": "budget of 1 nodes exhausted"}
    assert [(c["name"], c["status"], c["detail"]) for c in report["checks"]] == [
        (name, "INCONCLUSIVE", note) for name in names
    ]


def test_turanability_probe_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'census'"):
        turanability_probe(graph_s(), (9,), mode="census")


def test_run_checks_refuses_an_unknown_profile():
    with pytest.raises(ValueError, match="unknown profile 'quick'"):
        verify.run_checks("quick")


def test_tsk_refutations_read_each_mode_as_an_answer(monkeypatch):
    # a search cut off by its budget settles nothing
    verdict, modes = verify.tsk_refutations(dict(SMALL, budget=1), lattice_only=False)
    assert verdict == "inconclusive"
    assert set(modes.values()) == {"inconclusive"}
    # a refutation other than the one asked for refutes the check's claim
    exhaustive = tiling.TilingResult(tiling.REFUTED_EXHAUSTIVE)
    monkeypatch.setattr(verify.tiling, "perfect_tiling", lambda *args, **kwargs: exhaustive)
    assert verify.tsk_refutations(SMALL, lattice_only=False)[0] == "found"
    verdict, modes = verify.tsk_refutations(SMALL, lattice_only=True)
    assert verdict == "refuted"
    assert set(modes.values()) == {"refuted-exhaustive"}

"""Index-vector lattices, transferrals, the tiling pre-check, the quotient
bound and family G."""

import random
from collections import Counter
from itertools import permutations, product

import pytest

from oriograph.core import OrientedGraph, Partition, bits
from oriograph.generators import (
    blow_up,
    c3_barrier,
    d_abc,
    f_r,
    rotational,
    semi_regular_tournament,
    t_sk,
)
from oriograph import lattice
from oriograph.lattice import (
    edge_vectors,
    find_2_transferrals,
    quotient_bound,
    residue_lattice,
    tiling_lattice_precheck,
)
from oriograph.oracles import (
    quotient_vectors,
    random_oriented,
    residue_span,
    tilable,
)
from oriograph.tiling import copy_hypergraph

MOD6_GENERATORS = (
    (2, 2, 2), (4, 1, 1), (1, 4, 1), (1, 1, 4), (3, 3, 0), (3, 0, 3), (0, 3, 3)
)


def _members(lat):
    """The lattice's members, by a membership test of every residue vector."""
    return {v for v in product(range(lat.modulus), repeat=lat.dimension) if v in lat}


def test_residue_lattice_matches_brute_force():
    lat = residue_lattice(MOD6_GENERATORS, 6, 3)
    assert lat.size == len(lat) == 12
    assert _members(lat) == residue_span(MOD6_GENERATORS, 6, 3)
    assert (3, 3, 0) in lat
    assert (1, 2, 3) not in lat
    assert (0, 0, 0) in lat


def test_residue_lattice_small_cases():
    lat = residue_lattice([(1, 1)], 3, 2)
    assert _members(lat) == {(0, 0), (1, 1), (2, 2)}
    lat = residue_lattice([], 4, 2)
    assert _members(lat) == {(0, 0)}
    with pytest.raises(ValueError):
        residue_lattice([(1, 1, 1)], 6, 2)
    with pytest.raises(ValueError):
        lat.contains((0, 0, 0))


def test_residue_lattice_against_the_span_oracle():
    # membership of every residue vector, a negative representative of
    # each member, the size, and one record per subgroup: the span
    # itself, listed as generators, gives back the same Hermite basis
    rng = random.Random("residue-lattice")
    for trial in range(300):
        m, d = rng.randint(1, 12), rng.randint(1, 4)
        gens = [tuple(rng.randrange(-30, 30) for _ in range(d)) for _ in range(rng.randint(0, 4))]
        lat = residue_lattice(gens, m, d)
        span = residue_span(gens, m, d)
        assert _members(lat) == span, trial
        assert all(tuple(x - m for x in v) in lat for v in span), trial
        assert len(lat) == len(span), trial
        assert residue_lattice(sorted(span), m, d) == lat, trial


def test_edge_vectors_on_barriers():
    triangle = f_r(1)
    host, parts = c3_barrier(3)
    hyper = copy_hypergraph(triangle, host)
    report = edge_vectors(hyper, parts)
    assert dict(report.counts) == {(0, 0, 3): 2, (0, 3, 0): 1, (1, 1, 1): 24}
    assert report.vectors <= {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    assert find_2_transferrals(report) == []


def test_edge_vector_multiplicities_against_a_brute_tally():
    # every copy's vector recounted vertex by vertex, on hosts relabelled
    # so that no part is a run of consecutive vertices
    rng = random.Random("edge-vectors")
    w = t_sk(2, 1)
    cases = [(d_abc(2, 2, 2)[0], w.graph, w.partition), (f_r(1), *c3_barrier(8))]
    for pattern, graph, partition in cases:
        perm = list(range(graph.n))
        rng.shuffle(perm)
        host = OrientedGraph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])
        parts = Partition([[perm[v] for v in part] for part in partition.parts])
        hyper = copy_hypergraph(pattern, host)
        brute = Counter(parts.index_vector(bits(e)) for e in hyper.edges)
        report = edge_vectors(hyper, parts)
        assert report.counts == tuple(sorted(brute.items()))
        assert sum(c for _, c in report.counts) == len(hyper.edges) > 0
    # no copies at all, and a partition with a single part
    hyper = copy_hypergraph(f_r(1), OrientedGraph(4))
    assert edge_vectors(hyper, Partition([[0, 1], [2, 3]])).counts == ()
    host = rotational(5, [1, 2])
    hyper = copy_hypergraph(f_r(1), host)
    assert edge_vectors(hyper, Partition([range(5)])).counts == (((3,), len(hyper.edges)),)


def test_edge_vectors_reject_a_partition_of_another_vertex_set():
    # two disjoint directed triangles 0->1->2->0 and 3->4->5->3
    host = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    hyper = copy_hypergraph(f_r(1), host)
    assert edge_vectors(hyper, Partition([[0, 1, 2], [3, 4, 5]])).vectors == {(3, 0), (0, 3)}
    # a vertex outside the host would inflate the target vector of the
    # lattice pre-check to (3, 4) and refute the tiling the host has
    for parts in ([[0, 1, 2], [3, 4, 5, 99]], [[0, 1, 2], [3, 4]], [[0, 1, 2], [3, 4, 5, 6]]):
        with pytest.raises(ValueError):
            edge_vectors(hyper, Partition(parts))
        with pytest.raises(ValueError):
            tiling_lattice_precheck(hyper, Partition(parts))


def test_transferrals_against_inline_brute_force():
    host = semi_regular_tournament(5)
    parts = Partition([[0, 1], [2, 3], [4]])
    hyper = copy_hypergraph(f_r(1), host)
    report = edge_vectors(hyper, parts)
    expected = set()
    for a in report.robust:
        for b in report.robust:
            diff = tuple(x - y for x, y in zip(a, b))
            if sorted(diff) == [-1, 0, 1]:
                i = diff.index(1)
                j = diff.index(-1)
                expected.add((i, j, a, b))
    assert set(find_2_transferrals(report)) == expected
    assert expected  # this host and partition do produce transferrals


def test_threshold_filters_robust_vectors():
    triangle = f_r(1)
    host, parts = c3_barrier(3)
    hyper = copy_hypergraph(triangle, host)
    report = edge_vectors(hyper, parts, threshold=2)
    assert report.robust == frozenset({(0, 0, 3), (1, 1, 1)})
    assert report.vectors != report.robust


def test_tiling_lattice_precheck():
    for s, k in ((2, 0), (2, 1)):
        w = t_sk(s, k)
        d_pattern, _ = d_abc(s, s, s)
        hyper = copy_hypergraph(d_pattern, w.graph)
        verdict = tiling_lattice_precheck(hyper, w.partition)
        assert verdict.refutes
        assert verdict.target == tuple(len(p) for p in w.partition.parts)
    base = rotational(3, [1])
    host, parts = blow_up(base, 2)
    hyper = copy_hypergraph(f_r(1), host)
    assert not tiling_lattice_precheck(hyper, parts).refutes


def _quotient_cases(seed, count):
    """Seeded (pattern, host, partition) triples: hosts on 4-10 vertices of
    any density, patterns on 2-5 vertices, 2 or 3 non-empty parts, and at
    most 3^6 maps from pattern vertices to parts."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n, d = rng.randrange(4, 11), rng.randrange(2, 4)
        host = random_oriented(rng, n, density=rng.random())
        pattern = random_oriented(rng, rng.randrange(2, 6 if d == 3 else 7), 0.5 + rng.random() / 2)
        labels = [rng.randrange(d) for _ in range(n)]
        parts = [[v for v in range(n) if labels[v] == j] for j in range(d)]
        if all(parts):
            cases.append((pattern, host, Partition(parts)))
    return cases


def test_quotient_bound_matches_the_map_oracle():
    searched = strict = 0
    for trial, (pattern, host, parts) in enumerate(_quotient_cases("quotient-oracle", 150)):
        bound = quotient_bound(pattern, host, parts)
        brute = quotient_vectors(pattern, host, parts)
        vectors = product(range(pattern.n + 1), repeat=parts.d)
        compositions = {v for v in vectors if sum(v) == pattern.n}
        if bound.vectors is None:
            # skipped: every pair kind is "other", so U is every composition
            assert bound.nodes == 0 and brute == compositions, trial
        else:
            assert bound.vectors == brute, trial
            searched += 1
            strict += brute < compositions
    assert searched > 100 and strict > 50


def test_quotient_bound_is_sound():
    # every copy's vector lies in U, and a refutation by the bound is never
    # contradicted by the tiling oracle
    refuted = 0
    for trial, (pattern, host, parts) in enumerate(_quotient_cases("quotient-sound", 300)):
        bound = quotient_bound(pattern, host, parts)
        copies = edge_vectors(copy_hypergraph(pattern, host), parts).vectors
        assert bound.vectors is None or copies <= bound.vectors, trial
        if bound.verdict is not None and bound.verdict.refutes and host.n % pattern.n == 0:
            assert not tilable(pattern, host), trial
            refuted += 1
    assert refuted >= 5


def test_quotient_bound_on_the_barrier_families():
    # the t_sk quotient: cyclic cross edges, plus matchings from part 3 to
    # part 2 and from part 1 to part 3; c3_barrier has the cyclic edges only
    triangle = f_r(1)
    for n in (4, 10, 100):
        host, parts = c3_barrier(n)
        bound = quotient_bound(triangle, host, parts)
        assert bound.vectors == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
        assert bound.verdict.refutes and bound.nodes == 30
    for s, k, size in ((2, 1, 7), (2, 3, 7), (3, 1, 4), (4, 1, 4)):
        w = t_sk(s, k)
        bound = quotient_bound(d_abc(s, s, s)[0], w.graph, w.partition)
        assert len(bound.vectors) == size and bound.verdict.refutes, (s, k)
    # no refutation where a perfect tiling exists
    host, parts = blow_up(rotational(3, [1]), 2)
    assert not quotient_bound(triangle, host, parts).verdict.refutes


def test_quotient_bound_skips_what_cannot_refute():
    host = semi_regular_tournament(9)
    one_part = Partition([range(9)])
    # a pattern with no edges maps anywhere
    parts = Partition([range(3), range(3, 9)])
    for pattern, partition in ((f_r(1), one_part), (OrientedGraph(3), parts)):
        bound = quotient_bound(pattern, host, partition)
        assert (bound.vectors, bound.verdict, bound.nodes) == (None, None, 0)


def test_quotient_bound_stops_at_the_cap(monkeypatch):
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    nodes = quotient_bound(d2, w.graph, w.partition).nodes
    monkeypatch.setattr(lattice, "MAP_CAP", nodes - 1)
    bound = quotient_bound(d2, w.graph, w.partition)
    assert (bound.vectors, bound.verdict, bound.nodes) == (None, None, nodes)


def _against(graph, partition):
    """Cross edges running against the cyclic part order 1 -> 2 -> 3 -> 1."""
    part = {v: i for i, p in enumerate(partition.parts) for v in p}
    return {(u, v) for u, v in graph.edges() if part[v] == (part[u] - 1) % 3}


def _all_reverse_triangle(graph, against):
    return any(
        (a, b) in against and (b, c) in against and (c, a) in against
        for a, b, c in permutations(range(graph.n), 3)
    )


def test_is_in_family_g():
    # t_sk lies in family G: its reverse edges are exactly the cross edges
    # against the part order, each reverse class is a matching, and no
    # triangle is all-reverse
    for s, k in ((2, 1), (2, 2)):
        w = t_sk(s, k)
        against = _against(w.graph, w.partition)
        assert against == w.reverse_edges
        part = {v: i for i, p in enumerate(w.partition.parts) for v in p}
        for pair in ((0, 2), (2, 1), (1, 0)):
            ends = [x for u, v in against if (part[u], part[v]) == pair for x in (u, v)]
            assert len(ends) == len(set(ends)), (s, k, pair)
        assert not _all_reverse_triangle(w.graph, against)
    # orient the parts so every triangle edge counters the cyclic pattern
    triangle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    against = _against(triangle, Partition([[1], [0], [2]]))
    assert len(against) == 3
    assert _all_reverse_triangle(triangle, against)

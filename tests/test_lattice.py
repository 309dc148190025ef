"""Index-vector lattices, transferrals, family membership, linking sets."""

import pytest

from oriograph.core import OrientedGraph, Partition
from oriograph.generators import (
    blow_up,
    c3_barrier,
    d_abc,
    f_r,
    rotational,
    semi_regular_tournament,
    t_sk,
)
from oriograph.lattice import (
    edge_vectors,
    find_2_transferrals,
    is_in_family_g,
    linking_sets,
    reachability_report,
    residue_lattice,
    tiling_lattice_precheck,
)
from oriograph.oracles import residue_span
from oriograph.tiling import copy_hypergraph

MOD6_GENERATORS = (
    (2, 2, 2), (4, 1, 1), (1, 4, 1), (1, 1, 4), (3, 3, 0), (3, 0, 3), (0, 3, 3)
)


def test_residue_lattice_matches_brute_force():
    lat = residue_lattice(MOD6_GENERATORS, 6, 3)
    assert len(lat) == 12
    assert lat.members == frozenset(residue_span(MOD6_GENERATORS, 6, 3))
    assert (3, 3, 0) in lat
    assert (1, 2, 3) not in lat
    assert (0, 0, 0) in lat


def test_residue_lattice_small_cases():
    lat = residue_lattice([(1, 1)], 3, 2)
    assert lat.members == frozenset({(0, 0), (1, 1), (2, 2)})
    lat = residue_lattice([], 4, 2)
    assert lat.members == frozenset({(0, 0)})
    with pytest.raises(ValueError):
        residue_lattice([(1, 1, 1)], 6, 2)
    with pytest.raises(ValueError):
        lat.contains((0, 0, 0))


def test_edge_vectors_on_barriers():
    triangle = f_r(1)
    host, parts = c3_barrier(3)
    hyper = copy_hypergraph(triangle, host)
    report = edge_vectors(hyper, parts)
    assert dict(report.counts) == {(0, 0, 3): 2, (0, 3, 0): 1, (1, 1, 1): 24}
    assert report.vectors <= {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    assert find_2_transferrals(report) == []


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


def test_is_in_family_g():
    w = t_sk(2, 1)
    ok, reverse = is_in_family_g(w.graph, w.partition)
    assert ok
    assert reverse == w.reverse_edges
    w = t_sk(2, 2)
    ok, reverse = is_in_family_g(w.graph, w.partition)
    assert ok and reverse == w.reverse_edges
    # orient the parts so every triangle edge counters the cyclic pattern
    triangle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    bad_parts = Partition([[1], [0], [2]])
    ok, reverse = is_in_family_g(triangle, bad_parts)
    assert not ok
    assert len(reverse) == 3


def test_linking_sets():
    host, _ = d_abc(2, 2, 2)
    d_pattern, _ = d_abc(1, 1, 2)
    assert linking_sets(host, d_pattern, 0, 1) == 4
    with pytest.raises(ValueError):
        linking_sets(host, d_pattern, 0, 0)


def test_reachability_report():
    host, _ = d_abc(2, 2, 2)
    d_pattern, _ = d_abc(1, 1, 2)
    report = reachability_report(host, d_pattern)
    assert report.n == 6
    assert report.counts[0][1] == 4
    assert report.counts[1][0] == 4
    assert all(report.counts[v][v] == 0 for v in range(6))
    assert report.components == ((0, 1, 2, 3, 4, 5),)

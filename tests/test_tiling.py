"""Copy hypergraphs and the exact-cover tiling solver, with a partition
enumeration oracle."""

import random
import sys

import pytest

from oriograph import lattice, tiling
from oriograph.core import Embedding, OrientedGraph, Partition, bits
from oriograph.errors import BudgetExceededError
from oriograph.generators import (
    blow_up,
    c3_barrier,
    cycle_power,
    d_abc,
    f_r,
    graph_s,
    rotational,
    semi_regular_tournament,
    t_sk,
    transitive,
)
from oriograph.oracles import embeddings, random_oriented, random_tournament, tilable
from oriograph.tiling import (
    FOUND,
    INCONCLUSIVE,
    REFUTED_DIVISIBILITY,
    REFUTED_EXHAUSTIVE,
    REFUTED_LATTICE,
    Tiling,
    _exact_cover,
    copy_hypergraph,
    hypergraph_perfect_matching,
    perfect_tiling,
    verify_tiling,
)


def test_copy_hypergraph_counts():
    triangle = f_r(1)
    assert copy_hypergraph(triangle, triangle).edges == (0b111,)
    host, _ = c3_barrier(2)
    hyper = copy_hypergraph(triangle, host)
    assert len(hyper.edges) == 7
    d, _ = d_abc(1, 1, 2)
    c52 = rotational(5, [1, 2])
    hyper = copy_hypergraph(d, c52)
    assert len(hyper.edges) == 5  # every 4-subset induces a copy


def _plant(rng, pattern, n):
    """A random tournament on n vertices with the pattern laid on a random
    set of its vertices, so that the host holds at least one copy."""
    spots = rng.sample(range(n), pattern.n)
    planted = {(spots[u], spots[v]) for u, v in pattern.edges()}
    kept = [e for e in random_tournament(rng, n).edges() if {e, e[::-1]}.isdisjoint(planted)]
    return OrientedGraph(n, kept + sorted(planted))


def test_copies_match_the_embedding_oracle():
    # every copy once, whether symmetry breaking (tournament patterns) or
    # deduplication (the others) removes the repeated image sets
    rng = random.Random("copy-oracle")
    tournaments = [f_r(1), rotational(5, [1, 2]), rotational(7, [1, 2, 4]), d_abc(2, 2, 2)[0]]
    planted = [(p, _plant(rng, p, rng.randrange(p.n, 9))) for p in tournaments for _ in range(3)]
    cases = list(planted)
    for trial in range(60):
        pattern = random_oriented(rng, rng.randrange(2, 5))
        host = (random_tournament if trial % 2 else random_oriented)(rng, rng.randrange(2, 9))
        cases.append((pattern, host))
    for trial, (pattern, host) in enumerate(cases):
        images = {sum(1 << w for w in image) for image in embeddings(pattern, host)}
        edges = copy_hypergraph(pattern, host).edges
        assert edges == tuple(sorted(images, key=lambda m: tuple(bits(m)))), trial
        assert edges or trial >= len(planted), trial


def test_symmetry_breaking_work_count():
    # D_3 has 3 automorphisms; a walk with one node per embedding places 16212
    d3, _ = d_abc(3, 3, 3)
    host = t_sk(3, 1).graph
    assert copy_hypergraph(d3, host, budget=4886).nodes == 4886
    with pytest.raises(BudgetExceededError):
        copy_hypergraph(d3, host, budget=4885)


def test_one_budget_covers_both_phases():
    # the path is no tournament, so its copy enumeration breaks no symmetry
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    host, _ = c3_barrier(3)
    hyper = copy_hypergraph(path, host)
    cover = 3  # one node per copy: the first branch tiles
    assert hypergraph_perfect_matching(hyper, budget=cover)
    with pytest.raises(BudgetExceededError):
        hypergraph_perfect_matching(hyper, budget=cover - 1)
    both = hyper.nodes + cover
    assert both - 1 >= max(hyper.nodes, cover)
    assert perfect_tiling(path, host, budget=both).mode == FOUND
    result = perfect_tiling(path, host, budget=both - 1)
    assert result.mode == INCONCLUSIVE
    assert result.note == "budget exhausted during cover search"


def test_first_cover_is_pinned():
    # the first cover in branching order; the narrowed option lists and the
    # memo of refuted remainders must not change which cover comes first
    d, _ = d_abc(1, 1, 2)
    pinned = {
        16: ((0, 1, 7, 9), (2, 3, 8, 11), (4, 5, 10, 13), (6, 12, 14, 15)),
        24: ((0, 1, 11, 13), (2, 3, 12, 15), (4, 5, 14, 17), (6, 7, 16, 19),
             (8, 9, 18, 21), (10, 20, 22, 23)),
        32: ((0, 1, 15, 17), (2, 3, 16, 19), (4, 5, 18, 21), (6, 7, 20, 23),
             (8, 9, 22, 25), (10, 11, 24, 27), (12, 13, 26, 29), (14, 28, 30, 31)),
    }
    for n, copies in pinned.items():
        result = perfect_tiling(d, semi_regular_tournament(n))
        assert result.mode == FOUND and result.tiling.copies == copies, n


def test_cover_work_is_pinned():
    # the cover search's own nodes, pinned by the budget boundary: a change
    # to the branching rule or to the order of the options moves them
    c3 = f_r(1)
    d, _ = d_abc(1, 1, 2)
    cases = [
        (c3, c3_barrier(5)[0], 512),
        (d_abc(3, 3, 3)[0], t_sk(3, 1).graph, 36),
        (d, semi_regular_tournament(16), 4),
        (d, semi_regular_tournament(24), 6),
        (d, semi_regular_tournament(32), 8),
    ]
    for pattern, host, nodes in cases:
        hyper = copy_hypergraph(pattern, host)
        expected = hypergraph_perfect_matching(hyper)
        assert hypergraph_perfect_matching(hyper, budget=nodes) == expected
        with pytest.raises(BudgetExceededError):
            hypergraph_perfect_matching(hyper, budget=nodes - 1)


def test_exact_cover_against_the_tiling_oracle():
    # sparse random hosts, so that some leave a vertex in no copy at all
    # and the search stops at its root
    rng = random.Random("cover-oracle")
    edge = OrientedGraph(2, [(0, 1)])
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    patterns = (edge, f_r(1), path, d_abc(1, 1, 2)[0])
    uncovered = 0
    for trial in range(160):
        pattern = patterns[trial % len(patterns)]
        host = random_oriented(rng, pattern.n * rng.randrange(1, 4), density=rng.random())
        edges = copy_hypergraph(pattern, host).edges
        ground = (1 << host.n) - 1
        reached = 0
        for e in edges:
            reached |= e
        uncovered += reached != ground
        cover = _exact_cover(ground, edges)
        assert (cover is not None) == tilable(pattern, host), trial
        if cover is not None:
            assert set(cover) <= set(edges), trial
            assert sum(cover) == ground and sum(c.bit_count() for c in cover) == host.n, trial
    assert 0 < uncovered < 160


def test_memo_refutation_is_sound():
    # the lattice proves that c3_barrier(6) has no triangle factor; the
    # cover search, which skips every remainder it has refuted before,
    # must finish with the same answer
    host, parts = c3_barrier(6)
    assert perfect_tiling(f_r(1), host, partition=parts).mode == REFUTED_LATTICE
    assert perfect_tiling(f_r(1), host).mode == REFUTED_EXHAUSTIVE


def test_cover_deeper_than_the_recursion_limit():
    # one copy chosen per level: a single vertex tiles an edgeless host
    n = sys.getrecursionlimit() + 10
    result = perfect_tiling(OrientedGraph(1), OrientedGraph(n))
    assert result.mode == FOUND
    assert result.tiling.copies == tuple((v,) for v in range(n))


def test_perfect_tiling_found_and_verified():
    base = rotational(3, [1])
    host, _ = blow_up(base, 2)
    result = perfect_tiling(f_r(1), host)
    assert result.mode == FOUND
    assert verify_tiling(f_r(1), host, result.tiling)
    used = sorted(v for copy in result.tiling.copies for v in copy)
    assert used == list(range(6))


def test_copies_need_not_be_induced():
    # S has two non-adjacent pairs, C_5^2 is a tournament: S embeds onto
    # all five vertices although they induce more edges than S has
    s, c52 = graph_s(), cycle_power(5, 2)
    assert copy_hypergraph(s, c52).edges == (0b11111,)
    result = perfect_tiling(s, c52)
    assert result.mode == FOUND
    assert result.tiling.copies == ((0, 1, 2, 3, 4),)


def test_divisibility_refutation():
    host = rotational(5, [1, 2])
    result = perfect_tiling(f_r(1), host)
    assert result.mode == REFUTED_DIVISIBILITY


def test_exhaustive_refutation():
    host, _ = c3_barrier(2)
    result = perfect_tiling(f_r(1), host)
    assert result.mode == REFUTED_EXHAUSTIVE
    assert result.tiling is None


def test_lattice_refutation():
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    result = perfect_tiling(d2, w.graph, partition=w.partition)
    assert result.mode == REFUTED_LATTICE
    assert "unreachable" in result.note
    # without the partition the cover search still refutes, just slower
    assert perfect_tiling(d2, w.graph).mode == REFUTED_EXHAUSTIVE


def test_lattice_precheck_is_looked_up_at_call_time(monkeypatch):
    # the benchmark counts pre-check calls by wrapping this module attribute;
    # the quotient bound is wrapped the same way
    calls = []

    def wrap(name):
        kernel = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *args: calls.append(name) or kernel(*args))

    wrap("quotient_bound")
    wrap("tiling_lattice_precheck")
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    assert perfect_tiling(d2, w.graph, partition=w.partition).mode == REFUTED_LATTICE
    assert calls == ["quotient_bound"]
    # vertex 1 of a transitive tournament has an in-edge and out-edges, so
    # the quotient lets a triangle through it; the copies show there is none
    calls.clear()
    result = perfect_tiling(f_r(1), transitive(6), partition=Partition([[1], [0, 2, 3, 4, 5]]))
    assert result.mode == REFUTED_LATTICE
    assert result.note == "host index vector (1, 2) unreachable modulo 3"
    assert calls == ["quotient_bound", "tiling_lattice_precheck"]


def test_quotient_bound_refutes_without_listing_copies():
    # listing the copies alone takes more than the whole budget
    d2, _ = d_abc(2, 2, 2)
    w = t_sk(2, 7)
    for pattern, host, parts in ((f_r(1), *c3_barrier(100)), (d2, w.graph, w.partition)):
        result = perfect_tiling(pattern, host, partition=parts, budget=5_000)
        assert result.mode == REFUTED_LATTICE
        assert "unreachable" in result.note and "by the quotient bound" in result.note
        with pytest.raises(BudgetExceededError):
            copy_hypergraph(pattern, host, budget=5_000)


def test_quotient_bound_draws_on_the_budget(monkeypatch):
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    nodes = lattice.quotient_bound(d2, w.graph, w.partition).nodes
    result = perfect_tiling(d2, w.graph, partition=w.partition, budget=nodes)
    assert result.mode == REFUTED_LATTICE
    assert result.note.endswith("by the quotient bound, |U| = 7")
    result = perfect_tiling(d2, w.graph, partition=w.partition, budget=nodes - 1)
    assert result.mode == INCONCLUSIVE
    assert result.note == "budget exhausted during the quotient bound"
    # stopped at its cap, the bound refutes nothing, and copy enumeration
    # gets what the bound left of the budget
    monkeypatch.setattr(lattice, "MAP_CAP", 10)
    copies = copy_hypergraph(d2, w.graph).nodes
    result = perfect_tiling(d2, w.graph, partition=w.partition, budget=11 + copies)
    assert result.mode == REFUTED_LATTICE
    assert result.note == "host index vector (3, 4, 5) unreachable modulo 6"
    result = perfect_tiling(d2, w.graph, partition=w.partition, budget=10 + copies)
    assert result.note == "budget exhausted during copy enumeration"


def test_budget_gives_inconclusive():
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    result = perfect_tiling(d2, w.graph, budget=10)
    assert result.mode == INCONCLUSIVE
    assert "budget" in result.note


def test_verify_tiling_rejects_partial_and_garbage():
    triangle = f_r(1)
    base = rotational(3, [1])
    host, _ = blow_up(base, 2)
    assert verify_tiling(triangle, host, Tiling(copies=((0, 2, 4), (1, 3, 5))))
    # 0 and 1 share a blow-up class, so {0, 1, 2} contains no triangle
    assert not verify_tiling(triangle, host, Tiling(copies=((0, 1, 2), (3, 4, 5))))
    # overlapping blocks fail even if each one is a copy
    assert not verify_tiling(triangle, host, Tiling(copies=((0, 2, 4), (0, 3, 5))))
    # disjoint copies that leave vertices uncovered are no perfect tiling
    assert not verify_tiling(triangle, host, Tiling(copies=((0, 2, 4),)))
    # a copy naming a vertex outside the host is no tiling, not an error
    for bad in ((0, 1, 5), (0, 1, -1)):
        assert not verify_tiling(triangle, base, Tiling(copies=(bad,)))


def test_verify_tiling_checks_each_copy_edge_by_edge(monkeypatch):
    # a search answering with a map that is no copy cannot vouch for a
    # block: {0, 1, 2} of the blow-up holds no triangle
    triangle = f_r(1)
    host, _ = blow_up(rotational(3, [1]), 2)
    copies = Tiling(copies=((0, 1, 2), (3, 4, 5)))
    monkeypatch.setattr(
        tiling, "find_embedding", lambda pattern, sub: Embedding(pattern, sub, tuple(range(pattern.n)))
    )
    assert not verify_tiling(triangle, host, copies)


def test_partition_of_another_vertex_set_is_refused_before_any_search():
    bad = Partition([[0, 1, 2], [3, 4, 5, 99]])
    # 3 does not divide 7, and budget 0 cannot enumerate a single copy
    for host, budget in ((rotational(7, [1, 2, 4]), None), (blow_up(rotational(3, [1]), 2)[0], 0)):
        with pytest.raises(ValueError):
            perfect_tiling(f_r(1), host, partition=bad, budget=budget)


def test_hypergraph_matching_budget():
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    hyper = copy_hypergraph(d2, w.graph)
    with pytest.raises(BudgetExceededError):
        hypergraph_perfect_matching(hyper, budget=0)


def test_oracle_agreement_on_random_instances():
    rng = random.Random("tiling-oracle")
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    patterns = (f_r(1), d_abc(1, 1, 2)[0], graph_s(), path)
    for trial in range(120):
        pattern = patterns[trial % len(patterns)]
        n = pattern.n * rng.randrange(1, 3)
        host = random_tournament(rng, n)
        result = perfect_tiling(pattern, host)
        assert (result.mode == FOUND) == tilable(pattern, host), trial
        if result.mode == FOUND:
            assert verify_tiling(pattern, host, result.tiling)

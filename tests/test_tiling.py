"""Copy hypergraphs and the exact-cover tiling solver, with a partition
enumeration oracle."""

import random

import pytest

from oriograph import lattice
from oriograph.core import OrientedGraph
from oriograph.generators import (
    blow_up,
    c3_barrier,
    cycle_power,
    d_abc,
    f_r,
    graph_s,
    rotational,
    t_sk,
)
from oriograph.oracles import random_tournament, tilable
from oriograph.tiling import (
    FOUND,
    INCONCLUSIVE,
    REFUTED_DIVISIBILITY,
    REFUTED_EXHAUSTIVE,
    REFUTED_LATTICE,
    Tiling,
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
    # the benchmark counts pre-check calls by wrapping this module attribute
    calls = []
    precheck = lattice.tiling_lattice_precheck

    def wrapper(*args, **kwargs):
        calls.append(args)
        return precheck(*args, **kwargs)

    monkeypatch.setattr(lattice, "tiling_lattice_precheck", wrapper)
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    assert perfect_tiling(d2, w.graph, partition=w.partition).mode == REFUTED_LATTICE
    assert len(calls) == 1


def test_budget_gives_inconclusive():
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    result = perfect_tiling(d2, w.graph, budget=10)
    assert result.mode == INCONCLUSIVE
    assert "budget" in result.note


def test_verify_tiling_accepts_partial_rejects_garbage():
    triangle = f_r(1)
    base = rotational(3, [1])
    host, _ = blow_up(base, 2)
    # 0 and 1 share a blow-up class, so {0, 1, 2} contains no triangle
    assert not verify_tiling(triangle, host, Tiling(copies=((0, 1, 2),)))
    # overlapping blocks fail even if each one is a copy
    assert not verify_tiling(triangle, host, Tiling(copies=((0, 2, 4), (0, 3, 5))))
    # a valid partial tiling verifies but is not perfect
    partial = Tiling(copies=((0, 2, 4),))
    assert verify_tiling(triangle, host, partial)
    assert not partial.is_perfect(host)


def test_hypergraph_matching_budget():
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    hyper = copy_hypergraph(d2, w.graph)
    from oriograph.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        hypergraph_perfect_matching(hyper, range(w.graph.n), budget=0)


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

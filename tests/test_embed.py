"""Embedding search against a brute-force permutation oracle."""

import ast
import gc
import random
import sys
from pathlib import Path

import pytest

import oriograph
from oriograph.embed import count_embeddings, find_embedding, iter_embeddings, variable_order
from oriograph.errors import BudgetExceededError
from oriograph.generators import (
    blow_up,
    cycle_power,
    d_abc,
    f_r,
    graph_s,
    rotational,
    semi_regular_tournament,
    t_sk,
    transitive,
)
from oriograph.lattice import edge_vectors
from oriograph.oracles import embeddings, random_oriented
from oriograph.search import canonical_form, enumerate_regular_tournaments, random_semi_regular
from oriograph.tiling import copy_hypergraph, perfect_tiling


def test_known_containments():
    s = graph_s()
    d, _ = d_abc(1, 1, 2)
    emb = find_embedding(d, s)
    assert emb is not None and emb.verify()
    assert emb.mapping == (3, 0, 1, 2)
    assert count_embeddings(d, s) == 1
    assert find_embedding(s, cycle_power(5, 2)).verify()
    assert find_embedding(s, f_r(2)).verify()


def test_known_non_containments():
    c62 = cycle_power(6, 2)
    assert find_embedding(c62, rotational(7, [1, 2, 4])) is None
    s = graph_s()
    for size in (1, 2, 3):
        host, _ = d_abc(size, size, size)
        assert find_embedding(s, host) is None


def test_oracles_import_no_kernel():
    # an oracle that called the kernel it checks would vouch for nothing:
    # of the package, oracles.py may import only core
    tree = ast.parse((Path(oriograph.__file__).parent / "oracles.py").read_text())
    imported = set()  # the package's modules, by full name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "oriograph." + module if module else "oriograph"
            names = [module] if module != "oriograph" else [f"oriograph.{a.name}" for a in node.names]
        else:
            continue
        imported |= {name for name in names if name.split(".")[0] == "oriograph"}
    assert imported <= {"oriograph.core"}, imported


def test_oracle_agreement_on_random_instances():
    rng = random.Random("embed-oracle")
    for trial in range(200):
        pattern = random_oriented(rng, rng.randrange(2, 5))
        host = random_oriented(rng, rng.randrange(2, 8))
        expected = embeddings(pattern, host)
        got = list(iter_embeddings(pattern, host))
        assert len(got) == len(expected), trial
        assert {e.mapping for e in got} == expected, trial
        assert all(e.verify() for e in got)
        first = find_embedding(pattern, host)
        if expected:
            assert first is not None and first.mapping in expected
        else:
            assert first is None
        assert count_embeddings(pattern, host) == len(expected)


def test_search_is_deterministic():
    rng = random.Random("embed-det")
    for _ in range(30):
        pattern = random_oriented(rng, 4)
        host = random_oriented(rng, 7)
        a = find_embedding(pattern, host)
        b = find_embedding(pattern, host)
        assert (a is None and b is None) or a.mapping == b.mapping


def test_variable_order_prefers_constrained_vertices():
    d, _ = d_abc(1, 1, 2)
    order = variable_order(d)
    assert sorted(order) == [0, 1, 2, 3]
    degs = [d.out_degree(v) + d.in_degree(v) for v in order]
    assert degs == sorted(degs, reverse=True)


def test_budget_raises():
    c62 = cycle_power(6, 2)
    host, _ = d_abc(3, 3, 3)
    with pytest.raises(BudgetExceededError):
        find_embedding(c62, host, budget=3)
    try:
        find_embedding(c62, host, budget=3)
    except BudgetExceededError as exc:
        assert exc.budget == 3


def test_walk_work_is_pinned():
    # the least budget at which each search answers: one node per placement,
    # so a change to the order, the candidate rule or the node accounting
    # moves them
    s, (d, _) = graph_s(), d_abc(1, 1, 2)
    cases = [
        (s, random_semi_regular(31, seed=1), 5, 117_756),
        (d, s, 4, 9),
        (cycle_power(6, 2), blow_up(rotational(7, [1, 2, 4]), 3)[0], 2_478, 2_478),
        (s, d_abc(3, 3, 3)[0], 183, 183),
    ]
    for pattern, host, find_nodes, count_nodes in cases:
        for search, nodes in ((find_embedding, find_nodes), (count_embeddings, count_nodes)):
            expected = search(pattern, host)
            assert search(pattern, host, budget=nodes) == expected
            with pytest.raises(BudgetExceededError):
                search(pattern, host, budget=nodes - 1)
    assert copy_hypergraph(d, semi_regular_tournament(32)).nodes == 24_328


def test_enumerate_index_vectors():
    # copies found by the embedding search, read as index vectors
    w = t_sk(2, 1)
    d2, _ = d_abc(2, 2, 2)
    assert edge_vectors(copy_hypergraph(d2, w.graph), w.partition).vectors == {(2, 2, 2)}
    d, parts = d_abc(1, 1, 2)
    assert edge_vectors(copy_hypergraph(d, d), parts).vectors == {(1, 1, 2)}


def test_pattern_deeper_than_the_recursion_limit():
    # the walk keeps one stack slot per pattern vertex, not one frame
    n = sys.getrecursionlimit() + 10
    t = transitive(n)
    assert find_embedding(t, t).mapping == tuple(range(n))
    hyper = copy_hypergraph(t, t)
    assert (hyper.edges, hyper.nodes) == (((1 << n) - 1,), n)


def test_search_leaves_no_cyclic_garbage():
    # no search leaves a reference cycle behind
    s, t7 = graph_s(), rotational(7, [1, 2, 4])
    calls = {
        "find_embedding": lambda: find_embedding(s, t7),
        "copy_hypergraph": lambda: copy_hypergraph(f_r(1), t7).edges,
        "perfect_tiling": lambda: perfect_tiling(f_r(1), t7).mode,
        "canonical_form": lambda: canonical_form(t7),
        "enumerate_regular_tournaments": lambda: enumerate_regular_tournaments(5),
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            for _ in range(200):
                assert call(), name
            assert gc.collect() == 0, name
        finally:
            gc.enable()

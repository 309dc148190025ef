"""Vertex statistics, their windows, and the extremal-structure checker."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oriograph.core import OrientedGraph, Partition, read_graph
from oriograph.analysis import (
    _move_costs,
    cyclic_edge_stat,
    cyclic_edge_window,
    d_copies_floor,
    d_copy_counts,
    extremal_check,
    extremal_sizes_fit,
    find_extremal_partition,
    semi_degree_slack,
)
from oriograph.generators import c3_barrier, d_abc, rotational, t_sk, transitive
from oriograph.oracles import d_copy_counts as brute_d_copies
from oriograph.oracles import extremal_partition, random_oriented, random_tournament
from oriograph.search import random_semi_regular


def brute_cyclic_edges(graph, v):
    outs = graph.out_neighbors(v)
    ins = set(graph.in_neighbors(v))
    return sum(1 for u in outs for w in graph.out_neighbors(u) if w in ins)


def test_known_statistic_values():
    c52 = rotational(5, [1, 2])
    t7 = rotational(7, [1, 2, 4])
    for v in range(5):
        assert cyclic_edge_stat(c52, v) == 3
    for v in range(7):
        assert cyclic_edge_stat(t7, v) == 6
    assert tuple(d_copy_counts(c52)) == (4,) * 5
    assert tuple(d_copy_counts(t7)) == (12,) * 7


def test_statistics_match_brute_force():
    for n in (8, 11):
        g = random_semi_regular(n, seed="stats")
        assert d_copy_counts(g) == brute_d_copies(g)
        for v in range(n):
            assert cyclic_edge_stat(g, v) == brute_cyclic_edges(g, v)


def test_d_copy_counts_on_graphs_with_non_edges():
    # the labelling a->b, a->c, b->c, b->d, c->d, d->a needs all six pairs
    # to be edges, so a 4-set with a non-edge is never counted
    rng = random.Random("d-copies")
    for trial in range(60):
        n = rng.randrange(4, 13)
        g = (random_tournament if trial % 4 == 0 else random_oriented)(rng, n)
        assert d_copy_counts(g) == brute_d_copies(g), trial


def test_d_copy_counts_on_edge_shapes():
    # edgeless graphs on 0..5 vertices, then orders below 4 with edges,
    # transitive tournaments, a 4-cycle with one chord, and a triangle or a
    # near-tournament beside an isolated vertex
    shapes = [OrientedGraph(n) for n in range(6)] + [
        OrientedGraph(2, [(0, 1)]),
        rotational(3, [1]),
        transitive(3),
        transitive(4),
        transitive(9),
        OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        OrientedGraph(4, [(0, 1), (1, 2), (2, 0)]),
        OrientedGraph(5, [(u, v) for u, v in rotational(5, [1, 2]).edges() if 4 not in (u, v)]),
    ]
    for g in shapes:
        assert d_copy_counts(g) == brute_d_copies(g), (g.n, g.edges())
    assert d_copy_counts(transitive(9)) == [0] * 9
    assert d_copy_counts(OrientedGraph(0)) == []
    # the strong 4-tournament with an isolated fifth vertex
    d_graph, _ = d_abc(1, 1, 2)
    lone = OrientedGraph(5, d_graph.edges())
    assert d_copy_counts(lone) == brute_d_copies(lone) == [1, 1, 1, 1, 0]


def test_d_copy_counts_on_walk_hosts_are_pinned():
    # sha256 of the counts of each host, n = 9..31, one line each in
    # decimal joined by commas: past the reach of the brute-force oracle
    text = "\n".join(
        ",".join(map(str, d_copy_counts(random_semi_regular(n, seed="d-pin"))))
        for n in range(9, 32)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e87617fbf89c06e3a220f57b88e73dcbec007de29f70342fcff5f86d892d75f6"
    )


def test_windows_hold_on_sampled_hosts():
    for i, n in enumerate((9, 12, 15, 20)):
        g = random_semi_regular(n, seed=f"window:{i}")
        assert semi_degree_slack(g) == Fraction(1 if n % 2 else 2, 2 * n)
        lo, hi = cyclic_edge_window(g)
        floor = d_copies_floor(g)
        counts = d_copy_counts(g)
        for v in range(n):
            assert lo <= cyclic_edge_stat(g, v) <= hi
            assert counts[v] >= floor


def test_slack_is_undefined_on_the_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        semi_degree_slack(OrientedGraph(0))


def test_extremal_check_refuses_a_partition_without_3_parts():
    host, _ = d_abc(2, 2, 2)
    with pytest.raises(ValueError, match="3 parts"):
        extremal_check(host, Partition([[0, 1, 2], [3, 4, 5]]), 0.1)


def test_extremal_partition_oracle_refuses_n_above_12():
    with pytest.raises(ValueError, match="n <= 12, got 13"):
        extremal_partition(transitive(13), 0.1)


def test_extremal_check_on_planted_partition():
    host, parts = d_abc(3, 3, 3)
    verdict = extremal_check(host, parts, gamma=0.05)
    assert verdict.ok
    assert verdict.reverse_counts == (0, 0, 0)
    assert verdict.sizes == (3, 3, 3)


def test_extremal_check_tries_all_orders():
    host, parts = d_abc(3, 3, 3)
    # a rotation keeps the cyclic pattern, a swap needs a different order
    swapped = Partition([sorted(parts.parts[1]), sorted(parts.parts[0]), sorted(parts.parts[2])])
    verdict = extremal_check(host, swapped, gamma=0.05)
    assert verdict.ok
    assert verdict.passing_order != (0, 1, 2)
    rotated = Partition([sorted(parts.parts[2]), sorted(parts.parts[0]), sorted(parts.parts[1])])
    assert extremal_check(host, rotated, gamma=0.05).passing_order == (0, 1, 2)


def test_t7_has_no_extremal_partition_exhaustively():
    t7 = rotational(7, [1, 2, 4])
    gamma = 0.05
    for labels in product(range(3), repeat=7):
        parts = [[v for v in range(7) if labels[v] == lab] for lab in range(3)]
        if any(not p for p in parts):
            continue
        assert not extremal_check(t7, Partition(parts), gamma).ok


def test_find_extremal_partition_recovers_plant():
    host, parts = d_abc(4, 4, 4)
    found = find_extremal_partition(host, gamma=0.1, seed=7)
    assert found is not None
    verdict = extremal_check(host, found, gamma=0.1)
    assert verdict.ok
    sizes = sorted(len(p) for p in found.parts)
    assert sizes == [4, 4, 4]


def test_extremal_sizes_fit_against_every_size_triple():
    # some sizes a <= b <= c summing to n all in the window, by brute force
    for n in range(91):
        for gamma in [i / 400 for i in range(81)] + [1 / 3, 0.5, 1.0]:
            lo, hi = (1 / 3 - gamma) * n, (1 / 3 + gamma) * n
            brute = any(
                lo <= a and n - a - b <= hi for a in range(n // 3 + 1) for b in range(a, (n - a) // 2 + 1)
            )
            assert extremal_sizes_fit(n, gamma) == brute, (n, gamma)


def test_find_extremal_partition_gives_up_on_t7():
    t7 = rotational(7, [1, 2, 4])
    assert find_extremal_partition(t7, gamma=0.05, seed=1) is None


def test_extremal_partition_oracle_agrees_with_the_checker():
    # every labelling through extremal_check, against the oracle's own
    # reading of the definition; local search finds nothing the oracle misses
    rng = random.Random("extremal-oracle")
    for trial in range(12):
        n = rng.randrange(3, 9)
        g = (random_tournament if trial % 2 else random_oriented)(rng, n)
        gamma = rng.choice((0.05, 0.1, 0.2))
        exists = any(
            extremal_check(g, Partition([[v for v in range(n) if labels[v] == p] for p in range(3)]), gamma).ok
            for labels in product(range(3), repeat=n)
        )
        found = extremal_partition(g, gamma)
        assert (found is not None) == exists, trial
        assert found is None or extremal_check(g, found, gamma).ok, trial
        assert found is not None or find_extremal_partition(g, gamma, seed=trial) is None, trial


def test_move_costs_against_the_edge_count():
    # the local search's score for moving v to dst, current total minus
    # v's cost in its part plus its cost in dst, against the reverse edges
    # after the move counted straight from the edge list
    def reverse_edges(g, labels):
        return sum(labels[b] == (labels[a] - 1) % 3 for a, b in g.edges())

    rng = random.Random("move-costs")
    for trial in range(40):
        n = rng.randrange(1, 13)
        g = (random_tournament if trial % 2 else random_oriented)(rng, n)
        labels = [rng.randrange(3) for _ in range(n)]
        masks = [sum(1 << v for v in range(n) if labels[v] == p) for p in range(3)]
        current = reverse_edges(g, labels)
        for v in range(n):
            costs = _move_costs(g.out_rows[v], g.in_rows[v], masks)
            for dst in range(3):
                moved = labels[:v] + [dst] + labels[v + 1:]
                assert current - costs[labels[v]] + costs[dst] == reverse_edges(g, moved), (trial, v, dst)


def test_find_extremal_partition_parts_are_pinned():
    # the parts the local search returns on the barrier families, as the
    # sha256 of repr(parts): the same moves win every sweep
    cases = (
        (c3_barrier(8)[0], "8bc41b5393c00a0566aaadf8d84a1a145ba94e7483697ae186206e1659cdf29e"),
        (c3_barrier(20)[0], "a1712ffe1ecdc561cc754f8bb1abedc35c9621ed80ec58468531a7985ce827d3"),
        (t_sk(2, 7).graph, "6fa176c3e9a6c84a8788ad0b4bd9cde2d4025e181291f5c1a6ffcd553861668a"),
        (t_sk(3, 3).graph, "8dfe2e9959f1390a720c1c4c51baf43efed5b063c166ea81766ed5744a924d52"),
    )
    for host, digest in cases:
        found = find_extremal_partition(host, 0.05)
        assert hashlib.sha256(repr(found.parts).encode()).hexdigest() == digest, host


def test_local_search_misses_a_partition_the_oracle_finds():
    # d_abc(3, 3, 3) with some edges reversed and the vertices relabelled:
    # a 0.05-extremal partition exists, but no restart of the local search
    # reaches one
    host = read_graph(Path(__file__).parent / "data" / "extremal_miss.dg")
    assert find_extremal_partition(host, 0.05, seed="0") is None
    found = extremal_partition(host, 0.05)
    assert found is not None
    assert extremal_check(host, found, 0.05).ok

"""Named families: orders, degrees, partitions, and local edge rules."""

import hashlib
import inspect

import pytest

from oriograph import generators
from oriograph.core import MAX_VERTICES, isomorphic_brute, serialize, serialize_partition
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


def test_transitive():
    g = transitive(5)
    assert g.edge_count == 10
    assert g.score_multiset() == (0, 1, 2, 3, 4)
    assert all(g.has_edge(u, v) for u in range(5) for v in range(u + 1, 5))


def test_cycle_power():
    c52 = cycle_power(5, 2)
    assert c52.classify().is_regular
    c62 = cycle_power(6, 2)
    assert not c62.is_tournament()
    assert all(c62.degrees(v) == (2, 2) for v in range(6))
    assert c62.has_edge(4, 0) and c62.has_edge(5, 1)
    for k, length in ((2, 1), (5, 0), (5, 3), (6, 3)):
        with pytest.raises(ValueError):
            cycle_power(k, length)


def test_rotational():
    t7 = rotational(7, [1, 2, 4])
    assert t7.classify().is_regular
    assert all(t7.has_edge(v, (v + 2) % 7) for v in range(7))
    with pytest.raises(ValueError):
        rotational(6, [1, 2])
    with pytest.raises(ValueError):
        rotational(7, [1, 6])
    with pytest.raises(ValueError):
        rotational(7, [0])


def test_graph_s():
    s = graph_s()
    assert s.n == 5 and s.edge_count == 8
    for u, v in ((0, 4), (3, 4)):
        assert not s.has_edge(u, v) and not s.has_edge(v, u)
    for u, v in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 0), (4, 1)):
        assert s.has_edge(u, v)


def test_d_abc():
    d, parts = d_abc(1, 1, 2)
    assert d.is_tournament()
    assert d.score_multiset() == (1, 1, 2, 2)
    assert parts.index_vector(range(4)) == (1, 1, 2)
    big, parts = d_abc(2, 3, 4)
    assert big.n == 9 and parts.index_vector(range(9)) == (2, 3, 4)
    # parts are transitive inside, cross edges go part p to part p+1 mod 3
    assert big.has_edge(5, 6) and not big.has_edge(6, 5)
    assert big.has_edge(0, 2) and big.has_edge(2, 5) and big.has_edge(5, 0)
    with pytest.raises(ValueError):
        d_abc(0, 1, 1)


def test_f_r():
    assert isomorphic_brute(f_r(1), rotational(3, [1]))
    f2 = f_r(2)
    assert f2.n == 9
    assert f2.classify().is_regular
    # most significant differing base-3 digit decides: 3 -> 6, 8 -> 2
    assert f2.has_edge(3, 6) and f2.has_edge(8, 2)
    assert f2.has_edge(0, 1) and f2.has_edge(2, 0)
    with pytest.raises(ValueError):
        f_r(0)
    with pytest.raises(ValueError):
        f_r(7)


def test_blow_up():
    base = rotational(3, [1])
    g, parts = blow_up(base, 2)
    assert g.n == 6 and parts.index_vector(range(6)) == (2, 2, 2)
    assert g.min_semi_degree() == 2
    # no edges inside a class, base orientation across classes
    assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert g.has_edge(0, 2) and g.has_edge(4, 0)
    with pytest.raises(ValueError):
        blow_up(base, 0)
    with pytest.raises(ValueError):
        blow_up(base, 400)


def test_semi_regular_tournament():
    for m in (3, 4, 5, 6, 9, 10):
        g = semi_regular_tournament(m)
        assert g.n == m
        assert g.classify().is_semi_regular, m


def test_t_sk():
    w = t_sk(2, 1)
    q = 4
    assert w.graph.n == 3 * q
    assert w.partition.index_vector(range(12)) == (q - 1, q, q + 1)
    assert w.graph.classify().is_semi_regular
    assert set(w.graph.score_multiset()) <= {3 * q // 2 - 1, 3 * q // 2}
    assert len(w.reverse_edges) == q
    for u, v in w.reverse_edges:
        assert w.graph.has_edge(u, v)
    with pytest.raises(ValueError):
        t_sk(3, 0)
    with pytest.raises(ValueError):
        t_sk(1, 1)


def test_t_sk_refuses_a_negative_k():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        t_sk(2, -1)


def test_c3_barrier():
    for n in (2, 3, 4, 5):
        g, parts = c3_barrier(n)
        assert g.n == 3 * n
        assert sorted(len(p) for p in parts.parts) == [n - 1, n, n + 1]
        assert g.min_semi_degree() == (3 * n - 3) // 2
    with pytest.raises(ValueError):
        c3_barrier(0)


def construction_digest(built):
    """sha256 of each graph's .dg text, followed by its .parts text for a pair."""
    text = "".join(
        serialize(b[0]) + serialize_partition(b[1]) if isinstance(b, tuple) else serialize(b)
        for b in built
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_three_part_constructions_are_pinned():
    # graphs, parts and reversed matchings, recorded while each family
    # still built its own three-part edge list
    d = [d_abc(*abc) for abc in ((1, 1, 1), (1, 1, 2), (2, 3, 4), (3, 3, 3), (5, 1, 7))]
    c = [c3_barrier(n) for n in (1, 2, 3, 4, 7, 10)]
    ws = [t_sk(s, k) for s, k in ((2, 0), (2, 1), (3, 1), (4, 0), (2, 7))]
    reversed_ = ";".join(",".join(f"{u}>{v}" for u, v in sorted(w.reverse_edges)) for w in ws)
    assert construction_digest(d) == "d00030eb0b629e202a197ce4d57658a5b100275907ceb7b27d51c4bc3ec3b916"
    assert construction_digest(c) == "9ff42ecce86dd1b432554c3ac6c6ca2e26195a4efae1663923c3be7f0908cf65"
    assert construction_digest((w.graph, w.partition) for w in ws) == (
        "ff574403d530633ee730807f9d0024da969eb5fae022db6d115ddda95b356735"
    )
    assert hashlib.sha256(reversed_.encode()).hexdigest() == (
        "fbbe424f5907eb61422a80d6c29938b435faae3af7a7bbd43ac28538bfe844a7"
    )


BLOW_UP_BASES = (rotational(7, [1, 2, 4]), graph_s(), cycle_power(6, 2))
FAMILY_PINS = {
    "transitive": (
        lambda: [transitive(n) for n in (0, 1, 2, 5, 9, 40)],
        "42eeb3d8f4eb4327829b4d37df7da87869bf41cccd323ae1e92dda052da11298",
    ),
    "cycle_power": (
        lambda: [cycle_power(k, ell) for k, ell in ((3, 1), (5, 2), (6, 2), (8, 3), (11, 5))],
        "d74462b3228a9f4ea5f17b060506c87fb2273eb781ec116d39ca4d8e6916fe07",
    ),
    "rotational": (
        lambda: [
            rotational(n, rs)
            for n, rs in ((3, [1]), (7, [1, 2, 4]), (9, [1, 2, 3, 4]), (13, [1, 3, 4]))
        ],
        "e31a44be8b84510f25781dcfa468bdea09b829439be60f2890ac7ee42fb4fa3b",
    ),
    "semi_regular_tournament": (
        lambda: [semi_regular_tournament(m) for m in range(34)],
        "d801317458a7882375a648f01a9bfd1b5cb4530bf6cb233a2dafff9851036dd5",
    ),
    "f_r": (
        lambda: [f_r(r) for r in range(1, 5)],
        "4f5a0966276dd95aa79f2fc11f5beea68419dcbb4e296b19c3ddd98fca417414",
    ),
    "blow_up": (
        lambda: [blow_up(b, t) for b in BLOW_UP_BASES for t in (1, 2, 3)],
        "5300f7ffbda68108b06b5accd2b6f7805cb905ef60d5f75d8ccaeb077cdfa6e4",
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_PINS))
def test_row_built_families_are_pinned(family):
    # recorded while these families still built edge lists and digit loops
    build, digest = FAMILY_PINS[family]
    assert construction_digest(build()) == digest


# each public family's arguments for its least order past MAX_VERTICES, and
# that order; None for graph_s, whose order is fixed
PAST_THE_CAP = {
    "transitive": ((MAX_VERTICES + 1,), MAX_VERTICES + 1),
    "cycle_power": ((MAX_VERTICES + 1, 1), MAX_VERTICES + 1),
    "rotational": ((MAX_VERTICES + 1, [1]), MAX_VERTICES + 1),
    "semi_regular_tournament": ((MAX_VERTICES + 1,), MAX_VERTICES + 1),
    "d_abc": ((MAX_VERTICES - 1, 1, 1), MAX_VERTICES + 1),
    "blow_up": ((transitive(5), 205), 1025),
    "f_r": ((7,), 2187),  # orders are powers of 3
    "c3_barrier": ((342,), 1026),  # orders are multiples of 3
    "t_sk": ((2, 170), 1026),  # orders are multiples of 6
    "graph_s": None,
}
FAMILIES = sorted(
    name
    for name, fn in inspect.getmembers(generators, inspect.isfunction)
    if fn.__module__ == generators.__name__ and not name.startswith("_")
)


@pytest.mark.parametrize("name", FAMILIES)
def test_every_family_refuses_orders_past_the_cap(name):
    # a family missing from the table fails here with a KeyError
    case = PAST_THE_CAP[name]
    family = getattr(generators, name)
    if case is None:
        assert family().n <= MAX_VERTICES
        return
    args, order = case
    with pytest.raises(ValueError, match=f"must be in 0\\.\\.{MAX_VERTICES}, got {order}$"):
        family(*args)

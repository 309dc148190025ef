"""Constructions of named oriented graphs and tournaments.

Most of these revolve around a directed triangle of vertex classes: the
triangle blow-up d_abc places transitive tournaments of sizes a, b, c on
three parts with all cross edges running part 1 -> part 2 -> part 3 ->
part 1.  The barrier constructions t_sk and c3_barrier keep that cyclic
cross pattern but make the parts slightly unbalanced, which blocks
perfect tilings by divisibility while keeping the minimum semi-degree as
large as possible.

Every family but graph_s is built as out-rows through
OrientedGraph.from_out_rows.  The row builders (transitive, _circulant,
_cyclic_parts and blow_up) call core.check_order before any work sized
by the order, so an order the package refuses costs no memory.
"""

from __future__ import annotations

from .core import OrientedGraph, Partition, Record, bits, check_order


def transitive(n):
    """Transitive tournament: i -> j iff i < j."""
    check_order(n)
    full = (1 << n) - 1
    return OrientedGraph.from_out_rows(n, [full ^ ((2 << i) - 1) for i in range(n)])


def cycle_power(k, length):
    """C_k^l on vertices 0..k-1: i -> j iff (j - i) mod k is in 1..l."""
    if k < 3:
        raise ValueError("cycle power needs k >= 3")
    if not 1 <= length <= (k - 1) // 2:
        raise ValueError(f"need 1 <= l <= (k-1)//2, got l={length} for k={k}")
    return OrientedGraph.from_out_rows(k, _circulant(k, range(1, length + 1)))


def rotational(n, residues):
    """i -> j iff (j - i) mod n lies in the residue set.

    The residue set may not contain a residue together with its negation,
    otherwise some pair would be oriented both ways.
    """
    res = sorted(set(residues))
    if n % 2 == 0:
        raise ValueError("rotational construction needs odd n")
    for r in res:
        if not 1 <= r <= n - 1:
            raise ValueError(f"residue {r} out of range 1..{n - 1}")
        if (n - r) % n in res:
            raise ValueError(f"residues {r} and {n - r} would orient a pair both ways")
    return OrientedGraph.from_out_rows(n, _circulant(n, res))


def _circulant(n, residues):
    """Out-rows on vertices 0..n-1 with i -> j iff (j - i) mod n lies in
    residues, distinct values in 1..n-1."""
    check_order(n)
    base = sum(1 << r for r in residues)
    wrap = (1 << n) - 1
    return [(base << i) & wrap | base >> (n - i) for i in range(n)]


def graph_s():
    """The 5-vertex, 8-edge oriented graph S; pairs {0,4} and {3,4} stay unoriented."""
    return OrientedGraph(
        5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 0), (4, 1)]
    )


def d_abc(a, b, c):
    """Triangle blow-up with transitive parts of sizes a, b, c.

    Cross edges run part 1 -> part 2 -> part 3 -> part 1; inside each part
    vertices are ordered transitively.  Returns (graph, partition).
    d_abc(s, s, s) is a tournament on 3s vertices; d_abc(1, 1, 2) is the
    unique strongly connected tournament on 4 vertices.
    """
    if min(a, b, c) < 1:
        raise ValueError("part sizes must be positive")
    return _cyclic_parts((a, b, c), transitive)


def f_r(r):
    """Recursive triangle tower: f_r(1) is the directed triangle, and level
    r+1 takes three copies of level r with cross edges copy 1 -> copy 2 ->
    copy 3 -> copy 1.  A regular tournament on 3^r vertices.

    Vertex i -> vertex j iff at the most significant base-3 digit where i
    and j differ, the digit of j is the digit of i plus one mod 3.
    """
    if r < 1:
        raise ValueError("level must be at least 1")
    tower = transitive(1)  # level 0: one vertex
    for _ in range(r):
        tower = _cyclic_parts((tower.n,) * 3, lambda size, copy=tower: copy)[0]
    return tower


def blow_up(base, t):
    """Replace each vertex of base by an independent set of t vertices; all
    edges between two classes follow the base orientation.  Returns
    (graph, partition) with one part per base vertex.
    """
    if t < 1:
        raise ValueError("class size must be positive")
    n = base.n * t
    check_order(n)
    # first, so that a base with no vertex is refused before t is used
    partition = Partition([range(i * t, (i + 1) * t) for i in range(base.n)])
    block = (1 << t) - 1  # the vertices of class 0
    rows = []
    for row in base.out_rows:
        rows.extend([sum(block << j * t for j in bits(row))] * t)
    return OrientedGraph.from_out_rows(n, rows), partition


def semi_regular_tournament(m):
    """Deterministic semi-regular tournament on m vertices.

    The circulant with residues 1..(m-1)/2 for odd m (rotational), and
    1..m/2-1 for even m plus the m/2 diameter pairs oriented low -> high,
    so the vertices of highest out-degree are exactly 0..m/2-1.
    """
    rows = _circulant(m, range(1, (m + 1) // 2))
    if m % 2 == 0:
        for i in range(m // 2):
            rows[i] |= 1 << (i + m // 2)
    return OrientedGraph.from_out_rows(m, rows)


class TskWitness(Record):
    """t_sk output: the tournament, its part structure, and the two reversed
    matchings as directed edges (the only edges running against the cyclic
    cross pattern)."""

    __slots__ = ("graph", "partition", "reverse_edges")


def t_sk(s, k):
    """Semi-regular tournament on 3s(k+1) vertices with no perfect tiling by
    the triangle blow-up on 3s vertices.

    Writing q = s(k+1) (required even), this is c3_barrier(q), parts of
    sizes q-1, q, q+1 with semi-regular internal tournaments and cross
    edges part 1 -> part 2 -> part 3 -> part 1, with two matchings of size
    q/2 reversed: one from part 3 back onto the highest out-degree
    vertices of part 2, one from the first q/2 vertices of part 1 onto the
    same q/2 vertices of part 3.  Every out-degree lands in
    {3q/2 - 1, 3q/2}.
    """
    if s < 2:
        raise ValueError("s must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    q = s * (k + 1)
    if q % 2:
        raise ValueError(f"s(k+1) = {q} must be even")
    graph, partition = c3_barrier(q)
    half = q // 2
    o2, o3 = q - 1, 2 * q - 1  # the first vertices of parts 2 and 3
    reverse = {(o3 + j, o2 + j) for j in range(half)} | {(j, o3 + j) for j in range(half)}
    rows = list(graph.out_rows)
    for u, v in reverse:
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return TskWitness(
        graph=OrientedGraph.from_out_rows(3 * q, rows),
        partition=partition,
        reverse_edges=frozenset(reverse),
    )


def c3_barrier(n):
    """Tournament on 3n vertices with parts of sizes n-1, n, n+1, cross edges
    part 1 -> part 2 -> part 3 -> part 1, and semi-regular internal
    tournaments.  No perfect tiling by directed triangles exists because
    every triangle meets the parts in counts (3,0,0)-type or (1,1,1), all
    equal modulo 3, while the part sizes are not.  Returns (graph,
    partition).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _cyclic_parts((n - 1, n, n + 1), semi_regular_tournament)


def _cyclic_parts(sizes, inner):
    """Three consecutive parts of the given sizes, part p carrying
    inner(sizes[p]), and every cross edge running part 1 -> part 2 ->
    part 3 -> part 1.  Returns (graph, partition)."""
    bounds = [0, sizes[0], sizes[0] + sizes[1], sum(sizes)]
    check_order(bounds[3])
    rows = []
    for p in range(3):
        lo = bounds[p]
        nlo, nhi = bounds[(p + 1) % 3], bounds[(p + 1) % 3 + 1]
        ahead = (1 << nhi) - (1 << nlo)  # the vertices of the next part
        rows.extend(row << lo | ahead for row in inner(sizes[p]).out_rows)
    parts = [range(bounds[p], bounds[p + 1]) for p in range(3)]
    return OrientedGraph.from_out_rows(bounds[3], rows), Partition(parts)

"""Divisibility obstructions to perfect tilings, via residue lattices.

Fix a partition P of the host into d parts.  Every copy of a k-vertex
pattern F has an index vector in Z^d counting its vertices per part, and
a perfect tiling sums copy vectors to the index vector of the whole
host.  Reducing modulo an integer m (typically m = k) turns this into a
reachability question in the finite group (Z_m)^d: if the host's vector
is not in the subgroup generated by the achieved copy vectors, no
perfect tiling exists.  The subgroup is computed by breadth-first
closure, which is exact because the group is finite.

The module also computes edge-vector statistics of copy hypergraphs
(which vectors occur, with multiplicities), robust vectors above a count
threshold, 2-transferrals (pairs of robust vectors differing by e_i -
e_j, whose absence is the standard divisibility barrier), linking sets
between vertex pairs, and the reverse-edge family membership test for
3-partitioned hosts: reverse edges are those running part 1 -> part 3,
part 3 -> part 2, or part 2 -> part 1, and membership requires that no
vertex meets two reverse edges of the same part pair and that no
triangle is all-reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .tiling import copy_hypergraph

STATE_CAP = 1_000_000


@dataclass(frozen=True)
class ResidueLattice:
    """Subgroup of (Z_m)^d generated by the given vectors."""

    modulus: int
    dimension: int
    members: frozenset

    def contains(self, vector):
        if len(vector) != self.dimension:
            raise ValueError(
                f"vector has dimension {len(vector)}, lattice has {self.dimension}"
            )
        return tuple(x % self.modulus for x in vector) in self.members

    def __contains__(self, vector):
        return self.contains(vector)

    def __len__(self):
        return len(self.members)


def residue_lattice(generators, modulus, dimension):
    """Breadth-first closure of {0} under adding generators, modulo m."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if modulus**dimension > STATE_CAP:
        raise ResourceLimitError(
            f"state space {modulus}^{dimension} exceeds the cap of {STATE_CAP}"
        )
    gens = []
    for g in generators:
        if len(g) != dimension:
            raise ValueError(f"generator {g} does not have dimension {dimension}")
        gens.append(tuple(x % modulus for x in g))
    zero = (0,) * dimension
    members = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % modulus for a, b in zip(v, g))
            if w not in members:
                members.add(w)
                frontier.append(w)
    return ResidueLattice(modulus=modulus, dimension=dimension, members=frozenset(members))


@dataclass(frozen=True)
class EdgeVectorReport:
    """Index vectors of a copy hypergraph's edges, with multiplicities."""

    dimension: int
    counts: tuple  # ((vector, count), ...) sorted by vector
    threshold: int

    @property
    def vectors(self):
        return frozenset(v for v, _ in self.counts)

    @property
    def robust(self):
        return frozenset(v for v, c in self.counts if c >= self.threshold)


def edge_vectors(hyper, partition, threshold=1):
    """Tally the index vector of every hyperedge; robust means count >= threshold."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    tally = {}
    for e in hyper.edges:
        vec = partition.index_vector_of_mask(e)
        tally[vec] = tally.get(vec, 0) + 1
    return EdgeVectorReport(
        dimension=partition.d,
        counts=tuple(sorted(tally.items())),
        threshold=threshold,
    )


def find_2_transferrals(report):
    """All ordered pairs of robust vectors differing by a unit-vector swap.

    Returns sorted tuples (i, j, v1, v2) with v1 - v2 = e_i - e_j; an empty
    list means the robust vectors admit no 2-transferral.
    """
    robust = sorted(report.robust)
    found = []
    for v1 in robust:
        for v2 in robust:
            diff = tuple(a - b for a, b in zip(v1, v2))
            plus = [t for t, x in enumerate(diff) if x == 1]
            minus = [t for t, x in enumerate(diff) if x == -1]
            if len(plus) == 1 and len(minus) == 1 and all(
                x in (-1, 0, 1) for x in diff
            ):
                found.append((plus[0], minus[0], v1, v2))
    return sorted(found)


@dataclass(frozen=True)
class LatticeVerdict:
    refutes: bool
    modulus: int
    target: tuple
    lattice: ResidueLattice


def tiling_lattice_precheck(hyper, partition):
    """Decide whether copy index vectors can sum to the host's index vector
    modulo m, the pattern order.  refutes=True is a proof that no perfect
    tiling exists; refutes=False says nothing either way.
    """
    m = hyper.k
    report = edge_vectors(hyper, partition)
    lat = residue_lattice(report.vectors, m, partition.d)
    target = tuple(len(p) % m for p in partition.parts)
    return LatticeVerdict(
        refutes=not lat.contains(target), modulus=m, target=target, lattice=lat
    )


def is_in_family_g(graph, partition):
    """Membership in the reverse-edge family for 3-part hosts.

    With parts V1, V2, V3 and the forward cyclic pattern V1 -> V2 -> V3 ->
    V1, the reverse edges are those from V1 to V3, V3 to V2, or V2 to V1.
    Membership requires each part pair's reverse edges to form a matching
    and forbids an all-reverse triangle (one vertex per part).  Returns
    (verdict, reverse edge set).
    """
    if partition.d != 3:
        raise ValueError("the reverse-edge family is defined for 3 parts")
    if not partition.covers(graph):
        raise ValueError("partition does not cover the graph")
    reverse_pairs = ((0, 2), (2, 1), (1, 0))
    classes = {pair: [] for pair in reverse_pairs}
    for u, v in graph.edges():
        pu, pv = partition.part_of(u), partition.part_of(v)
        if (pu, pv) in classes:
            classes[(pu, pv)].append((u, v))
    rev = frozenset(e for cls in classes.values() for e in cls)
    for cls in classes.values():
        touched = set()
        for u, v in cls:
            if u in touched or v in touched:
                return (False, rev)
            touched.add(u)
            touched.add(v)
    # all-reverse triangle: a in V1 -> c in V3 -> b in V2 -> a
    for a, c in classes[(0, 2)]:
        for cc, b in classes[(2, 1)]:
            if cc == c and (b, a) in classes[(1, 0)]:
                return (False, rev)
    return (True, rev)


def linking_sets(graph, pattern, x, y, budget=None):
    """Count the (k - 1)-sets S avoiding x, y such that both S + {x} and
    S + {y} are vertex sets of copies of the k-vertex pattern, i.e.
    hyperedges of its copy hypergraph.
    """
    if x == y:
        raise ValueError("linking sets need two distinct vertices")
    graph._check_vertex(x)
    graph._check_vertex(y)
    hyper = copy_hypergraph(pattern, graph, budget=budget)
    return _linking_count(hyper, x, y)


def _linking_count(hyper, x, y):
    edge_set = set(hyper.edges)
    xbit, ybit = 1 << x, 1 << y
    return sum(
        1
        for e in hyper.edges
        if e & xbit and not e & ybit and (e ^ xbit | ybit) in edge_set
    )


@dataclass(frozen=True)
class ReachabilityReport:
    n: int
    counts: tuple  # counts[x][y] = number of linking sets, diagonal 0
    components: tuple


def reachability_report(graph, pattern, budget=None):
    """Linking-set counts for every vertex pair plus the components of the
    resulting reachability relation (a sketch of the closed partition)."""
    n = graph.n
    hyper = copy_hypergraph(pattern, graph, budget=budget)
    counts = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            c = _linking_count(hyper, x, y)
            counts[x][y] = counts[y][x] = c
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(n):
        for y in range(x + 1, n):
            if counts[x][y]:
                parent[find(x)] = find(y)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    components = tuple(tuple(g) for g in sorted(groups.values()))
    return ReachabilityReport(
        n=n, counts=tuple(tuple(row) for row in counts), components=components
    )

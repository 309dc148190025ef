"""Divisibility obstructions to perfect tilings, via residue lattices.

Fix a partition P of exactly the host's vertex set into d parts.  Every
copy of a k-vertex pattern F has an index vector in Z^d counting its
vertices per part, and a perfect tiling sums copy vectors to the index
vector of the whole host.  Reducing modulo an integer m (typically
m = k) turns this into a reachability question in the finite group
(Z_m)^d: if the host's vector is not in the subgroup generated by the
achieved copy vectors, no perfect tiling exists.

The subgroup H is kept as a Hermite basis (Kannan & Bachem 1979) of the
integer lattice L = span(generators) + m Z^d, whose image mod m is H.
Row j is zero before column j and has a pivot h_j > 0 there; each entry
above a pivot is reduced into [0, h_j).  The basis comes from Euclid's
algorithm run one column at a time, starting from m e_j, so every step
is an integer row operation that keeps L, and h_j divides m.  A full-rank
lattice has exactly one such basis, so equal subgroups give equal
records.  A vector lies in L iff reducing it row by row leaves every
pivot column divisible by its pivot, and |H| = prod(m / h_j) because
L has index prod(h_j) in Z^d.  No member of H is ever listed.

The quotient bound limits the copy vectors without listing a copy.  For
an ordered pair of parts (i, j), the host edges from part i to part j are
absent, a matching (no two share a tail or a head; i != j only), or
other.  U is the set of index vectors of the maps from pattern vertices
to parts that send no pattern edge to an absent pair, and to a matching
pair no two pattern edges with a common tail or a common head.  A copy
composed with the part labels is such a map: two of its edges with a
common tail sent to (i, j) would give a host vertex of part i two
out-neighbours in part j, and likewise for heads.  So every copy vector
lies in U, the copy vectors generate a subgroup of <U> mod m, and a host
vector outside <U> is outside that subgroup too: the bound refutes only
what the copy vectors refute.  The maps are searched by backtracking
over the pattern vertices in embed's variable order, one node per
placement, and a search past MAP_CAP nodes bounds nothing.  The search
reads a per-slot plan built once: for each pattern vertex, its
neighbours in earlier slots with the direction of their edge and the
two pattern rows that hold the pair's other edges, so a placement tests
only those neighbours and reads nothing else of the pattern.  If every
pair is "other", or the pattern has no edge, U holds every composition
of m, whose span holds the host's vector (its sum is divisible by m), so
the search is skipped.

The module also computes edge-vector statistics of copy hypergraphs
(which vectors occur, with multiplicities), robust vectors above a count
threshold, and 2-transferrals (pairs of robust vectors differing by
e_i - e_j, whose absence is the standard divisibility barrier).  The
vectors are tallied column-wise: one list per part holds every copy's
count in that part (a mask AND and a popcount per copy, mapped in C), and
zipping the lists yields the vectors straight into a Counter, so no
Python code runs per copy.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .core import Record
from .embed import variable_order
from .errors import BudgetExceededError

# The quotient bound's map search stops after this many nodes and then
# refutes nothing: over 250 times the 30 to 372 nodes it spends on
# c3_barrier and on t_sk(s, k) for s <= 4.
MAP_CAP = 100_000


class ResidueLattice(Record):
    """Subgroup of (Z_m)^d generated by the given vectors, as the d rows of
    its Hermite basis (see the module docstring)."""

    __slots__ = ("modulus", "dimension", "basis")

    def contains(self, vector):
        if len(vector) != self.dimension:
            raise ValueError(
                f"vector has dimension {len(vector)}, lattice has {self.dimension}"
            )
        t = list(vector)
        for j, row in enumerate(self.basis):
            q, r = divmod(t[j], row[j])
            if r:
                return False
            for k in range(j + 1, self.dimension):
                t[k] -= q * row[k]
        return True

    __contains__ = contains

    @property
    def size(self):
        """|H| as a plain int; len() refuses counts past sys.maxsize."""
        return prod(self.modulus // row[j] for j, row in enumerate(self.basis))

    def __len__(self):
        return self.size


def residue_lattice(generators, modulus, dimension):
    """Hermite basis of span(generators) + m Z^d, column by column."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    m = modulus
    rows = []
    for g in generators:
        if len(g) != dimension:
            raise ValueError(f"generator {g} does not have dimension {dimension}")
        rows.append([x % m for x in g])
    basis = []
    for j in range(dimension):
        # Euclid on column j: every row left is zero before column j, and
        # the pivot starts as m e_j and ends as the gcd of the column and m.
        # Taking the later columns mod m adds multiples of m e_k, which lie
        # in L; column j stays exact, as pivot[j] - q r[j] = pivot[j] mod r[j] < m.
        pivot = [0] * dimension
        pivot[j] = m
        rest = []
        for r in rows:
            while r[j]:
                q = pivot[j] // r[j]
                pivot, r = r, [(a - q * b) % m for a, b in zip(pivot, r)]
            if any(r):
                rest.append(r)
        basis.append(pivot)
        rows = rest
    for j, row in enumerate(basis):
        for i in range(j):
            q = basis[i][j] // row[j]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], row)]
    return ResidueLattice(
        modulus=m, dimension=dimension, basis=tuple(map(tuple, basis))
    )


class EdgeVectorReport(Record):
    """Index vectors of a copy hypergraph's edges, with multiplicities."""

    # counts: ((vector, count), ...) sorted by vector
    __slots__ = ("dimension", "counts", "threshold")

    @property
    def vectors(self):
        return frozenset(v for v, _ in self.counts)

    @property
    def robust(self):
        return frozenset(v for v, c in self.counts if c >= self.threshold)


def edge_vectors(hyper, partition, threshold=1):
    """Tally the index vector of every hyperedge; robust means count >= threshold.

    The partition must cover exactly the vertices 0..n-1 of the hypergraph.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    partition.check_covers(hyper.n)
    edges = hyper.edges
    columns = [list(map(int.bit_count, map(pm.__and__, edges))) for pm in partition.masks]
    tally = Counter(zip(*columns))
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


class LatticeVerdict(Record):
    __slots__ = ("refutes", "modulus", "target", "lattice")


def _verdict(vectors, m, partition):
    lat = residue_lattice(vectors, m, partition.d)
    target = tuple(len(p) % m for p in partition.parts)
    return LatticeVerdict(
        refutes=not lat.contains(target), modulus=m, target=target, lattice=lat
    )


def tiling_lattice_precheck(hyper, partition):
    """Decide whether copy index vectors can sum to the host's index vector
    modulo m, the pattern order.  refutes=True is a proof that no perfect
    tiling exists; refutes=False says nothing either way.
    """
    return _verdict(edge_vectors(hyper, partition).vectors, hyper.k, partition)


class QuotientBound(Record):
    """U (None if the search was skipped or stopped at MAP_CAP), its verdict
    on the host's vector, and the map search's nodes."""

    __slots__ = ("vectors", "verdict", "nodes")


def quotient_bound(pattern, host, partition, budget=None):
    """Bound the copy vectors by U (see the module docstring) without listing
    a copy; the search's nodes count against the budget.  verdict.refutes=True
    is a proof that no perfect tiling exists, as in tiling_lattice_precheck."""
    partition.check_covers(host.n)
    d = partition.d
    # kind[i][j]: None if no host edge runs from part i to part j, True if
    # they form a matching (i != j, one head per tail, and the heads add
    # without a carry, so no two are equal), False otherwise
    kind = [[None] * d for _ in range(d)]
    for i, part in enumerate(partition.parts):
        for j, mask in enumerate(partition.masks):
            heads = [host.out_rows[u] & mask for u in part]
            if any(heads):
                single = all(h & (h - 1) == 0 for h in heads)
                kind[i][j] = i != j and single and sum(heads).bit_count() == sum(map(bool, heads))
    if not pattern.edge_count or all(k is False for row in kind for k in row):
        # every composition of |V(F)| is in U, which then refutes nothing
        return QuotientBound(vectors=None, verdict=None, nodes=0)
    outs, ins, order = pattern.out_rows, pattern.in_rows, variable_order(pattern)
    # per slot, its placed neighbours w as (w, True if the pattern edge runs
    # v -> w, the row at v and the row at w that hold the pair's other edges);
    # lists, as tuple() of a generator over-allocates and then shrinks,
    # which strands blocks in CPython's tuple free lists call after call
    plan = [
        [
            (w, True, outs[v], ins[w]) if outs[v] >> w & 1 else (w, False, ins[v], outs[w])
            for w in order[:slot]
            if (outs[v] | ins[v]) >> w & 1
        ]
        for slot, v in enumerate(order)
    ]
    members = [0] * d  # the pattern vertices placed in each part
    phi = [0] * pattern.n  # the part of each placed pattern vertex
    vectors = set()
    nodes = 0
    stack = [iter(range(d))]  # per slot, the parts not yet tried there
    while stack:
        slot = len(stack) - 1
        v = order[slot]
        members[phi[v]] &= ~(1 << v)
        for i in stack[-1]:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget)
            if nodes > MAP_CAP:
                return QuotientBound(vectors=None, verdict=None, nodes=nodes)
            for w, forward, row_v, row_w in plan[slot]:
                j = phi[w]
                k = kind[i][j] if forward else kind[j][i]
                if k is None:
                    break
                # a matching pair takes one pattern edge at each tail and
                # each head: at v only the edge with w, at w no other
                if k:
                    at_v = row_v & members[j]
                    if at_v & (at_v - 1) or row_w & members[i]:
                        break
            else:
                break
        else:
            stack.pop()
            continue
        members[i] |= 1 << v
        phi[v] = i
        if slot == pattern.n - 1:
            vectors.add(tuple(map(int.bit_count, members)))
        else:
            stack.append(iter(range(d)))
    return QuotientBound(
        vectors=frozenset(vectors), verdict=_verdict(vectors, pattern.n, partition), nodes=nodes
    )

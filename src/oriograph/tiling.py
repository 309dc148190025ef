"""Perfect tilings of a host graph by vertex-disjoint copies of a pattern.

A perfect tiling (an F-factor) by a k-vertex pattern F is a partition of
the host vertex set into blocks each containing a copy of F.  A copy is
the image of an embedding: every edge of F maps to a host edge, and the
host may have further edges inside the block (copies need not be
induced).  The vertex sets of the copies of F in G form a k-uniform
hypergraph on V(G); a perfect tiling is exactly a perfect matching of
that hypergraph, i.e. an exact cover of V(G) by hyperedges.

The solver is a bitmask exact-cover search: it always branches on the
uncovered vertex with the fewest remaining options and tries those
options in lexicographic vertex-set order, so runs are deterministic.
Refutations are certified in two distinct ways: "refuted-exhaustive"
means the cover search ran to completion, "refuted-lattice" means the
residue-lattice pre-check (see the lattice module) already proves the
host's index vector unreachable from the copies' index vectors, and
"refuted-divisibility" means |V(F)| does not divide |V(G)|.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .core import bits
from .errors import BudgetExceededError, ResourceLimitError
from .embed import _mappings, find_embedding

FOUND = "found"
REFUTED_EXHAUSTIVE = "refuted-exhaustive"
REFUTED_LATTICE = "refuted-lattice"
REFUTED_DIVISIBILITY = "refuted-divisibility"
INCONCLUSIVE = "inconclusive"

EDGE_CAP = 10_000_000


@dataclass(frozen=True)
class CopyHypergraph:
    """k-uniform hypergraph whose hyperedges are the vertex sets of the
    copies of the pattern, stored as vertex masks in lexicographic order
    of their sorted vertex tuples."""

    n: int
    k: int
    edges: tuple


@dataclass(frozen=True)
class Tiling:
    copies: tuple

    @property
    def covered(self):
        return frozenset(v for copy in self.copies for v in copy)

    def is_perfect(self, host):
        return len(self.covered) == host.n and sum(len(c) for c in self.copies) == host.n


@dataclass(frozen=True)
class TilingResult:
    mode: str
    tiling: Tiling | None = None
    note: str | None = None


def copy_hypergraph(pattern, host, budget=None):
    """Enumerate the vertex sets of all copies of the pattern in the host,
    by collecting the image set of every embedding."""
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    # a list in discovery order, which is nearly sorted, so the sort below is cheap
    edges = []
    seen = set()
    for mapping in _mappings(pattern, host, budget):
        mask = 0
        for w in mapping:
            mask |= 1 << w
        if mask in seen:
            continue
        if len(edges) >= EDGE_CAP:
            raise ResourceLimitError(f"copy enumeration exceeded the edge cap of {EDGE_CAP}")
        seen.add(mask)
        edges.append(mask)
    edges.sort(key=lambda mask: tuple(bits(mask)))
    return CopyHypergraph(n=host.n, k=pattern.n, edges=tuple(edges))


def _exact_cover(ground_mask, options, budget=None):
    """First exact cover of ground_mask by disjoint option masks, or None.

    options must be sorted; branching vertex is the uncovered one with the
    fewest live options (ties to the smallest vertex).
    """
    by_vertex = {}
    for idx, mask in options:
        for v in bits(mask):
            by_vertex.setdefault(v, []).append((idx, mask))
    nodes = 0

    def solve(remaining, chosen):
        nonlocal nodes
        if not remaining:
            return list(chosen)
        best_v, best_live = -1, None
        for v in bits(remaining):
            live = [
                (idx, mask)
                for idx, mask in by_vertex.get(v, ())
                if mask & ~remaining == 0
            ]
            if best_live is None or len(live) < len(best_live):
                best_v, best_live = v, live
                if not live:
                    return None
        for idx, mask in best_live:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget)
            chosen.append(idx)
            found = solve(remaining & ~mask, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    try:
        return solve(ground_mask, [])
    finally:
        # the recursive closure is a reference cycle that would keep
        # by_vertex alive until the next full garbage collection
        del solve


def hypergraph_perfect_matching(hyper, vertices, budget=None):
    """Disjoint hyperedges, as sorted vertex tuples, covering exactly the
    given vertex set, or None.

    Raises BudgetExceededError when the node budget runs out first.
    """
    vset = set(vertices)
    ground = 0
    for v in vset:
        if not 0 <= v < hyper.n:
            raise ValueError(f"vertex {v} outside the hypergraph ground set")
        ground |= 1 << v
    if hyper.k and len(vset) % hyper.k:
        return None
    options = [(idx, e) for idx, e in enumerate(hyper.edges) if e & ~ground == 0]
    chosen = _exact_cover(ground, options, budget)
    if chosen is None:
        return None
    return tuple(tuple(bits(hyper.edges[idx])) for idx in chosen)


def perfect_tiling(pattern, host, partition=None, budget=None):
    """Search for a perfect tiling of the host by pattern copies.

    With a partition of the host's vertex set, the residue-lattice
    pre-check runs first and can refute without any cover search.  Copies
    in a found tiling are re-verified against the host before returning.
    """
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if host.n % pattern.n:
        return TilingResult(
            REFUTED_DIVISIBILITY,
            note=f"pattern order {pattern.n} does not divide host order {host.n}",
        )
    try:
        hyper = copy_hypergraph(pattern, host, budget=budget)
    except BudgetExceededError:
        return TilingResult(INCONCLUSIVE, note="budget exhausted during copy enumeration")
    if partition is not None:
        # looked up at call time, so a wrapper set on the module attribute sees every call
        verdict = lattice.tiling_lattice_precheck(hyper, partition)
        if verdict.refutes:
            return TilingResult(
                REFUTED_LATTICE,
                note=f"host index vector {verdict.target} unreachable modulo {verdict.modulus}",
            )
    try:
        matching = hypergraph_perfect_matching(hyper, range(host.n), budget)
    except BudgetExceededError:
        return TilingResult(INCONCLUSIVE, note="budget exhausted during cover search")
    if matching is None:
        return TilingResult(REFUTED_EXHAUSTIVE)
    tiling = Tiling(copies=matching)
    if not verify_tiling(pattern, host, tiling):
        raise AssertionError("solver produced a tiling that fails re-verification")
    return TilingResult(FOUND, tiling=tiling)


def verify_tiling(pattern, host, tiling):
    """Check disjointness and that every block contains a copy of the pattern."""
    seen = set()
    for copy in tiling.copies:
        block = set(copy)
        if len(block) != pattern.n or block & seen:
            return False
        seen |= block
        if find_embedding(pattern, host.induced(block)) is None:
            return False
    return True

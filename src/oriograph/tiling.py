"""Perfect tilings of a host graph by vertex-disjoint copies of a pattern.

A perfect tiling (an F-factor) by a k-vertex pattern F is a partition of
the host vertex set into blocks each containing a copy of F.  A copy is
the image of an embedding: every edge of F maps to a host edge, and the
host may have further edges inside the block (copies need not be
induced).  The vertex sets of the copies of F in G form a k-uniform
hypergraph on V(G); a perfect tiling is exactly a perfect matching of
that hypergraph, i.e. an exact cover of V(G) by hyperedges.

Copies are enumerated as vertex masks by the embedding walk (see embed),
one node per placement; at the last pattern vertex each candidate bit is
ORed into the mask of the vertices placed so far instead of being
mapped.  A tournament pattern walks under its Grochow-Kellis symmetry
conditions (see embed), which reach every copy exactly once; any other
pattern can have embeddings with one image set that no automorphism
relates, so its masks are deduplicated.  Each mask is kept under its bit
reversal, which puts vertex 0 on top, so the reversed masks in
descending order list the sets in lexicographic order.

The solver is an exact-cover search on option bitsets (Knuth's
"Algorithm X" branching rule, without the dancing links): option i is
the i-th copy in lexicographic vertex-set order, col[v] is the int
whose bit i is set iff option i contains v, and the options still
disjoint from every chosen copy are one int, live.  A node branches on
the uncovered vertex v with the fewest bits in col[v] & live (ties to
the smallest vertex) and tries those options in ascending index, so runs
are deterministic; choosing a copy clears col[u] from live for each of
its vertices u.  The columns are built in C from the options packed into
bytes, with no Python loop per copy.  Whether an uncovered set can be
tiled depends on that set alone, so a set whose subtree was searched in
full without a cover is remembered and never searched again; this skips
only subtrees without a cover, so the first cover found is unchanged.
A search cut off by its budget records nothing, and the memo stops
growing at EDGE_CAP sets, which bounds its memory and only costs repeats.
Refutations are certified in three distinct ways: "refuted-exhaustive"
means the cover search ran to completion, "refuted-lattice" means a
residue lattice (see the lattice module) proves the host's index vector
unreachable, and "refuted-divisibility" means |V(F)| does not divide
|V(G)|.  Given a partition, the lattice is first the quotient bound's,
which lists no copy, and then, if that refutes nothing, the copies'.
"""

from __future__ import annotations

from itertools import repeat

from . import lattice
from .core import Embedding, Record, bits
from .errors import BudgetExceededError, ResourceLimitError
from .embed import _symmetry_conditions, _walk, find_embedding

FOUND = "found"
REFUTED_EXHAUSTIVE = "refuted-exhaustive"
REFUTED_LATTICE = "refuted-lattice"
REFUTED_DIVISIBILITY = "refuted-divisibility"
INCONCLUSIVE = "inconclusive"
# the answer each mode gives: a tiling, a proof there is none, or a budget
# that ran out
OUTCOME = {
    FOUND: "found",
    REFUTED_EXHAUSTIVE: "refuted",
    REFUTED_LATTICE: "refuted",
    REFUTED_DIVISIBILITY: "refuted",
    INCONCLUSIVE: "inconclusive",
}


def answer(ok):
    return "found" if ok else "refuted"


def worst(answers):
    """The gravest answer: "refuted" if any refutes, else "inconclusive"
    if any ran out of budget, else "found", also for no answers."""
    return min(answers, key=("refuted", "inconclusive", "found").index, default="found")


EDGE_CAP = 10_000_000
PACK_CHUNK = 1024


class CopyHypergraph(Record):
    """k-uniform hypergraph whose hyperedges are the vertex sets of the
    copies of the pattern, stored as vertex masks in lexicographic order
    of their sorted vertex tuples."""

    # nodes: the search nodes the enumeration spent, not part of the
    # hypergraph and left out of equality
    __slots__ = ("n", "k", "edges", "nodes")
    COMPARED = 3


class Tiling(Record):
    __slots__ = ("copies",)


class TilingResult(Record):
    __slots__ = ("mode", "tiling", "note")
    DEFAULTS = {"tiling": None, "note": None}


def copy_hypergraph(pattern, host, budget=None):
    """Enumerate the vertex sets of all copies of the pattern in the host;
    the hypergraph records the search nodes spent, which count against
    the budget."""
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    conditions = _symmetry_conditions(pattern) if pattern.is_tournament() else ()
    found = {}  # bit-reversed mask -> mask
    top = 1 << host.n >> 1  # the bit of vertex 0 in a reversed mask
    for _, _, used, rused, cand, nodes in _walk(pattern, host, conditions, budget):
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            found[rused | top >> (low.bit_length() - 1)] = used | low
        if len(found) > EDGE_CAP:
            # the budget outranks the cap: the walk counts these candidates
            # against it when resumed
            if budget is not None and nodes + cand.bit_count() > budget:
                raise BudgetExceededError(budget)
            raise ResourceLimitError(f"copy enumeration exceeded the edge cap of {EDGE_CAP}")
    edges = tuple(found[r] for r in sorted(found, reverse=True))
    return CopyHypergraph(n=host.n, k=pattern.n, edges=edges, nodes=nodes)


# _BIT_ROWS[j] maps a byte to b"1" if its bit j is set, else to b"0"
_BIT_ROWS = [bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8)]


def _exact_cover(ground_mask, options, budget=None):
    """First exact cover of ground_mask by disjoint option masks, as a
    list of masks, or None.

    Sets of options are bitsets over option indices: col[v] has bit i set
    iff options[i] contains v, and a frame's live options (those disjoint
    from every copy chosen above it) are one int.  The branching vertex is
    the uncovered one whose col[v] & live has the fewest bits (ties to the
    smallest vertex), and its options are tried in ascending index, i.e.
    in the order given, which for copy_hypergraph's edges is the
    lexicographic order.  The search keeps its own stack, one frame per
    chosen copy, so a cover of many copies is not limited by the
    interpreter's recursion depth.
    """
    if not ground_mask:
        return []
    if not options:
        return None
    # one little-endian row of width bytes per option; the byte column of
    # vertex v, read from the last option back, translated to "0"/"1" digits
    # and parsed in base 2, has bit i set iff option i contains v.  Rows
    # are packed PACK_CHUNK options at a time, which bounds the short-lived
    # bytes objects in memory at once.
    width = (ground_mask.bit_length() + 7) // 8
    packed = bytearray()
    for first in range(0, len(options), PACK_CHUNK):
        chunk = options[first : first + PACK_CHUNK]
        packed += b"".join(map(int.to_bytes, chunk, repeat(width), repeat("little")))
    end = len(packed) - width
    col = {
        v: int(packed[end + (v >> 3) :: -width].translate(_BIT_ROWS[v & 7]), 2)
        for v in bits(ground_mask)
    }
    failed = set()
    nodes = 0
    # one frame per open node: its uncovered set, its live options, its
    # branching vertex's live options as a string whose character i is "1"
    # iff option i is one, and the index from which to look for the next
    # one not yet tried; chosen[i] is the copy that led to frame i + 1
    stack = [[ground_mask, (1 << len(options)) - 1, None, 0]]
    chosen = []
    while stack:
        frame = stack[-1]
        remaining, live, row, start = frame
        if row is None:
            # first visit: pick the branching vertex
            fewest = len(options) + 1
            rest = remaining
            while rest:
                low = rest & -rest
                rest ^= low
                here = col[low.bit_length() - 1] & live
                count = here.bit_count()
                if count < fewest:
                    fewest, row = count, here
                    if not count:
                        break
            row = frame[2] = bin(row)[:1:-1]
        i = row.find("1", start)
        while i >= 0:
            mask = options[i]
            rest = remaining & ~mask
            if rest not in failed:
                break
            i = row.find("1", i + 1)
        else:
            stack.pop()
            if chosen:
                chosen.pop()
            if len(failed) < EDGE_CAP:
                failed.add(remaining)
            continue
        frame[3] = i + 1
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget)
        chosen.append(mask)
        if not rest:
            return chosen
        taken = mask
        while taken:
            low = taken & -taken
            taken ^= low
            live &= ~col[low.bit_length() - 1]
        stack.append([rest, live, None, 0])
    return None


def hypergraph_perfect_matching(hyper, budget=None):
    """Disjoint hyperedges, as sorted vertex tuples, covering exactly the
    vertices 0..n-1 of the hypergraph, or None.

    Raises BudgetExceededError when the node budget runs out first.
    """
    if hyper.n % hyper.k:
        return None
    chosen = _exact_cover((1 << hyper.n) - 1, hyper.edges, budget)
    if chosen is None:
        return None
    return tuple(tuple(bits(mask)) for mask in chosen)


def perfect_tiling(pattern, host, partition=None, budget=None):
    """Search for a perfect tiling of the host by pattern copies.

    A partition must cover exactly the host's vertices; any other raises
    ValueError before any search.  With one, the quotient bound runs before
    copy enumeration and the residue-lattice pre-check after it, and either
    can refute without any cover search.
    A found tiling is re-verified as a perfect tiling of the host before
    returning.
    The node budget is one budget for the whole call: each phase gets what
    the phases before it left.
    """
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if partition is not None:
        partition.check_covers(host.n)
    if host.n % pattern.n:
        return TilingResult(
            REFUTED_DIVISIBILITY,
            note=f"pattern order {pattern.n} does not divide host order {host.n}",
        )
    if partition is not None:
        # looked up at call time, so a wrapper set on the module attribute sees every call
        try:
            bound = lattice.quotient_bound(pattern, host, partition, budget)
        except BudgetExceededError:
            return TilingResult(INCONCLUSIVE, note="budget exhausted during the quotient bound")
        if bound.verdict is not None and bound.verdict.refutes:
            by = f" by the quotient bound, |U| = {len(bound.vectors)}"
            return _lattice_refutation(bound.verdict, by)
        if budget is not None:
            budget -= bound.nodes
    try:
        hyper = copy_hypergraph(pattern, host, budget=budget)
    except BudgetExceededError:
        return TilingResult(INCONCLUSIVE, note="budget exhausted during copy enumeration")
    if partition is not None:
        verdict = lattice.tiling_lattice_precheck(hyper, partition)
        if verdict.refutes:
            return _lattice_refutation(verdict)
    if budget is not None:
        budget -= hyper.nodes
    try:
        matching = hypergraph_perfect_matching(hyper, budget)
    except BudgetExceededError:
        return TilingResult(INCONCLUSIVE, note="budget exhausted during cover search")
    if matching is None:
        return TilingResult(REFUTED_EXHAUSTIVE)
    tiling = Tiling(copies=matching)
    if not verify_tiling(pattern, host, tiling):
        raise AssertionError("solver produced a tiling that fails re-verification")
    return TilingResult(FOUND, tiling=tiling)


def _lattice_refutation(verdict, by=""):
    note = f"host index vector {verdict.target} unreachable modulo {verdict.modulus}"
    return TilingResult(REFUTED_LATTICE, note=note + by)


def verify_tiling(pattern, host, tiling):
    """Is the tiling perfect: pairwise disjoint blocks of the pattern's order
    that cover every host vertex, each containing a copy of the pattern?

    Each block's copy is searched for on the block relabelled 0..k-1 in
    ascending order, mapped back to host vertices and then checked edge by
    edge with `Embedding.verify`, which reads only `has_edge`, so a wrong
    mapping from the search cannot pass as a copy."""
    vertices = set(range(host.n))
    seen = set()
    for copy in tiling.copies:
        block = set(copy)
        if len(block) != pattern.n or block & seen or not block <= vertices:
            return False
        seen |= block
        emb = find_embedding(pattern, host.induced(block))
        ordered = sorted(block)
        if emb is None or not Embedding(
            pattern, host, tuple(ordered[v] for v in emb.mapping)
        ).verify():
            return False
    return seen == vertices

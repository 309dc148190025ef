"""Backtracking search for embeddings of one oriented graph in another.

An embedding is an injective vertex map sending every pattern edge to a
host edge with the same orientation; host edges between image vertices
of pattern non-edges are allowed (the copy need not be induced).

Pattern vertices are assigned in a fixed order, decreasing (total
degree, out-degree) with index as the tie-break, so constrained vertices
are placed early.  Candidate host vertices for the next pattern vertex
are the bitwise intersection of the appropriate in/out neighbourhoods of
the already placed neighbours, filtered by a degree precheck.  Host
candidates are tried in ascending index, so the first embedding found is
the lexicographically least one under the variable order, making every
search deterministic.  The walk keeps its own stack, one slot per pattern
vertex, so a pattern of any order is searched without deep recursion.

Searches take an optional node budget (number of attempted vertex
placements); exhausting it raises BudgetExceededError, which callers
report as an inconclusive outcome distinct from "no embedding exists".

The order, the edge constraints and the degree masks are set up in one
place, `_plan`, which the copy enumeration of the tiling module shares.
That enumeration wants each copy (image set) once, not each embedding,
and `_symmetry_conditions` gives it Grochow-Kellis conditions for that:
Aut(F) is computed as the embeddings of F in itself, and down a
stabiliser chain each vertex v with a non-trivial orbit gets
image(v) < image(u) for the other u in its orbit.  Exactly one
embedding of every Aut(F)-orbit meets them all.  Two embeddings of a
tournament F with the same image set differ by an automorphism (the
host restricted to that set is a tournament isomorphic to F), so for a
tournament pattern one orbit is one copy.
"""

from __future__ import annotations

from .core import Embedding
from .errors import BudgetExceededError


def variable_order(pattern):
    """Pattern vertices sorted by decreasing (degree, out-degree), then index."""
    def key(v):
        o, i = pattern.degrees(v)
        return (-(o + i), -o, v)

    return sorted(range(pattern.n), key=key)


def _plan(pattern, host):
    """The search set-up shared by every embedding walk: the variable
    order, per slot the (earlier slot, True if the pattern edge runs
    earlier -> current) constraints, and per slot the host vertices whose
    out- and in-degrees are large enough."""
    order = variable_order(pattern)
    pos = {v: i for i, v in enumerate(order)}
    constraints = []
    for i, v in enumerate(order):
        cons = []
        ins, outs = pattern.in_rows[v], pattern.out_rows[v]
        for u in order[:i]:
            if ins >> u & 1:
                cons.append((pos[u], True))
            elif outs >> u & 1:
                cons.append((pos[u], False))
        constraints.append(cons)
    host_degrees = [(o.bit_count(), i.bit_count()) for o, i in zip(host.out_rows, host.in_rows)]
    degree_ok = []
    for v in order:
        po, pi = pattern.degrees(v)
        mask = 0
        for w, (ho, hi) in enumerate(host_degrees):
            if ho >= po and hi >= pi:
                mask |= 1 << w
        degree_ok.append(mask)
    return order, constraints, degree_ok


def _mappings(pattern, host, budget=None):
    """Yield every embedding as a tuple indexed by pattern vertex."""
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return
    if np_ == 0:
        yield ()
        return
    order, constraints, degree_ok = _plan(pattern, host)
    full = (1 << nh) - 1
    out_rows, in_rows = host.out_rows, host.in_rows
    last = np_ - 1
    # the walk keeps its own stack, one slot per pattern vertex: the host
    # vertex placed there and the candidates not yet tried there; used is
    # the vertices placed in the slots before slot
    image = [0] * np_
    untried = [0] * np_
    nodes = 0
    slot = used = 0
    while True:
        cand = degree_ok[slot] & ~used & full
        for earlier, forward in constraints[slot]:
            cand &= out_rows[image[earlier]] if forward else in_rows[image[earlier]]
            if not cand:
                break
        while True:
            while not cand and slot:
                slot -= 1
                used ^= 1 << image[slot]
                cand = untried[slot]
            if not cand:
                return
            low = cand & -cand
            cand ^= low
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget)
            image[slot] = low.bit_length() - 1
            if slot < last:
                break
            mapping = [0] * np_
            for i, v in enumerate(order):
                mapping[v] = image[i]
            yield tuple(mapping)
        untried[slot] = cand
        used |= low
        slot += 1


def _symmetry_conditions(pattern):
    """Grochow-Kellis conditions (v, u), each meaning image(v) < image(u),
    that leave exactly one embedding in every Aut(pattern)-orbit.

    Vertices are taken in the variable order; a vertex v whose orbit
    under the current group is non-trivial must map below the rest of
    its orbit, and the group shrinks to v's stabiliser.  v is then the
    first of its orbit to be placed, so every condition bounds a later
    slot from below.
    """
    auts = list(_mappings(pattern, pattern))
    conditions = []
    for v in variable_order(pattern):
        orbit = sorted({a[v] for a in auts})
        if len(orbit) > 1:
            conditions += [(v, u) for u in orbit if u != v]
            auts = [a for a in auts if a[v] == v]
    return conditions


def iter_embeddings(pattern, host, budget=None):
    for mapping in _mappings(pattern, host, budget):
        yield Embedding(pattern, host, mapping)


def find_embedding(pattern, host, budget=None):
    """First embedding in deterministic order, or None if none exists."""
    for emb in iter_embeddings(pattern, host, budget):
        return emb
    return None


def count_embeddings(pattern, host, budget=None):
    """Number of injective orientation-preserving maps pattern -> host."""
    return sum(1 for _ in _mappings(pattern, host, budget))

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
search deterministic.

The search is one loop, `_walk`, over the order, the edge constraints
and the degree masks that `_plan` sets up.  The walk keeps its own
stack, one slot per pattern vertex, so a pattern of any order is
searched without deep recursion.  It stops short of the last slot and
hands each of that slot's candidate sets to its consumer:
iter_embeddings maps each candidate to an embedding, count_embeddings
only counts them, and the copy enumeration of the tiling module ORs each
into the mask of the vertices placed so far.

Searches take an optional node budget (number of attempted vertex
placements, each candidate of the last slot being one); exhausting it
raises BudgetExceededError, which callers report as an inconclusive
outcome distinct from "no embedding exists".

The copy enumeration wants each copy (image set) once, not each
embedding, and `_symmetry_conditions` gives it Grochow-Kellis conditions
for that, which the walk applies as lower bounds on later slots:
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
    """The walk's set-up: the variable order, per slot the (earlier slot,
    True if the pattern edge runs earlier -> current) constraints, and per
    slot the host vertices whose out- and in-degrees are large enough.
    The host must have a vertex."""
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
    host_outs = list(map(int.bit_count, host.out_rows))
    host_ins = list(map(int.bit_count, host.in_rows))
    least_out, least_in = min(host_outs), min(host_ins)
    degree_ok = []
    for v in order:
        po, pi = pattern.degrees(v)
        if po <= least_out and pi <= least_in:
            degree_ok.append((1 << host.n) - 1)  # every host vertex passes
            continue
        mask = 0
        for w, (ho, hi) in enumerate(zip(host_outs, host_ins)):
            if ho >= po and hi >= pi:
                mask |= 1 << w
        degree_ok.append(mask)
    return order, constraints, degree_ok


def _walk(pattern, host, conditions=(), budget=None):
    """The embedding search, stopped short of the last slot.

    For each non-empty candidate set of the last slot it yields (order,
    image, used, rused, cand, nodes): the pattern vertices in slot order,
    image[i] the host vertex placed in slot i before the last, used that
    set of host vertices as a mask and rused the same mask bit-reversed
    (host vertex w at bit n - 1 - w), the candidates for the last slot,
    and the nodes spent so far.  The consumer may write the last slot of
    image; the walk never reads it.
    Every placement at an earlier slot is a node, and when resumed the
    walk counts every candidate it yielded; past the budget either raises
    BudgetExceededError.  A consumer that may stop partway through cand
    counts the candidates it takes itself.  A last yield with cand 0
    carries the total.
    Each condition (v, u) keeps image(v) < image(u).
    """
    np_, nh = pattern.n, host.n
    image = [0] * np_
    nodes = 0
    order = ()
    if 0 < np_ <= nh:
        order, constraints, degree_ok = _plan(pattern, host)
        # per slot, the earlier slots whose images bound its image from below
        above = [()] * np_
        for v, u in conditions:
            above[order.index(u)] += (order.index(v),)
        out_rows, in_rows = host.out_rows, host.in_rows
        top = 1 << (nh - 1)
        # the walk keeps its own stack, one slot per pattern vertex: the
        # host vertex placed there (in image) and the candidates not yet
        # tried there; used and rused are the vertices placed in the slots
        # before slot
        untried = [0] * np_
        end = np_ - 1
        slot = used = rused = 0
        while True:
            cand = degree_ok[slot] & ~used
            for earlier, forward in constraints[slot]:
                cand &= out_rows[image[earlier]] if forward else in_rows[image[earlier]]
                if not cand:
                    break
            else:
                for earlier in above[slot]:
                    cand &= -2 << image[earlier]
            if cand and slot == end:
                yield order, image, used, rused, cand, nodes
                nodes += cand.bit_count()
                if budget is not None and nodes > budget:
                    raise BudgetExceededError(budget)
                cand = 0
            while not cand and slot:
                slot -= 1
                w = image[slot]
                used ^= 1 << w
                rused ^= top >> w
                cand = untried[slot]
            if not cand:
                break
            low = cand & -cand
            untried[slot] = cand ^ low
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget)
            w = low.bit_length() - 1
            image[slot] = w
            used |= low
            rused |= top >> w
            slot += 1
    yield order, image, 0, 0, 0, nodes


def _symmetry_conditions(pattern):
    """Grochow-Kellis conditions (v, u), each meaning image(v) < image(u),
    that leave exactly one embedding in every Aut(pattern)-orbit.

    Vertices are taken in the variable order; a vertex v whose orbit
    under the current group is non-trivial must map below the rest of
    its orbit, and the group shrinks to v's stabiliser.  v is then the
    first of its orbit to be placed, so every condition bounds a later
    slot from below.
    """
    auts = [emb.mapping for emb in iter_embeddings(pattern, pattern)]
    conditions = []
    for v in variable_order(pattern):
        orbit = sorted({a[v] for a in auts})
        if len(orbit) > 1:
            conditions += [(v, u) for u in orbit if u != v]
            auts = [a for a in auts if a[v] == v]
    return conditions


def iter_embeddings(pattern, host, budget=None):
    if not pattern.n:
        yield Embedding(pattern, host, ())
        return
    mapping = [0] * pattern.n
    for order, image, _, _, cand, nodes in _walk(pattern, host, budget=budget):
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget)
            image[-1] = low.bit_length() - 1
            for v, w in zip(order, image):
                mapping[v] = w
            yield Embedding(pattern, host, tuple(mapping))


def find_embedding(pattern, host, budget=None):
    """First embedding in deterministic order, or None if none exists."""
    for emb in iter_embeddings(pattern, host, budget):
        return emb
    return None


def count_embeddings(pattern, host, budget=None):
    """Number of injective orientation-preserving maps pattern -> host."""
    if not pattern.n:
        return 1
    return sum(cand.bit_count() for *_, cand, _ in _walk(pattern, host, budget=budget))

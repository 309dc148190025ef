"""Vertex statistics and extremal-structure checks for dense hosts.

Two statistics drive the degree arguments for near-semi-regular hosts.
cyclic_edge_stat(G, v) counts edges from the out-neighbourhood of v into
its in-neighbourhood, which is exactly the number of directed triangles
through v.  d_copy_counts(G)[v] counts 4-sets containing v that
induce the strongly connected 4-vertex tournament (the one with score
multiset {1, 1, 2, 2}).  For a host on n vertices write c for
1/2 - delta^0/n; the statistics should land in [ (1/8 - 2c) n^2,
(1/8 + 2c) n^2 ] and above (1/32 - 2c) n^3 respectively, and the
bounds helpers below report those per-instance windows.

The strong 4-tournament has exactly one labelling a->b, a->c, b->c,
b->d, c->d, d->a, so each copy is fixed by the edge d->a that closes it
together with the edge b->c inside X = N+(a) & N-(d).  Conversely, an
edge d->a and any edge of G[X] make a copy: in an oriented graph the
six pairs are then all edges.  So a copy is never listed.  Per edge
d->a, each u in X gains its degree in G[X], and a and d gain the number
of edges of G[X], half the sum of those degrees.  The u in X are the
third vertices of the directed triangles through d->a.

A 3-partition is gamma-extremal when every part has size within
gamma * n of n/3 and each of the three reverse-edge classes (against the
cyclic pattern part 1 -> part 2 -> part 3 -> part 1) has at most
gamma * n^2 edges.  The cyclic pattern is only fixed up to relabelling,
so the checker tries all part orders and passes if any works.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

from .core import Partition, Record, bits

RESTARTS = 30


def cyclic_edge_stat(graph, v):
    """Edges from N+(v) to N-(v): the number of directed triangles through v."""
    graph._check_vertex(v)
    inrow = graph.in_rows[v]
    return sum((graph.out_rows[u] & inrow).bit_count() for u in bits(graph.out_rows[v]))


def d_copy_counts(graph):
    """Per vertex, the 4-sets containing it that induce the strong 4-vertex
    tournament, counted from the edge d->a that closes each copy (see the
    module docstring).

    The inner step runs once per directed triangle and edge of it, 3 C3
    times in all (the sum of cyclic_edge_stat over the vertices), and no
    step runs per copy.  `oracles.d_copy_counts` is the pass over all
    4-sets.
    """
    out, inn = graph.out_rows, graph.in_rows
    adj = [o | i for o, i in zip(out, inn)]
    counts = [0] * graph.n
    for d in range(graph.n):
        in_d = inn[d]
        at_d = 0
        for a in bits(out[d]):
            x = out[a] & in_d
            # twice the edges of G[X]: the sum of its degrees
            total = 0
            rest = x
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                k = (adj[u] & x).bit_count()
                counts[u] += k
                total += k
                rest ^= low
            counts[a] += total >> 1
            at_d += total
        counts[d] += at_d >> 1
    return counts


def semi_degree_slack(graph):
    """c = 1/2 - delta^0 / n, the host's distance from perfect semi-regularity.

    Exact Fraction, so the windows built from it compare exactly against
    integer statistics even at the boundary.
    """
    if graph.n == 0:
        raise ValueError("slack is undefined on the empty graph")
    return Fraction(1, 2) - Fraction(graph.min_semi_degree(), graph.n)


def cyclic_edge_window(graph):
    """[(1/8 - 2c) n^2, (1/8 + 2c) n^2] for this host."""
    n = graph.n
    c = semi_degree_slack(graph)
    return ((Fraction(1, 8) - 2 * c) * n * n, (Fraction(1, 8) + 2 * c) * n * n)


def d_copies_floor(graph):
    """(1/32 - 2c) n^3 for this host."""
    n = graph.n
    c = semi_degree_slack(graph)
    return (Fraction(1, 32) - 2 * c) * n**3


class ExtremalVerdict(Record):
    # reverse_counts: counts for the partition as given; passing_order: the
    # part order that met the bounds, or None
    __slots__ = ("ok", "sizes", "reverse_counts", "passing_order")


def _reverse_counts(graph, masks):
    """Edge counts against the cyclic pattern for parts given as masks:
    (part1 -> part3, part3 -> part2, part2 -> part1)."""
    pairs = ((0, 2), (2, 1), (1, 0))
    counts = []
    for a, b in pairs:
        total = 0
        for u in bits(masks[a]):
            total += (graph.out_rows[u] & masks[b]).bit_count()
        counts.append(total)
    return tuple(counts)


def _size_window(n, gamma):
    """[(1/3 - gamma) n, (1/3 + gamma) n], the sizes a part of a
    gamma-extremal partition of n vertices may have."""
    # nan compares false with everything, so test for the good case
    if not (gamma >= 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    return (1 / 3 - gamma) * n, (1 / 3 + gamma) * n


def extremal_sizes_fit(n, gamma):
    """Do some three integer sizes summing to n all lie in the size window?
    If not, no 3-partition of n vertices is gamma-extremal."""
    lo, hi = _size_window(n, gamma)
    fit = [s for s in range(n + 1) if lo <= s <= hi]
    return bool(fit) and 3 * fit[0] <= n <= 3 * fit[-1]


def extremal_check(graph, partition, gamma):
    """Is the partition gamma-extremal under some ordering of its parts?"""
    n = graph.n
    lo, hi = _size_window(n, gamma)
    if partition.d != 3:
        raise ValueError("extremal structure is defined for 3 parts")
    partition.check_covers(n)
    sizes = tuple(len(p) for p in partition.parts)
    given = _reverse_counts(graph, partition.masks)
    passing = None
    if all(lo <= s <= hi for s in sizes):
        for order in permutations(range(3)):
            counts = _reverse_counts(graph, tuple(partition.masks[i] for i in order))
            if all(c <= gamma * n * n for c in counts):
                passing = order
                break
    return ExtremalVerdict(
        ok=passing is not None,
        sizes=sizes,
        reverse_counts=given,
        passing_order=passing,
    )


def find_extremal_partition(graph, gamma, seed=0):
    """Seeded local search for a gamma-extremal 3-partition.

    Each restart shuffles the vertices into three near-equal parts, then
    runs steepest-descent single-vertex moves minimizing the reverse-edge
    total subject to the size window, and finally checks the result.
    Returns the first passing partition, or None after RESTARTS restarts;
    None rules no partition out (`oracles.extremal_partition` is the
    exhaustive search, for small n).
    """
    n = graph.n
    lo, hi = _size_window(n, gamma)
    if n < 3:
        return None

    def reverse_total(label_masks):
        return sum(_reverse_counts(graph, label_masks))

    for restart in range(RESTARTS):
        rng = random.Random(f"extremal:{seed}:{restart}")
        vertices = list(range(n))
        rng.shuffle(vertices)
        labels = [0] * n
        for i, v in enumerate(vertices):
            labels[v] = i * 3 // n
        masks = [0, 0, 0]
        for v, lab in enumerate(labels):
            masks[lab] |= 1 << v
        if not all(lo <= m.bit_count() <= hi for m in masks):
            continue
        current = reverse_total(tuple(masks))
        improved = True
        while improved and current > 0:
            improved = False
            best = None
            for v in range(n):
                src = labels[v]
                if (masks[src].bit_count() - 1) < lo:
                    continue
                for dst in range(3):
                    if dst == src or (masks[dst].bit_count() + 1) > hi:
                        continue
                    masks[src] ^= 1 << v
                    masks[dst] ^= 1 << v
                    total = reverse_total(tuple(masks))
                    masks[src] ^= 1 << v
                    masks[dst] ^= 1 << v
                    if total < current and (best is None or total < best[0]):
                        best = (total, v, dst)
            if best is not None:
                total, v, dst = best
                masks[labels[v]] ^= 1 << v
                masks[dst] ^= 1 << v
                labels[v] = dst
                current = total
                improved = True
        parts = [[v for v in range(n) if labels[v] == lab] for lab in range(3)]
        candidate = Partition(parts)
        if extremal_check(graph, candidate, gamma).ok:
            return candidate
    return None

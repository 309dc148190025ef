"""Output checks for the benchmark, independent of the kernels they judge.

Every check reads graphs only through their out-neighbour bitmasks
(`graph.n`, `graph.out_rows`) and recomputes what it needs from them.
No check calls `find_embedding`, `perfect_tiling`, `canonical_form` or
any analysis function, so a broken kernel cannot vouch for itself; the
class check takes the package's permutation oracle `core.isomorphic_brute`,
which calls none of them.
Checks are invariants, not golden outputs: a sampler or a search that
legitimately returns different seeded results still passes.

Each check returns None when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

# Isomorphism classes of regular tournaments (OEIS A096368).
REGULAR_CLASS_COUNTS = {5: 1, 7: 3}


def _ones(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _out_degrees(rows):
    return [r.bit_count() for r in rows]


def _in_degrees(rows):
    n = len(rows)
    return [sum(rows[u] >> v & 1 for u in range(n)) for v in range(n)]


def tournament_problem(graph):
    """Exactly one orientation per vertex pair and no loops."""
    rows = graph.out_rows
    n = graph.n
    if len(rows) != n:
        return f"{len(rows)} rows for {n} vertices"
    full = (1 << n) - 1
    for u in range(n):
        if rows[u] >> u & 1 or rows[u] & ~full:
            return f"vertex {u} has a loop or an out-of-range edge"
        for v in range(u + 1, n):
            if (rows[u] >> v & 1) == (rows[v] >> u & 1):
                return f"pair {u},{v} is not oriented exactly once"
    return None


def semi_regular_problem(graph):
    """A tournament whose minimum semi-degree is floor((n-1)/2)."""
    problem = tournament_problem(graph)
    if problem:
        return problem
    n = graph.n
    low, high = (n - 1) // 2, n // 2
    for v, d in enumerate(_out_degrees(graph.out_rows)):
        if not low <= d <= high:
            return f"vertex {v} has out-degree {d}, outside [{low}, {high}]"
    return None


def regular_problem(graph):
    """A tournament with every out-degree (n-1)/2."""
    problem = tournament_problem(graph)
    if problem:
        return problem
    half = (graph.n - 1) / 2
    degrees = _out_degrees(graph.out_rows)
    if any(d != half for d in degrees):
        return f"out-degrees {sorted(degrees)} are not all {half}"
    return None


def embedding_problem(pattern, host, embedding):
    """The mapping is injective and sends every pattern edge to a host edge."""
    if embedding is None:
        return "no embedding returned"
    phi = tuple(embedding.mapping)
    if len(phi) != pattern.n or len(set(phi)) != len(phi):
        return f"mapping {phi} is not injective on {pattern.n} vertices"
    if any(not 0 <= w < host.n for w in phi):
        return f"mapping {phi} leaves the host"
    for u in range(pattern.n):
        for v in _ones(pattern.out_rows[u]):
            if not host.out_rows[phi[u]] >> phi[v] & 1:
                return f"pattern edge {u}->{v} is not mapped to a host edge"
    return None


def statistic_window_problem(host, cyclic, d_counts):
    """Both vertex statistics lie in their windows, and agree with counts
    derived from the score sequence alone.

    With c = 1/2 - delta0/n the cyclic-edge statistic lies in
    [(1/8 - 2c) n^2, (1/8 + 2c) n^2] and the strong-4-set count through a
    vertex is at least (1/32 - 2c) n^3.  Independently, the cyclic-edge
    statistic counts directed triangles through each vertex, so it sums to
    three times C(n,3) - sum C(d_v, 2); every strong 4-set is counted at
    each of its four vertices.
    """
    n = host.n
    if len(cyclic) != n or len(d_counts) != n:
        return "statistics do not cover every vertex"
    out_deg = _out_degrees(host.out_rows)
    in_deg = _in_degrees(host.out_rows)
    delta0 = min(min(o, i) for o, i in zip(out_deg, in_deg))
    c = Fraction(1, 2) - Fraction(delta0, n)
    lo, hi = (Fraction(1, 8) - 2 * c) * n * n, (Fraction(1, 8) + 2 * c) * n * n
    floor = (Fraction(1, 32) - 2 * c) * n**3
    for v in range(n):
        if not lo <= cyclic[v] <= hi:
            return f"cyclic-edge statistic {cyclic[v]} at vertex {v} outside [{lo}, {hi}]"
        if not floor <= d_counts[v] <= comb(n - 1, 3):
            return f"strong 4-set count {d_counts[v]} at vertex {v} outside [{floor}, C(n-1,3)]"
    triangles = comb(n, 3) - sum(comb(d, 2) for d in out_deg)
    if sum(cyclic) != 3 * triangles:
        return f"cyclic-edge statistics sum to {sum(cyclic)}, expected {3 * triangles}"
    if sum(d_counts) % 4:
        return f"strong 4-set counts sum to {sum(d_counts)}, not a multiple of 4"
    return None


def strong_four_factor_problem(host, tiling):
    """A perfect tiling of the host whose every block is the strong
    4-vertex tournament, recognised by its score sequence {1, 1, 2, 2}."""
    if tiling is None:
        return "no tiling returned"
    rows = host.out_rows
    covered = 0
    for block in tiling.copies:
        mask = 0
        for v in block:
            mask |= 1 << v
        if len(block) != 4 or mask.bit_count() != 4 or mask & covered:
            return f"block {tuple(block)} is not 4 fresh vertices"
        if any(not 0 <= v < host.n for v in block):
            return f"block {tuple(block)} leaves the host"
        covered |= mask
        scores = sorted((rows[v] & mask).bit_count() for v in block)
        if scores != [1, 1, 2, 2]:
            return f"block {tuple(block)} has scores {scores}, not [1, 1, 2, 2]"
    if covered != (1 << host.n) - 1:
        return "blocks do not cover every host vertex"
    return None


def _out_triangle_profile(rows):
    """Sorted per-vertex count of directed triangles inside N+(v): an
    isomorphism invariant, so different profiles prove non-isomorphism."""
    profile = []
    for v, row in enumerate(rows):
        inside = list(_ones(row))
        profile.append(
            sum(
                1
                for a, b, c in combinations(inside, 3)
                if (rows[a] >> b & 1) == (rows[b] >> c & 1) == (rows[c] >> a & 1)
            )
        )
    return tuple(sorted(profile))


def regular_classes_problem(n, reps, s_pattern, s_embeddings, isomorphic):
    """The known number of classes, each a regular tournament, pairwise
    non-isomorphic, and each containing S.  `isomorphic(a, b)` decides
    isomorphism where the triangle profiles agree."""
    expected = REGULAR_CLASS_COUNTS[n]
    if len(reps) != expected:
        return f"{len(reps)} classes for n={n}, expected {expected}"
    for g in reps:
        if g.n != n:
            return f"class representative on {g.n} vertices, expected {n}"
        problem = regular_problem(g)
        if problem:
            return problem
    profiles = [_out_triangle_profile(g.out_rows) for g in reps]
    for i, j in combinations(range(len(reps)), 2):
        if profiles[i] == profiles[j] and isomorphic(reps[i], reps[j]):
            return f"classes {i} and {j} are isomorphic"
    for g, emb in zip(reps, s_embeddings):
        problem = embedding_problem(s_pattern, g, emb)
        if problem:
            return f"S in a class: {problem}"
    return None


def staircase_value(rows, perm):
    """The staircase serialization of a relabelled graph as an integer.

    Position k >= 1 contributes the bit pairs (p_i -> p_k, p_k -> p_i) for
    i < k, earlier positions first; positions are concatenated in order.
    """
    value = 0
    for k in range(1, len(perm)):
        pk = perm[k]
        for i in range(k):
            pi = perm[i]
            value = value << 2 | (rows[pi] >> pk & 1) << 1 | rows[pk] >> pi & 1
    return value


def _decode_staircase(n, value):
    rows = [0] * n
    for k in range(n - 1, 0, -1):
        for i in range(k - 1, -1, -1):
            if value & 2:
                rows[i] |= 1 << k
            if value & 1:
                rows[k] |= 1 << i
            value >>= 2
    return rows, value


def canonical_pair_problem(graph, relabelled, form, relabelled_form):
    """Isomorphic inputs got equal forms, and the form decodes to a
    tournament with the input's score sequence that serializes no higher
    than either input does unrelabelled."""
    if form != relabelled_form:
        return "isomorphic tournaments got different canonical forms"
    n, value = form
    if n != graph.n:
        return f"form has order {n}, expected {graph.n}"
    rows, rest = _decode_staircase(n, value)
    if rest:
        return "form has bits beyond its order"
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v & 1) == (rows[v] >> u & 1):
                return "form does not decode to a tournament"
    if sorted(_out_degrees(rows)) != sorted(_out_degrees(graph.out_rows)):
        return "form has a different score sequence"
    identity = list(range(n))
    if value > staircase_value(graph.out_rows, identity) or value > staircase_value(
        relabelled.out_rows, identity
    ):
        return "form is not minimal: an input serializes lower"
    return None

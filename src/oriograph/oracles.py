"""Brute-force oracles that the search kernels are checked against.

Each oracle enumerates vertex tuples with itertools.permutations and
combinations (or, for the quotient bound, maps to parts with
itertools.product) and reads graphs only through has_edge and edges(),
so it shares no code with the kernels in embed, tiling, lattice, search
or analysis and cannot vouch for them.  They are exponential and meant
for instances of at most a dozen vertices.  The two counts of labeled regular tournaments
read no graph at all: the exponential leaf count checks the dynamic
program at small n, and the dynamic program reaches n = 11 in
milliseconds.  Sampling by counting on that program draws uniform
labelled tournaments with the walk's score vector, the reference for
search.random_semi_regular, which it never calls.

The random-graph helpers draw every pair in a fixed order from the
caller's random.Random, so a seeded stream of instances is reproducible.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product
from math import comb, prod

from .core import OrientedGraph, Partition


def _preserves(host, edges, image):
    return all(host.has_edge(image[u], image[v]) for u, v in edges)


def embeddings(pattern, host):
    """Every injective map sending each pattern edge to a host edge, as the
    set of image tuples indexed by pattern vertex."""
    edges = pattern.edges()
    return {
        image
        for image in permutations(range(host.n), pattern.n)
        if _preserves(host, edges, image)
    }


def embeds(pattern, host, vertices=None):
    """Whether the pattern has a (not necessarily induced) copy in the host,
    using only the given host vertices when they are listed."""
    edges = pattern.edges()
    pool = range(host.n) if vertices is None else vertices
    return any(_preserves(host, edges, image) for image in permutations(pool, pattern.n))


def tilable(pattern, host):
    """Whether the host vertices split into blocks of |V(pattern)| vertices,
    each containing a copy of the pattern: a perfect tiling by
    vertex-disjoint copies that need not be induced."""
    k = pattern.n
    if host.n % k:
        return False

    def covers(remaining):
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        for others in combinations(rest, k - 1):
            block = (first, *others)
            if embeds(pattern, host, block) and covers(
                tuple(v for v in rest if v not in others)
            ):
                return True
        return False

    return covers(tuple(range(host.n)))


def residue_span(generators, modulus, dimension):
    """All sums of multiples of the generators modulo m, by trying every
    choice of one multiple c * g (0 <= c < m) per generator g."""
    multiples = [[tuple(c * x for x in g) for c in range(modulus)] for g in generators]
    return {
        tuple(sum(column) % modulus for column in zip(*choice))
        for choice in product([(0,) * dimension], *multiples)
    }


def quotient_vectors(pattern, host, partition):
    """U of the quotient bound, by trying all |P|^|V(pattern)| maps from
    pattern vertices to parts.  Host edges from part i to part j are absent,
    a matching (distinct tails and heads, i != j only), or other; a map is
    kept unless it sends a pattern edge to an absent pair, or two pattern
    edges with a common tail or a common head to one matching pair."""
    parts = [sorted(p) for p in partition.parts]
    kinds = {}
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            arcs = [(u, v) for u in a for v in b if host.has_edge(u, v)]
            tails, heads = {u for u, _ in arcs}, {v for _, v in arcs}
            distinct = i != j and len(tails) == len(heads) == len(arcs)
            kinds[i, j] = "absent" if not arcs else "matching" if distinct else "other"
    edges = pattern.edges()
    found = set()
    for phi in product(range(len(parts)), repeat=pattern.n):
        sent = {}
        for u, v in edges:
            sent.setdefault((phi[u], phi[v]), []).append((u, v))
        if all(
            kinds[pair] == "other"
            or kinds[pair] == "matching"
            and len({u for u, _ in arcs}) == len({v for _, v in arcs}) == len(arcs)
            for pair, arcs in sent.items()
        ):
            found.add(tuple(phi.count(j) for j in range(len(parts))))
    return found


def extremal_partition(graph, gamma):
    """A gamma-extremal 3-partition, or None if there is none, by trying
    every labelling of the vertices with 0, 1, 2 that puts vertex 0 in
    part 0 (the definition allows any part order).  Each part's size must
    lie within gamma * n of n/3, and under some order p1, p2, p3 of the
    parts each of the edge classes p1 -> p3, p3 -> p2 and p2 -> p1 must
    hold at most gamma * n^2 edges.  3^(n-1) labellings, so n <= 12."""
    n = graph.n
    if n > 12:
        raise ValueError(f"the labelling oracle takes n <= 12, got {n}")
    lo, hi = (1 / 3 - gamma) * n, (1 / 3 + gamma) * n
    edges = graph.edges()
    for rest in product(range(3), repeat=n - 1):
        labels = (0, *rest)
        if not all(lo <= labels.count(p) <= hi for p in range(3)):
            continue
        cross = Counter((labels[u], labels[v]) for u, v in edges)
        if any(
            all(cross[a, b] <= gamma * n * n for a, b in ((p1, p3), (p3, p2), (p2, p1)))
            for p1, p2, p3 in permutations(range(3))
        ):
            return Partition([[v for v in range(n) if labels[v] == p] for p in range(3)])
    return None


def d_copy_counts(graph):
    """Per vertex, the 4-sets containing it that induce the strong 4-vertex
    tournament: scores {1, 1, 2, 2} inside the set, whose sum 6 makes all
    six pairs edges."""
    counts = [0] * graph.n
    for quad in combinations(range(graph.n), 4):
        scores = sorted(sum(graph.has_edge(u, w) for w in quad) for u in quad)
        if scores == [1, 1, 2, 2]:
            for u in quad:
                counts[u] += 1
    return counts


def automorphisms(graph):
    """The number of vertex permutations that send every edge to an edge."""
    edges = graph.edges()
    return sum(_preserves(graph, edges, p) for p in permutations(range(graph.n)))


def _staircase(graph, perm):
    has = graph.has_edge
    value = 0
    for k in range(1, graph.n):
        for i in range(k):
            value = value << 2 | has(perm[i], perm[k]) << 1 | has(perm[k], perm[i])
    return value


def canonical_form(graph):
    """(n, bits): the least staircase serialization over all relabellings
    p, vertex k contributing the bit pairs (p_i -> p_k, p_k -> p_i) for
    i < k in turn."""
    return (graph.n, min(_staircase(graph, p) for p in permutations(range(graph.n))))


def labeled_regular_tournaments(n):
    """The number of regular tournaments on the vertex set 0..n-1, by
    orienting the pairs one at a time while every vertex can still reach
    out-degree (n-1)/2."""
    if n < 1 or n % 2 == 0:
        raise ValueError("regular tournaments need odd n")
    half = (n - 1) // 2
    pairs = list(combinations(range(n), 2))
    out = [0] * n
    open_pairs = [n - 1] * n

    def count(idx):
        if idx == len(pairs):
            return 1
        total = 0
        i, j = pairs[idx]
        open_pairs[i] -= 1
        open_pairs[j] -= 1
        for winner, loser in ((i, j), (j, i)):
            if out[winner] < half and out[loser] + open_pairs[loser] >= half:
                out[winner] += 1
                total += count(idx + 1)
                out[winner] -= 1
        open_pairs[i] += 1
        open_pairs[j] += 1
        return total

    return count(0)


def labeled_regular_dp(n):
    """The number of regular tournaments on the vertex set 0..n-1, deciding
    one vertex's remaining games at a time (see _completions)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("regular tournaments need odd n")
    return _completions(((n - 1) // 2,) * n, {})


def _splits(needs):
    """The ways the first vertex of the sorted state `needs` can play the
    others.  A state is the sorted multiset of wins each undecided vertex
    still needs.  The vertex needing fewest, r, beats r of the others and
    loses to the rest, each of which then needs one win fewer; the others
    are grouped by need, and beating b of a group of c can be done in
    C(c, b) ways.  Yields (groups, beaten, weight, next state): groups as
    sorted (need, size) pairs, beaten[i] the number beaten in groups[i]."""
    r, rest = needs[0], needs[1:]
    groups = sorted(Counter(rest).items())
    for beaten in product(*(range(c + 1) for _, c in groups)):
        # an opponent that needs no more wins cannot beat the vertex
        if sum(beaten) != r or any(need == 0 and b < c for (need, c), b in zip(groups, beaten)):
            continue
        left = []
        for (need, c), b in zip(groups, beaten):
            left += [need] * b + [need - 1] * (c - b)
        weight = prod(comb(c, b) for (_, c), b in zip(groups, beaten))
        yield groups, beaten, weight, tuple(sorted(left))


def _completions(needs, memo):
    """The number of ways to finish the games of the state `needs` (see
    _splits), memoised in the caller's dict."""
    if not needs:
        return 1
    if needs not in memo:
        memo[needs] = sum(weight * _completions(left, memo) for *_, weight, left in _splits(needs))
    return memo[needs]


def uniform_semi_regular(rng, n, samples):
    """samples tournaments drawn uniformly and independently from those on
    the vertex set 0..n-1 with the out-degrees of
    generators.semi_regular_tournament(n), the states of the reversal walk:
    regular tournaments for odd n.

    Sampling by counting (Jerrum, Valiant and Vazirani 1986) on the state
    of labeled_regular_dp: the undecided vertex needing fewest wins, the
    least such label, takes each split of its games with probability its
    number of completions over the state's, then the opponents it beats
    uniformly within each group of equal need.  For even n a sample is a
    regular tournament on n+1 vertices with its last vertex deleted: the
    draw starts from the state that tournament is in once the last vertex
    has beaten 0..n/2-1 and lost to the rest, which leaves out-degree n/2
    on 0..n/2-1 and n/2-1 on the rest.  One memo serves every sample of
    the call; its cold build grows steeply with n, so n is at most 21."""
    if not 1 <= n <= 21:
        raise ValueError(f"the exact sampler takes 1 <= n <= 21, got {n}")
    memo = {}
    drawn = []
    for _ in range(samples):
        need = [(n - 1) // 2 + (n % 2 == 0 and v < n // 2) for v in range(n)]
        edges = []
        undecided = list(range(n))
        while undecided:
            x = min(undecided, key=need.__getitem__)
            undecided.remove(x)
            state = (need[x], *sorted(need[v] for v in undecided))
            pick = rng.randrange(_completions(state, memo))
            for groups, beaten, weight, left in _splits(state):
                pick -= weight * _completions(left, memo)
                if pick < 0:
                    break
            members = [[v for v in undecided if need[v] == level] for level, _ in groups]
            for group, b in zip(members, beaten):
                chosen = set(rng.sample(group, b))
                for v in group:
                    if v in chosen:
                        edges.append((x, v))
                    else:
                        edges.append((v, x))
                        need[v] -= 1
        drawn.append(OrientedGraph(n, edges))
    return drawn


def random_oriented(rng, n, density=2 / 3):
    """Each pair becomes an edge with probability density, both
    orientations equally likely."""
    edges = []
    for i, j in combinations(range(n), 2):
        r = rng.random()
        if r < density / 2:
            edges.append((i, j))
        elif r < density:
            edges.append((j, i))
    return OrientedGraph(n, edges)


def random_tournament(rng, n):
    """Each pair oriented either way with probability 1/2."""
    return OrientedGraph(
        n, [(i, j) if rng.random() < 0.5 else (j, i) for i, j in combinations(range(n), 2)]
    )

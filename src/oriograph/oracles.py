"""Brute-force oracles that the search kernels are checked against.

Each oracle enumerates vertex tuples with itertools.permutations and
combinations and reads graphs only through has_edge and edges(), so it
shares no code with the kernels in embed, tiling or search and cannot
vouch for them.  They are exponential and meant for instances of at most
a dozen vertices.

The random-graph helpers draw every pair in a fixed order from the
caller's random.Random, so a seeded stream of instances is reproducible.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .core import OrientedGraph


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

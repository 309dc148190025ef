"""Enumeration and sampling of tournaments, plus evidence probes.

Canonical forms make isomorphism decidable by string comparison: the
canonical form of a graph is the lexicographically least serialization
of its adjacency over all vertex relabellings.  Serialization order is
the staircase one, vertex k contributing the bit pairs (p_i -> p_k,
p_k -> p_i) for i < k.  Chunk k (the pairs vertex k contributes)
outranks every later chunk, so the minimization runs level by level over
partial relabellings, keeping the extensions whose new chunk is least.
Refinement (after McKay 1981) finds them: each placed vertex narrows a
prefix's free vertices to those non-adjacent to it (digit 0), else those
beating it (1), else those it beats (2); O(k) mask steps, not O(n·k).

The level search keeps every minimizing relabelling, and any two of them,
p0 and p, give the same relabelled graph, so sigma sending p0[k] to p[k]
for each k is an automorphism; conversely every automorphism composed
with p0 minimizes.  So the minimizers form one coset of Aut(g), and the
search that computes a form also yields Aut(g) at no extra cost.

Regular tournaments are enumerated as a closure under cyclic-triangle
reversal, which keeps every score and connects all tournaments of one
score vector (Brualdi and Li): from one regular tournament, each class
found has one cyclic triangle per Aut-orbit reversed, and the results
are keyed by canonical form, the only isomorphism test.  Reversing
sigma(T) gives sigma applied to the result of reversing T, an isomorphic
graph, so the rest of T's orbit adds no class (the orbit pruning of
McKay's orderly generation).  Aut comes from the canonical search that
found the class, and the representative is relabelled by the minimizer
that search returned, so each call runs 1 + (sum over classes of the
Aut-orbits on its cyclic triangles) canonical searches: 2, 11 and 281 at
n = 5, 7 and 9.  The canonical representatives are returned in sorted
order of their forms.

Random semi-regular tournaments come from the 3-cycle reversal walk of
Brualdi and Li (analysed by Kannan, Tetali and Vempala): starting from the
deterministic semi-regular tournament, repeatedly reverse a uniformly
chosen cyclic triangle (this preserves every degree), emitting the state
after a fixed number of accepted moves.  A trial proposes a directed
2-path u -> v -> w by drawing v uniformly, then w from v's out-neighbours
and u from its in-neighbours, and accepts iff w -> u.  In a semi-regular
tournament d+(v) * d-(v) is the same for every v, so every 2-path is
proposed with the same probability; a cyclic triangle is exactly three
2-paths, so every cyclic triangle is equally likely.  This is the same
chain as drawing uniform vertex triples until one spans a cyclic
triangle, with its own seeded realisations.  That triple-rejection chain
accepts about a quarter of its trials ((n+1) / (4(n-2)) for odd n); this
one accepts about half (see random_semi_regular for its cost).  How long
the walk runs is measured, not proven: its default length is set from
two-sample tests against the exact sampler oracles.uniform_semi_regular
(see random_semi_regular), and probes that use it are labelled as
sampled evidence.
"""

from __future__ import annotations

import math
import random
from itertools import repeat

from .core import OrientedGraph, bits, serialize
from .embed import find_embedding
from .errors import BudgetExceededError
from .generators import semi_regular_tournament
from .tiling import FOUND, OUTCOME, answer, perfect_tiling, worst


def canonical_form(graph):
    """(n, bits): least staircase serialization over all relabellings,
    found level by level (see _canonical_perm_and_form)."""
    _, form, _ = _canonical_perm_and_form(graph)
    return form


def _relabelled(graph, perm):
    """The graph with vertex perm[k] renamed k."""
    inverse = [0] * graph.n
    for spot, v in enumerate(perm):
        inverse[v] = spot
    edges = [(inverse[u], inverse[v]) for u, v in graph.edges()]
    return OrientedGraph(graph.n, edges)


def _canonical_perm_and_form(graph):
    """Every minimizing permutation, the form, and the number of prefixes
    kept.  perm[k] is the vertex placed at position k, and there are
    |Aut(graph)| of them (see the module docstring); the graph relabelled
    by any of them, _relabelled(graph, perm), is the canonical
    representative, equal for isomorphic graphs.

    Level k holds every prefix p_0..p_(k-1) whose chunks are the least
    first k chunks of any relabelling.  Chunk k has one digit per placed u:
    0 if the new vertex and u are non-adjacent, 1 if it beats u, 2 if u
    beats it.  Refining the free mask by each u in turn to the candidates
    of least digit leaves exactly the vertices that give the prefix its
    least chunk.  Prefixes reaching the level's least chunk are extended by
    those vertices in ascending order.  Chunk k outranks all later chunks,
    so no prefix of a minimizing relabelling is dropped, and every prefix
    left after n levels is one: all of them are returned.  A level of L
    prefixes costs O(L·k) mask steps, not O(L·n·k).  The count is the sum
    of the level sizes.
    """
    n = graph.n
    if n == 0:
        return [()], (0, 0), 0
    out_rows, in_rows = graph.out_rows, graph.in_rows
    loose = [~(o | i) for o, i in zip(out_rows, in_rows)]
    level = [((v,), ((1 << n) - 1) ^ 1 << v) for v in range(n)]  # (prefix, free mask)
    kept = n
    value = 0
    for k in range(1, n):
        least = 1 << 2 * k  # above every chunk of k digits
        for perm, free in level:
            chunk = 0
            reach = free
            for u in perm:
                if split := reach & loose[u]:
                    chunk <<= 2
                elif split := reach & in_rows[u]:
                    chunk = chunk << 2 | 1
                else:
                    split = reach & out_rows[u]
                    chunk = chunk << 2 | 2
                reach = split
            if chunk <= least:
                if chunk < least:
                    least = chunk
                    best = []
                best.append((perm, free, reach))
        level = []
        for perm, free, reach in best:
            while reach:
                low = reach & -reach
                reach ^= low
                level.append((perm + (low.bit_length() - 1,), free ^ low))
        kept += len(level)
        value = value << (2 * k) | least
    return [perm for perm, _ in level], (n, value), kept


def enumerate_regular_tournaments(n):
    """All regular tournaments on n vertices up to isomorphism, as canonical
    representatives in sorted order of their canonical forms.  n must be
    odd and at most 11.

    Reversing a cyclic triangle keeps every score, and any two tournaments
    with the same score vector are joined by a sequence of such reversals
    (Brualdi and Li 1984).  So the classes reachable from the regular
    semi_regular_tournament(n), reversing the cyclic triangles of each
    class found, are all of them.  A class's triangles are taken as
    u -> v -> w -> u with u its least vertex, in order, skipping those in
    the Aut-orbit of a triangle already reversed: Aut(g) is
    {sigma : sigma(p0[k]) = p[k]} over the minimizers p0, p, ... that the
    canonical search returned when g was found.  Each class keeps the
    minimizer p0 it was found with, and its representative is g
    relabelled by p0."""
    if n < 1 or n % 2 == 0:
        raise ValueError("regular tournaments need odd n")
    if n > 11:
        raise ValueError("enumeration is capped at n = 11")
    start = semi_regular_tournament(n)
    perms, form, _ = _canonical_perm_and_form(start)
    classes = {form: (start, perms[0])}  # canonical form -> first graph reached, its minimizer
    frontier = [(start, perms)]
    while frontier:
        g, perms = frontier.pop()
        first = perms[0]
        automorphisms = []  # all but the identity
        for p in perms[1:]:
            sigma = [0] * n
            for a, b in zip(first, p):
                sigma[a] = b
            automorphisms.append(sigma)
        done = set()  # triangles, as vertex masks, in the orbit of one reversed
        out, into = g.out_rows, g.in_rows
        for u in range(n):
            above = -2 << u  # the vertices above u
            for v in bits(out[u] & above):
                for w in bits(out[v] & into[u] & above):
                    if automorphisms:
                        if (1 << u | 1 << v | 1 << w) in done:
                            continue
                        done.update(
                            1 << sigma[u] | 1 << sigma[v] | 1 << sigma[w] for sigma in automorphisms
                        )
                    rows = list(out)
                    rows[u] ^= 1 << v | 1 << w
                    rows[v] ^= 1 << w | 1 << u
                    rows[w] ^= 1 << u | 1 << v
                    h = OrientedGraph.from_out_rows(n, rows)
                    found, form, _ = _canonical_perm_and_form(h)
                    if form not in classes:
                        classes[form] = (h, found[0])
                        frontier.append((h, found))
    return [_relabelled(*classes[form]) for form in sorted(classes)]


def random_semi_regular(n, seed=0, moves_per_pair=4):
    """Random semi-regular tournament from a seeded reversal walk.

    Starts at the deterministic semi-regular tournament on n vertices and
    applies moves_per_pair * n^2 accepted directed-triangle reversals;
    each reversal preserves all out- and in-degrees.  moves_per_pair must
    be a non-negative int; 0 returns the start.

    Each vertex keeps its other vertices in one list, out-neighbours
    first, with a position table.  A trial draws v, an out-neighbour w and
    an in-neighbour u of v and accepts iff w -> u; the reversal swaps two
    entries in each of the three lists, and the out-rows are built once
    at the end.  d+(v) * d-(v) is ((n-1)/2)^2 for odd n and (n/2)(n/2 - 1)
    for even n at every v, so each 2-path is proposed with probability
    1 / (n d+ d-) and each cyclic triangle (three 2-paths) equally often:
    the same chain as rejection over uniform vertex triples, with its own
    seeded realisations.

    Length: a reversal flips three pairs, so after M moves the number of
    pairs oriented against the start has the parity of M.  The walk thus
    has period 2; the default M = 4 n^2 is even, and the walk targets the
    uniform law on the half of the score class at an even distance from
    the start.  Swapping two vertices flips that parity and maps each half
    onto the other, so each isomorphism class, and each statistic read at
    vertex 0 or at the pair (0, 1) (swap two other vertices), has the same
    law on both halves.  The default is four times the least length that
    passed every two-sample Kolmogorov-Smirnov test (p > 0.001) of walks
    against oracles.uniform_semi_regular, restricted to the same half, on
    four labelled statistics: the orientation of (0, 1), the number of
    pairs oriented against the start, and cyclic_edge_stat and
    d_copy_counts at vertex 0.  With 4,000 walks and
    4,000 exact samples at n = 9, 15, 21 and 16, every size failed at 0
    moves per pair (p < 1e-280) and passed at 1, 2, 3, 4, 6 and 8 (least p
    0.051, on cyclic_edge_stat at n = 16 and 1 move per pair, and 0.20
    from 3 on); with 10,000 to 12,000 of each, n = 9, 10 and 16 passed at 1
    (least p 0.53).  At n = 31, past the oracle, the same tests of 200
    walks against 200 walks of 50 or 51 moves per pair (the same parity)
    give p >= 0.06 from 1 move per pair on, and split R-hat (Gelman and
    Rubin) over 16 seeds, reading each walk after every n^2 moves, is
    0.95-1.03 over the first 4 readings and 1.00-1.01 over 32
    (cyclic_edge_stat is constant on regular tournaments and left out).

    Cost: with c3 the number of cyclic triangles, a trial is accepted
    with probability 3 c3 / (n d+ d-), that is (n+1) / (2(n-1)) for odd n
    and (n+2) / (2n) for even n.  So a walk costs about twice as many
    trials as moves, three draws each: with seed 0, 514 trials for the
    324 moves at n = 9 and 7,361 for 3,844 at n = 31.  The draws are
    truncated with math.trunc, which returns what int() does for finite
    non-negative floats at about a third of the cost, and the factors
    are kept as floats, so that the interpreter multiplies two floats
    without converting an int; the draws, and so the realisations, are
    the same either way.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if type(moves_per_pair) is not int or moves_per_pair < 0:
        raise ValueError(f"moves_per_pair must be a non-negative int, got {moves_per_pair!r}")
    start = semi_regular_tournament(n)
    # order[v]: the other vertices, the outdeg[v] out-neighbours first;
    # pos[v][x]: the index of x in order[v]
    order, pos, outdeg = [], [], []
    for v, row in enumerate(start.out_rows):
        outs = [x for x in range(n) if row >> x & 1]
        line = outs + [x for x in range(n) if x != v and not row >> x & 1]
        where = [0] * n
        for i, x in enumerate(line):
            where[x] = i
        order.append(line)
        pos.append(where)
        outdeg.append(len(outs))
    out_f = [float(d) for d in outdeg]
    in_f = [float(n - 1 - d) for d in outdeg]
    n_f = float(n)
    rand = random.Random(f"walk:{n}:{seed}").random
    trunc = math.trunc
    for _ in repeat(None, moves_per_pair * n * n):
        # propose the 2-path u -> v -> w until w -> u closes a 3-cycle
        while True:
            v = trunc(rand() * n_f)
            dv = outdeg[v]
            a = trunc(rand() * out_f[v])
            b = dv + trunc(rand() * in_f[v])
            ov = order[v]
            w = ov[a]
            u = ov[b]
            pw = pos[w]
            c = pw[u]
            if c < outdeg[w]:
                break
        # reverse to v -> u -> w -> v: in each list the two entries trade places
        pv = pos[v]
        ov[a] = u
        ov[b] = w
        pv[u] = a
        pv[w] = b
        ow = order[w]
        d = pw[v]
        ow[c] = v
        ow[d] = u
        pw[v] = c
        pw[u] = d
        ou = order[u]
        pu = pos[u]
        e = pu[v]
        f = pu[w]
        ou[e] = w
        ou[f] = v
        pu[w] = e
        pu[v] = f
    rows = [sum(1 << x for x in order[v][:outdeg[v]]) for v in range(n)]
    return OrientedGraph.from_out_rows(n, rows)


def regular_classes(n, samples, seed):
    """The classes of enumerate_regular_tournaments(n), tagged class-i; samples, seed unused."""
    return [(f"class-{i}", g) for i, g in enumerate(enumerate_regular_tournaments(n))]


def walk_samples(n, samples, seed):
    """Host sample-i, for i < samples, is the reversal walk on n vertices seeded "seed:i"."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return [(f"sample-{i}", random_semi_regular(n, seed=f"{seed}:{i}")) for i in range(samples)]


# the probes' host sources by name: each maps (n, samples, seed) to (tag, graph) pairs
POPULATIONS = {"exhaustive": regular_classes, "sample": walk_samples}


def turanability_probe(pattern, sizes, mode="exhaustive", samples=100, seed=0, budget=None):
    """Evidence report: which hosts of POPULATIONS[mode] (regular_classes or
    walk_samples) at the given sizes contain the pattern.  Findings are finite
    evidence; nothing is claimed beyond the sizes listed.  A host that misses
    the pattern refutes (see tiling.worst).  Turanability concerns regular
    tournaments, so at least one size is needed and each must be odd: a
    sampled host on an even number of vertices is only semi-regular."""
    if mode not in POPULATIONS:
        raise ValueError(f"unknown mode {mode!r}")
    if not sizes or any(n % 2 == 0 for n in sizes):
        raise ValueError("regular tournaments need odd n, and at least one size")
    per_n = []
    for n in sizes:
        population = POPULATIONS[mode](n, samples, seed)
        misses = []
        gave_up = []
        for tag, g in population:
            try:
                if find_embedding(pattern, g, budget=budget) is None:
                    misses.append({"tag": tag, "graph": serialize(g)})
            except BudgetExceededError:
                gave_up.append(tag)
        entry = {
            "n": n,
            "population": len(population),
            "containing": len(population) - len(misses) - len(gave_up),
            "misses": misses,
        }
        if gave_up:
            entry["inconclusive"] = gave_up
        per_n.append(entry)
    return {
        "pattern": serialize(pattern),
        "mode": mode,
        "seed": seed,
        "note": "finite evidence only, no claim beyond the sizes listed",
        "per_n": per_n,
        "outcome": worst(
            [answer(not e["misses"]) for e in per_n] + ["inconclusive" for e in per_n if "inconclusive" in e]
        ),
    }


def tileability_probe(pattern, sizes, samples=20, seed=0, budget=None):
    """Evidence report: which hosts of POPULATIONS["sample"] (see walk_samples)
    have a perfect tiling by the pattern.  Sizes the pattern order does not divide
    are skipped, but one must be tested; a host with no tiling refutes (see tiling.worst)."""
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if all(n % pattern.n for n in sizes):
        raise ValueError(f"no listed size is divisible by the pattern order {pattern.n}")
    per_n = []
    for n in sizes:
        if n % pattern.n:
            per_n.append({"n": n, "skipped": "pattern order does not divide n"})
            continue
        outcomes = []
        for tag, host in POPULATIONS["sample"](n, samples, seed):
            result = perfect_tiling(pattern, host, budget=budget)
            outcome = {"tag": tag, "mode": result.mode}
            if result.mode == FOUND:
                outcome["copies"] = [list(c) for c in result.tiling.copies]
            outcomes.append(outcome)
        tiled = sum(o["mode"] == FOUND for o in outcomes)
        per_n.append({"n": n, "samples": len(outcomes), "tiled": tiled, "outcomes": outcomes})
    return {
        "pattern": serialize(pattern),
        "seed": seed,
        "note": "finite evidence only, no claim beyond the sizes listed",
        "per_n": per_n,
        "outcome": worst(OUTCOME[o["mode"]] for e in per_n for o in e.get("outcomes", ())),
    }

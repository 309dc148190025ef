"""Oriented graphs with bit-row adjacency.

An oriented graph is a directed graph with no loops and at most one edge
per vertex pair; a tournament orients every pair.  Adjacency is stored as
one Python int per vertex whose set bits are the out-neighbours, so
neighbourhood intersections and degree counts are single bitwise
operations.  Graphs are immutable once built and therefore safe to share
across threads.

The module also defines vertex partitions with their index vectors
(i_P(U) counts how many vertices of U fall in each part), injective
edge-preserving embeddings, the plain-text .dg / .parts file formats
used by the command line tools, and Record, the base of the package's
immutable result types.
"""

from __future__ import annotations

from itertools import combinations

from .errors import EdgeError, ParseError, PartError

# No graph or partition, built or read, has more than this many vertices.
MAX_VERTICES = 1024


def check_order(n):
    """Refuse a vertex count outside 0..MAX_VERTICES, before any work sized by it."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1."""

    __slots__ = ("n", "out_rows", "in_rows", "edge_count")

    def __init__(self, n, edges=()):
        check_order(n)
        out = [0] * n
        inr = [0] * n
        m = 0
        # m edges are accepted when one is refused, so m is its position
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeError(m, f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise EdgeError(m, f"loop at vertex {u}")
            if out[u] >> v & 1:
                raise EdgeError(m, f"duplicate edge ({u}, {v})")
            if out[v] >> u & 1:
                raise EdgeError(m, f"edge ({u}, {v}) conflicts with edge ({v}, {u})")
            out[u] |= 1 << v
            inr[v] |= 1 << u
            m += 1
        self.n = n
        self.out_rows = tuple(out)
        self.in_rows = tuple(inr)
        self.edge_count = m

    @classmethod
    def from_out_rows(cls, n, rows):
        """Build from per-vertex out-neighbour masks, validating antisymmetry."""
        check_order(n)
        g = object.__new__(cls)
        if len(rows) != n:
            raise ValueError("row count does not match n")
        inr = [0] * n
        m = 0
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
            m += row.bit_count()
            for v in bits(row):
                inr[v] |= 1 << u
        for u in range(n):
            if rows[u] & inr[u]:
                raise ValueError(f"conflicting orientations at vertex {u}")
        g.n = n
        g.out_rows = tuple(rows)
        g.in_rows = tuple(inr)
        g.edge_count = m
        return g

    def has_edge(self, u, v):
        return self.out_rows[u] >> v & 1 == 1

    def out_degree(self, v):
        self._check_vertex(v)
        return self.out_rows[v].bit_count()

    def in_degree(self, v):
        self._check_vertex(v)
        return self.in_rows[v].bit_count()

    def degrees(self, v):
        """(out-degree, in-degree) of v."""
        return (self.out_degree(v), self.in_degree(v))

    def out_neighbors(self, v):
        return list(bits(self.out_rows[v]))

    def in_neighbors(self, v):
        return list(bits(self.in_rows[v]))

    def edges(self):
        """All edges as (tail, head), sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.out_rows[u])]

    def is_tournament(self):
        return self.edge_count == self.n * (self.n - 1) // 2

    def min_semi_degree(self):
        """delta^0: the minimum over vertices of min(out-degree, in-degree)."""
        if self.n == 0:
            return 0
        return min(
            min(o.bit_count(), i.bit_count())
            for o, i in zip(self.out_rows, self.in_rows)
        )

    def classify(self):
        tournament = self.is_tournament()
        d0 = self.min_semi_degree()
        semi_regular = tournament and d0 == (self.n - 1) // 2 if self.n else tournament
        return Classification(
            is_tournament=tournament,
            min_semi_degree=d0,
            is_semi_regular=semi_regular,
            is_regular=semi_regular and self.n % 2 == 1,
        )

    def induced(self, vertices):
        """Subgraph induced on the given vertex set, relabelled in ascending order."""
        sub = sorted(set(vertices))
        for v in sub:
            self._check_vertex(v)
        pos = {v: i for i, v in enumerate(sub)}
        edges = [
            (pos[u], pos[v])
            for u in sub
            for v in bits(self.out_rows[u])
            if v in pos
        ]
        return OrientedGraph(len(sub), edges)

    def score_multiset(self):
        """Sorted tuple of out-degrees."""
        return tuple(sorted(r.bit_count() for r in self.out_rows))

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other):
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self.out_rows == other.out_rows
        )

    def __hash__(self):
        return hash((self.n, self.out_rows))

    def __repr__(self):
        return f"OrientedGraph(n={self.n}, m={self.edge_count})"


class Record:
    """Base of the package's immutable result types.

    The fields are the subclass's __slots__, given in order by position or
    by name; DEFAULTS maps fields to the values they take when left out.
    Records compare, hash, print and pickle by their fields, leaving the
    fields after the first COMPARED out of equality and hashing, and refuse
    assignment.  Frozen dataclasses would do the same, but they compile
    six methods for every class each time the package is imported, which
    made up about a fifth of the memory an import keeps.
    """

    __slots__ = ()
    DEFAULTS = {}
    COMPARED = None

    def __init__(self, *values, **named):
        fields = self.__slots__
        given = {**self.DEFAULTS, **named, **dict(zip(fields, values))}
        if (len(values) > len(fields) or named.keys() & set(fields[: len(values)])
                or given.keys() != set(fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, given[name])

    def _compared(self):
        return tuple(getattr(self, name) for name in self.__slots__[: self.COMPARED])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Classification(Record):
    __slots__ = ("is_tournament", "min_semi_degree", "is_semi_regular", "is_regular")


class Partition:
    """Ordered partition of a vertex set into d pairwise disjoint parts."""

    __slots__ = ("parts", "masks", "ground_mask")

    def __init__(self, parts):
        masks = []
        ground = 0
        for i, part in enumerate(parts):
            mask = 0
            for v in part:
                if not 0 <= v < MAX_VERTICES:
                    raise PartError(i, f"vertex {v} out of range 0..{MAX_VERTICES - 1}")
                if mask >> v & 1:
                    raise PartError(i, f"vertex {v} repeated inside a part")
                if ground >> v & 1:
                    raise PartError(i, f"vertex {v} appears in two parts")
                mask |= 1 << v
            masks.append(mask)
            ground |= mask
        if not masks:
            raise ValueError("a partition needs at least one part")
        self.parts = tuple(frozenset(bits(mask)) for mask in masks)
        self.masks = tuple(masks)
        self.ground_mask = ground

    @property
    def d(self):
        return len(self.parts)

    def index_vector(self, vertices):
        """i_P(U): per-part counts of the vertices of U."""
        mask = 0
        for v in vertices:
            if v < 0 or not self.ground_mask >> v & 1:
                raise ValueError(f"vertex {v} is not covered by the partition")
            mask |= 1 << v
        return tuple((mask & m).bit_count() for m in self.masks)

    def check_covers(self, n):
        """Raise ValueError unless the parts cover exactly the vertices 0..n-1."""
        if self.ground_mask != (1 << n) - 1:
            raise ValueError(f"partition does not cover exactly the vertices 0..{n - 1}")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition(sizes={tuple(len(p) for p in self.parts)})"


class Embedding(Record):
    """Injective map pattern -> host sending every pattern edge to a host edge."""

    __slots__ = ("pattern", "host", "mapping")  # mapping[v]: the host vertex of v

    def verify(self):
        phi = self.mapping
        if (len(phi) != self.pattern.n or len(set(phi)) != len(phi)
                or not all(0 <= w < self.host.n for w in phi)):
            return False
        return all(
            self.host.has_edge(phi[u], phi[v]) for u, v in self.pattern.edges()
        )

    def index_vector(self, partition):
        return partition.index_vector(self.mapping)


# --- .dg file format -------------------------------------------------------
#
# Line 1 is "n m"; the next m lines are "u v" for the edge u->v, vertices
# 0-indexed.  '#' starts a comment anywhere on a line.  The canonical
# serialization lists edges sorted by (tail, head).


def _strip(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse(text):
    """Parse .dg text into an OrientedGraph, reporting errors by line number."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        if body:
            rows.append((lineno, body))
    if not rows:
        raise ParseError(1, "missing header line 'n m'")
    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(lineno, f"header must be 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(lineno, f"header must be two integers, got {header!r}") from None
    if m < 0:
        raise ParseError(lineno, "m must be nonnegative")
    body_rows = rows[1:]
    if len(body_rows) != m:
        raise ParseError(lineno, f"header announces {m} edges, file has {len(body_rows)}")
    edges = []
    for lineno, body in body_rows:
        fields = body.split()
        if len(fields) != 2:
            raise ParseError(lineno, f"edge line must be 'u v', got {body!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(lineno, f"edge line must be two integers, got {body!r}") from None
    # the constructor checks n and the edges; a refused edge is named by its position
    try:
        return OrientedGraph(n, edges)
    except EdgeError as exc:
        raise ParseError(body_rows[exc.index][0], str(exc)) from None
    except ValueError as exc:
        raise ParseError(rows[0][0], str(exc)) from None


def serialize(graph):
    """Canonical .dg text: header then edges sorted by (tail, head)."""
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_partition(text):
    """Parse .parts text: one line per part, space-separated vertex ids."""
    parts = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        if not body:
            continue
        try:
            parts.append([int(f) for f in body.split()])
        except ValueError:
            raise ParseError(lineno, f"part line must be integers, got {body!r}") from None
        lines.append(lineno)
    if not parts:
        raise ParseError(1, "partition file has no parts")
    # the constructor checks the vertices; a refused part is named by its position
    try:
        return Partition(parts)
    except PartError as exc:
        raise ParseError(lines[exc.index], str(exc)) from None


def serialize_partition(partition):
    return "\n".join(" ".join(str(v) for v in sorted(p)) for p in partition.parts) + "\n"


def read_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_graph(path, graph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph))


def read_partition(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partition(fh.read())


def write_partition(path, partition):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_partition(partition))


def isomorphic_brute(a, b):
    """Permutation-check isomorphism for small graphs (test oracle helper)."""
    from itertools import permutations

    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(a.score_multiset()) != sorted(b.score_multiset()):
        return False
    av = list(range(a.n))
    for perm in permutations(range(b.n)):
        if all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u, v in combinations(av, 2)
        ) and all(
            a.has_edge(v, u) == b.has_edge(perm[v], perm[u])
            for u, v in combinations(av, 2)
        ):
            return True
    return False

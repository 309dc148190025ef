"""
Index vectors, residue lattices, and transferrals
=================================================

Where copies of a pattern can sit inside a partitioned host is a question
about a small abelian group: the subgroup of (Z_m)^3 generated by the
copies' index vectors.  If the host's own index vector lies outside that
subgroup, no perfect tiling exists, no search required.
"""

from oriograph.generators import c3_barrier, d_abc, rotational, t_sk
from oriograph.lattice import (
    edge_vectors,
    find_2_transferrals,
    residue_lattice,
    tiling_lattice_precheck,
)
from oriograph.tiling import copy_hypergraph

# The copy hypergraph of the triangle in c3_barrier(2): seven 3-sets.
triangle = rotational(3, [1])
host, parts = c3_barrier(2)
hyper = copy_hypergraph(triangle, host)
print("triangle copies in c3_barrier(2):", len(hyper.edges))

# Each copy meets the parts in one of two ways.
report = edge_vectors(hyper, parts, threshold=1)
for vec, count in report.counts:
    print("  edge-vector", vec, "from", count, "copies")

# No pair of vectors differs by e_i - e_j, so copies cannot trade one
# vertex between parts: there is no 2-transferral to balance the parts.
print("2-transferrals:", find_2_transferrals(report))

# The lattice generated by the vectors mod 3 misses the parts' sizes.
verdict = tiling_lattice_precheck(hyper, parts)
print("lattice refutes a perfect tiling:", verdict.refutes,
      "- target", verdict.target, "modulus", verdict.modulus)

# The same machinery, standalone: a subgroup of (Z_6)^3 from seven
# generators, membership by Hermite normal form.
gens = ((2, 2, 2), (4, 1, 1), (1, 4, 1), (1, 1, 4), (3, 3, 0), (3, 0, 3), (0, 3, 3))
lat = residue_lattice(gens, 6, 3)
print("lattice size:", lat.size)
print("(3,3,0) in lattice:", (3, 3, 0) in lat)
print("(1,2,3) in lattice:", (1, 2, 3) in lat)

# Those seven generators are exactly the index vectors available to
# D_2-copies in t_sk(2,1) that a tiling could use, and (5,4,3)-style
# part sizes sit outside the subgroup they span.
d2, _ = d_abc(2, 2, 2)
w = t_sk(2, 1)
hyper = copy_hypergraph(d2, w.graph)
verdict = tiling_lattice_precheck(hyper, w.partition)
print("t_sk(2,1) vs D_2:", "refuted" if verdict.refutes else "open",
      "- unreachable target", verdict.target)

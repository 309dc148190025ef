"""
Perfect tilings and the walls they run into
===========================================

A perfect F-tiling covers the host with vertex-disjoint copies of F.
The solver reports how each search ends: a tiling, a divisibility
obstruction, a residue-lattice obstruction, or an exhausted search tree.
"""

from oriograph.generators import blow_up, c3_barrier, d_abc, rotational, t_sk
from oriograph.tiling import perfect_tiling

triangle = rotational(3, [1])
d, _ = d_abc(1, 1, 2)

# The doubled triangle tiles perfectly: two disjoint triangles.
host, _ = blow_up(triangle, 2)
res = perfect_tiling(triangle, host)
print("triangle in blown-up triangle:", res.mode, sorted(map(sorted, res.tiling.copies)))

# Divisibility is the first wall: 3 does not divide 7.
qr7 = rotational(7, [1, 2, 4])
print("triangle in QR_7:", perfect_tiling(triangle, qr7).mode)

# c3_barrier(n) has large minimum semi-degree yet no triangle factor.
# The search proves it by exhausting the exact-cover tree.
host, parts = c3_barrier(2)
res = perfect_tiling(triangle, host)
print("triangle in c3_barrier(2):", res.mode)

# Handing the solver the partition lets it refute without listing a
# single triangle.  The parts' quotient already limits the index vector
# of any copy: part 1 has one vertex and no inner edge, so no triangle
# lies inside it.  The |U| = 3 vectors left cannot sum to the part sizes
# modulo 3.
res = perfect_tiling(triangle, host, partition=parts)
print("with partition:", res.mode)
print("  note:", res.note)

# The same bound kills D_2-tilings of t_sk(2,1); without the
# partition the solver needs the whole search tree to say the same thing.
d2, _ = d_abc(2, 2, 2)
w = t_sk(2, 1)
print("D_2 in t_sk(2,1):", perfect_tiling(d2, w.graph).mode)
res = perfect_tiling(d2, w.graph, partition=w.partition)
print("with partition:", res.mode)

# A starved budget ends inconclusively rather than guessing.
res = perfect_tiling(d2, w.graph, budget=10)
print("budget 10:", res.mode, "-", res.note)

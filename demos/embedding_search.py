"""
Embedding search: copies, counts, and a graph with no home
==========================================================

The backtracking embedder answers three questions: is there a copy of the
pattern in the host, how many labeled copies are there, and which parts of
a partitioned host do the copies touch.
"""

from oriograph.embed import count_embeddings, find_embedding
from oriograph.generators import cycle_power, d_abc, graph_s, rotational, t_sk
from oriograph.lattice import edge_vectors
from oriograph.tiling import copy_hypergraph

# D sits inside S in exactly one way.
d, _ = d_abc(1, 1, 2)
s = graph_s()
emb = find_embedding(d, s)
print("D -> S mapping:", emb.mapping, "verified:", emb.verify())
print("labeled copies of D in S:", count_embeddings(d, s))

# S in turn sits inside the regular tournament on 5 vertices.
c52 = cycle_power(5, 2)
print("S -> C_5^2:", find_embedding(s, c52).mapping)

# The square of C_6 has no copy in the rotational tournament on 7
# vertices with residues {1,2,4}, even though both are highly regular.
c62 = cycle_power(6, 2)
qr7 = rotational(7, [1, 2, 4])
print("C_6^2 -> QR_7:", find_embedding(c62, qr7))
print("labeled copies:", count_embeddings(c62, qr7))

# With a partitioned host we can ask where the copies live.  Every copy
# of D_2 in t_sk(2,1) spreads evenly over the three parts: index vector
# (2,2,2) and nothing else.
d2, _ = d_abc(2, 2, 2)
w = t_sk(2, 1)
vectors = edge_vectors(copy_hypergraph(d2, w.graph), w.partition).vectors
print("index vectors of D_2-copies in t_sk(2,1):", sorted(vectors))

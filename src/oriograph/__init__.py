"""Toolkit for oriented graphs and tournaments: named constructions,
embedding search, perfect tilings with divisibility certificates, residue
lattices, vertex statistics, and enumeration."""

from .core import (
    Classification,
    Embedding,
    MAX_VERTICES,
    OrientedGraph,
    Partition,
    parse,
    parse_partition,
    read_graph,
    read_partition,
    serialize,
    serialize_partition,
    write_graph,
    write_partition,
)
from .embed import (
    count_embeddings,
    find_embedding,
    iter_embeddings,
)
from .errors import BudgetExceededError, EdgeError, ParseError, PartError, ResourceLimitError
from .generators import (
    TskWitness,
    blow_up,
    c3_barrier,
    cycle_power,
    d_abc,
    f_r,
    graph_s,
    rotational,
    semi_regular_tournament,
    t_sk,
    transitive,
)
from .lattice import (
    EdgeVectorReport,
    ResidueLattice,
    edge_vectors,
    find_2_transferrals,
    residue_lattice,
    tiling_lattice_precheck,
)
from .analysis import (
    cyclic_edge_stat,
    cyclic_edge_window,
    d_copies_floor,
    d_copy_counts,
    extremal_check,
    find_extremal_partition,
    semi_degree_slack,
)
from .search import (
    canonical_form,
    enumerate_regular_tournaments,
    random_semi_regular,
    tileability_probe,
    turanability_probe,
)
from .tiling import (
    CopyHypergraph,
    Tiling,
    TilingResult,
    copy_hypergraph,
    hypergraph_perfect_matching,
    perfect_tiling,
    verify_tiling,
)

__version__ = "0.1.0"

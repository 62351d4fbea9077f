"""APSP and exact-triangle solvers for graphs with few distinct weights.

Library layout:

- core: weights, matrices, edge-weighted graphs (node-weighted graphs are
  edge graphs built by node_weighted_graph), file I/O
- minplus: product kernels and hop-bounded graph products
- apsp: oracle and multi-level pivot solvers
- additive: sumsets, popular sums, isolating primes, covering decomposition
- exact_triangle: All-Edges Exact Triangle solvers and reductions
- reductions: pipeline converters and hardness-gadget generators
- generators: seeded random instances
- cli: the `fewweights` command
"""

from .core import (
    AuditError,
    BOT,
    EdgeWeightedGraph,
    FormatError,
    NEG_INF,
    POS_INF,
    WeightError,
    WeightMatrix,
    audit_distinct_weights,
    build_one_hop_matrix,
    load_graph,
    load_matrix,
    node_weighted_graph,
    save_graph,
    save_matrix,
)
from .minplus import (
    boolean_matrix_multiply,
    boolean_min_plus,
    d_weights_min_plus,
    hop_bounded_product,
    hop_bounded_product_edge,
    hop_bounded_product_left,
    min_plus_naive,
)
from .apsp import (
    BridgingState,
    apsp_oracle,
    eliminate_negative_cycles,
    greedy_hitting_set,
    sample_pivots,
    solve_apsp,
)
from .additive import (
    bsg_cover,
    isolating_primes,
    popular_sum_decomposition,
    popular_sums_approx,
    popular_sums_exact,
)
from .exact_triangle import (
    RegularityAudit,
    TriangleInstance,
    TriangleReport,
    aete_brute,
    aete_few_weights,
    aete_small_doubling,
    aete_uniform_regular,
    canonical_orientation,
    poly_matrix_multiply,
    regularize,
    regularize_naive,
    uniformize,
    uniformize_naive,
)
from .reductions import (
    GadgetGraph,
    ScalingFrame,
    apsp_from_minplus,
    gen_bounded_minplus_gadget,
    gen_column_weight_gadget,
    make_scaling_promise,
    minplus_from_aete,
    row_weight_minplus_via_nw_apsp,
)

__version__ = "0.1.0"

"""qmconvex: decide M-convexity of quadratic functions on the size-r slice
of {0,1}^n, with infinite coefficients allowed.

The fast path runs in O(n^2); an enumeration oracle provides ground truth
for cross-checking, and seeded generators produce yes/no corpora.
"""

__version__ = "0.1.0"

from .core import (
    BOTTLENECK_PATH,
    DEFAULT_EPSILON,
    DOMAIN_VIOLATION,
    EXCHANGE_VIOLATION,
    EXIT_CODES,
    INF,
    INVALID_INSTANCE,
    MIN_EPSILON,
    M_CONVEX,
    NOT_M_CONVEX,
    QUADRUPLE_VIOLATION,
    UNDECIDED,
    BudgetExceededError,
    InstanceFormatError,
    InternalInconsistencyError,
    QuadraticInstance,
    Verdict,
    Witness,
    apply_potential,
    approx_eq,
    approx_gt,
    approx_le,
    parse_instance,
    relabel,
    serialize_instance,
)
from .fast_tester import (
    DEFAULT_BRUTE_FORCE_BUDGET,
    LaminarFamily,
    NormalizedMatrix,
    check_anti_ultrametric,
    decompose,
    find_violation_quadruple,
    normalize_type1,
    reconstruct,
    test_mconvexity,
    test_type1,
    test_type2,
    test_type3,
)
from .generators import (
    SimpleGraph,
    WeightedTree,
    build_f_graph,
    gen_linear_typed,
    gen_tree_metric_type1,
    leaf_distance_matrix,
    max_stable_set_size,
    pad_graph,
    parse_edge_list,
    perturb,
    random_weighted_tree,
    solve_problem_p,
    tree_metric_instance,
)
from .oracle import (
    DomainSet,
    LinearCertificate,
    enumerate_domain,
    evaluate,
    exchange_axiom_holds,
    is_mconvex_set,
    linear_certificate,
    linear_fit,
    local_exchange_holds,
    quadruple_violated,
    verify_witness,
)
from .structure import (
    DOM_EMPTY,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    ComponentDecomposition,
    InfinityGraph,
    build_infinity_graph,
    check_condition_a_under_b,
    check_condition_b,
    classify,
    decompose_components,
)

"""Arithmetical structures, chip firing, and critical groups on trees."""

from .arithstruct import (
    ArithmeticalStructure,
    ArithStructError,
    DivisibilityViolation,
    MissingVertexValue,
    NonIntegralOrder,
    RankDefect,
    critical_group,
    laplacian_structure,
    structure_from_r,
    tree_order_formula,
    validate,
)
from .chipfiring import (
    ChipFiringError,
    Divisor,
    NonzeroDegree,
    SizeViolation,
    clearable,
    divisor_degree,
    equivalent,
    fire,
    full_divisor,
    order_in_group,
    reduce_support,
    sweep_tentacle,
)
from .construct import (
    BetaOutOfRange,
    BroomPlan,
    ConstructError,
    PathWithNontrivialTarget,
    TooManyFactors,
    broom_with_group,
    plan_broom,
    realize_group,
    realize_on_subdivision,
)
from .enumeration import (
    EnumerationConfig,
    EnumerationError,
    TreeTooLarge,
    enumerate_structures,
)
from .exactlinalg import (
    AbelianGroup,
    DimensionMismatch,
    ExactLinalgError,
    IntegerMatrix,
    NonpositiveOrder,
    SmithDecomposition,
    determinantal_divisor,
    group_from_orders,
    smith_normal_form,
)
from .graphcore import (
    DisconnectedGraph,
    DuplicateVertex,
    EmptyGraph,
    Graph,
    GraphError,
    LoopEdge,
    NotATree,
    Tentacle,
    Tree,
    UnknownEdge,
    UnknownVertex,
    build_graph,
    build_tree,
    fresh_name,
    path_as_tentacle,
    path_endpoints,
    subdivide,
    tentacles,
    wedge,
)
from .mergestar import (
    MergeStarError,
    NotStarlike,
    check_merge_additivity,
    merge_structures,
    starlike_critical_group,
)
from .treedecomp import (
    CyclicClass,
    InternalInconsistency,
    StarlikeDecomposition,
    StarlikeSplitting,
    TreeDecompError,
    cyclic_classification,
    invariant_factor_bound,
    iota,
    starlike_decomposition,
    two_matching_number,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

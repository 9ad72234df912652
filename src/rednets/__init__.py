"""Column-reduced digital nets over prime fields.

Construction and reduction of digital nets, exact quality analysis, a fast
matrix-matrix product exploiting the repetitive point structure of reduced
nets, and weighted star discrepancy bounds.
"""

from .discrepancy import (
    GlobalBound,
    WeightModel,
    avb_coefficients,
    choose_reduction_indices,
    exact_star_discrepancy,
    global_disc_bound,
    local_discrepancy,
    projection_disc_bound,
    zeta_product_check,
    zeta_value,
)
from .gfmat import FieldMatrix
from .nets import (
    NetSpec,
    PointBlock,
    ReductionSchedule,
    block_diag_seq,
    column_reduce,
    generate_points,
    pascal_net,
    prepend_zero_columns_seq,
    random_net,
    read_net,
    row_reduce,
    write_net,
)
from .product import (
    OpCounts,
    Transform,
    fast_reduced_product,
    norm_inverse,
    op_count_model,
    qmc_estimate,
    standard_product,
)
from .quality import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    QualityReport,
    TheoremBounds,
    analyze,
    rho,
    strict_t,
    theorem_bounds,
    verify_tmes_net,
    verify_tms_net,
)

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "FieldMatrix",
    "GlobalBound",
    "NetSpec",
    "OpCounts",
    "PointBlock",
    "QualityReport",
    "ReductionSchedule",
    "TheoremBounds",
    "Transform",
    "WeightModel",
    "analyze",
    "avb_coefficients",
    "block_diag_seq",
    "choose_reduction_indices",
    "column_reduce",
    "exact_star_discrepancy",
    "fast_reduced_product",
    "generate_points",
    "global_disc_bound",
    "local_discrepancy",
    "norm_inverse",
    "op_count_model",
    "pascal_net",
    "prepend_zero_columns_seq",
    "projection_disc_bound",
    "qmc_estimate",
    "random_net",
    "read_net",
    "rho",
    "row_reduce",
    "standard_product",
    "strict_t",
    "theorem_bounds",
    "verify_tmes_net",
    "verify_tms_net",
    "write_net",
    "zeta_product_check",
    "zeta_value",
]

__version__ = "0.1.0"

"""Column-reduced digital nets over prime fields.

Construction and reduction of digital nets, exact quality analysis, a fast
matrix-matrix product exploiting the repetitive point structure of reduced
nets, and weighted star discrepancy bounds.
"""

import importlib

from .nets import (
    EnumerationBudgetError,
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

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
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


def __getattr__(name: str):
    """Load ``quality`` and ``discrepancy`` on first use of one of their names
    (PEP 562), so the product path never compiles them.  A name is looked up
    on its module at every access and never copied here, so a module
    attribute replaced later shows through."""
    for sub in ("quality", "discrepancy"):
        if name == sub or name in __all__:
            module = importlib.import_module(f".{sub}", __name__)
            if name == sub or name in module.__all__:
                return module if name == sub else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "quality", "discrepancy"})

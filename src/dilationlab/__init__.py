"""dilationlab: completely contractive representations of product systems
over N^k, their block-lowering contractive semigroups, and regular
isometric dilations via Toeplitz-kernel Kolmogorov factorization."""

from .cstar import CStarAlgebra, make_algebra
from .correspondence import (
    Correspondence,
    algebra_correspondence,
    interior_tensor,
    localize,
    trivial_correspondence,
    validate_correspondence,
)
from .dilation import (
    DilationBundle,
    KernelWindow,
    compare_minimal_dilations,
    kolmogorov,
    verify_doubly_commuting_V,
    verify_hat_doubly_commuting,
    verify_regular_dilation,
    window_gram,
)
from .errors import (
    DilationLabError,
    IncoherentFlipsError,
    InstanceFormatError,
    InvalidArgumentError,
    InvalidFlipError,
    NotPositiveDefiniteError,
    NotWellDefinedError,
)
from .hatspace import TruncatedFock, a_action, brehmer_check_hat, check_hat_semigroup, check_technology, hat_T
from .prodsys import ProductSystem, make_product_system
from .representation import (
    AlgebraRepresentation,
    CCRepresentation,
    brehmer_check_NS,
    doubly_commuting_check,
    validate_representation,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraRepresentation",
    "CCRepresentation",
    "CStarAlgebra",
    "Correspondence",
    "DilationBundle",
    "DilationLabError",
    "IncoherentFlipsError",
    "InstanceFormatError",
    "InvalidArgumentError",
    "InvalidFlipError",
    "KernelWindow",
    "NotPositiveDefiniteError",
    "NotWellDefinedError",
    "ProductSystem",
    "TruncatedFock",
    "a_action",
    "algebra_correspondence",
    "brehmer_check_NS",
    "brehmer_check_hat",
    "check_hat_semigroup",
    "check_technology",
    "compare_minimal_dilations",
    "doubly_commuting_check",
    "hat_T",
    "interior_tensor",
    "kolmogorov",
    "localize",
    "make_algebra",
    "make_product_system",
    "trivial_correspondence",
    "validate_correspondence",
    "validate_representation",
    "verify_doubly_commuting_V",
    "verify_hat_doubly_commuting",
    "verify_regular_dilation",
    "window_gram",
]

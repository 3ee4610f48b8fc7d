"""dilationlab: completely contractive representations of product systems
over N^k, their block-lowering contractive semigroups, and regular
isometric dilations via Toeplitz-kernel Kolmogorov factorization.

The names imported below are the public API."""

from .cstar import CStarAlgebra
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
from .hatspace import TruncatedFock, hat_checks
from .prodsys import ProductSystem
from .representation import (
    AlgebraRepresentation,
    CCRepresentation,
    brehmer_check_NS,
    doubly_commuting_check,
    validate_representation,
)

__version__ = "0.1.0"

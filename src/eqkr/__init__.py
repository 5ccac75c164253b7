"""eqkr: presentations of equivariant KR-theory rings of compact Lie groups.

The pipeline: exact root-system arithmetic (groups), Real/Quaternionic
type classification relative to an involution (realstruct, oracle),
coefficient-ring arithmetic for KR*(pt) and friends (coeffs), the
generators-and-relations presentation engine (presentation, torus), a
property verifier (verifier) and a command-line front end (cli).
"""

from .groups import (
    GroupSpec,
    UnsupportedGroupError,
    DominanceError,
    parse_group,
    build_root_data,
    weyl_dimension,
    character,
    tensor_decompose,
)
from .realstruct import (
    Involution,
    IrrepClass,
    FundamentalSplit,
    UnclassifiableError,
    classify_type,
    fs_rule_type,
    split_fundamentals,
)
from .coeffs import KCoeff, KRCoeff, c_coeff, r_coeff
from .presentation import (
    Presentation,
    RingElement,
    RClassIndex,
    PresentationError,
    build_bz_presentation,
    build_kr_presentation,
    rclass_square,
    delta_lift,
    complexify,
    poincare_table,
)
from .torus import torus_restriction_un, weyl_denominator_product, LaurentForm
from .verifier import (
    CheckResult,
    run_suite,
    verify_cr,
    verify_leibniz,
    verify_module_iso,
    verify_oracle,
    verify_squares,
    verify_weyl_denominator,
)

__all__ = [name for name in dir() if not name.startswith("_")]

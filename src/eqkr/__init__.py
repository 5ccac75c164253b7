"""eqkr: presentations of equivariant KR-theory rings of compact Lie groups.

The pipeline: exact root-system arithmetic (groups), Real/Quaternionic
type classification relative to an involution (realstruct, oracle),
coefficient-ring arithmetic for KR*(pt) and friends (coeffs), the
generators-and-relations presentation engine (presentation, torus), a
property verifier (verifier) and a command-line front end (cli).

Importing the package loads none of them.  Each export below is looked
up in the submodule that defines it when it is used (PEP 562), on every
access and never stored here, so a rebinding in its submodule is seen
through the package too.  README.md says what each entry point loads.
"""

from importlib import import_module as _import_module

_EXPORTS = {  # submodule -> the names the package exports from it
    "groups": ("GroupSpec", "UnsupportedGroupError", "DominanceError",
               "parse_group", "build_root_data", "weyl_dimension", "character",
               "tensor_decompose"),
    "realstruct": ("Involution", "IrrepClass", "FundamentalSplit",
                   "UnclassifiableError", "classify_type", "split_fundamentals"),
    "coeffs": ("KCoeff", "KRCoeff", "c_coeff", "r_coeff"),
    "presentation": ("Presentation", "RingElement", "RClassIndex",
                     "PresentationError", "build_bz_presentation",
                     "build_kr_presentation", "rclass_square", "delta_lift",
                     "complexify", "poincare_table"),
    "torus": ("torus_restriction_un", "weyl_denominator_product", "LaurentForm"),
    "verifier": ("CheckResult", "run_suite", "verify_cr", "verify_leibniz",
                 "verify_module_iso", "verify_oracle", "verify_squares",
                 "verify_weyl_denominator"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = _import_module(f"{__name__}.{module or name}")
    return sub if module is None else getattr(sub, name)


def __dir__():
    return sorted({*globals(), *__all__})

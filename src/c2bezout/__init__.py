"""Exact equivariant cohomology of finite projective spaces with
involution: Euler classes of sums of line bundles and their expansion
into Schubert-variety classes, with a machine-verification harness for
every identity involved."""

from .grading import PiBDegree, ROC2Degree
from .point import OutsideSupportedSubring
from .projective import (Ambient, ProjClass, ambient, class_Q, class_chi_Q,
                         gen_cw, gen_cxw, gen_zeta0, gen_zeta1, proj_tau)
from .bundles import (BundleSum, BundleInvariants, ContextViolation,
                      LineBundleSpec, bundle_invariants, euler_closed_form,
                      euler_line, euler_product, euler_type_block,
                      parse_bundles)
from .schubert import (BezoutExpansion, BinatePair, FixedPoint, FreeOrbit,
                       InvariantChain, bezout_expansion, chiQ_class, class_of,
                       expansion_class, special_case)

__version__ = "0.1.0"

__all__ = [
    "PiBDegree", "ROC2Degree",
    "OutsideSupportedSubring",
    "Ambient", "ProjClass", "ambient", "class_Q", "class_chi_Q",
    "gen_cw", "gen_cxw", "gen_zeta0", "gen_zeta1", "proj_tau",
    "BundleSum", "BundleInvariants", "ContextViolation", "LineBundleSpec",
    "bundle_invariants", "euler_closed_form", "euler_line", "euler_product",
    "euler_type_block", "parse_bundles",
    "BezoutExpansion", "BinatePair", "FixedPoint", "FreeOrbit", "InvariantChain",
    "bezout_expansion", "chiQ_class", "class_of", "expansion_class",
    "special_case",
    "SweepConfig", "VerifyReport", "run_verify",
]

# The sweep harness, and the names the package exports from it, load on
# first use: importing the package, or running the CLI's euler, bezout,
# basis and point-table, leaves it out.
_LAZY = ("SweepConfig", "VerifyReport", "run_verify", "verify")


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module
        verify = import_module(f"{__name__}.verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})

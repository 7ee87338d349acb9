"""Exact invariants of links of weighted homogeneous singularities.

The pipeline runs from a weight system to the divisor of its monodromy
characteristic polynomial, the Betti numbers and torsion order of the link,
branched covers realizing any prescribed H_2 order, and the enumeration of
the spin 5-manifolds compatible with that order.  All arithmetic is exact.

The package exports what README's Library section, the CLI's commands and
the acceptance suite use; every other name is imported from its module.
"""

from .cover import CoverLink, build_cover, diagnose_cover
from .divisor import OrlikDivisor
from .errors import (
    ConsistencyError,
    CoprimalityError,
    CrossCheckError,
    FamilyDomainError,
    InputError,
    InvalidIndexError,
    NotAPolynomialError,
    NotASmoothCurveError,
    TwoPathMismatchError,
    WhlinkError,
)
from .invariants import LinkInvariants, link_invariants
from .primes import primes_4l_minus_1
from .realization import (
    FamilyMember,
    RealizationCertificate,
    family_member,
    realize,
    search_weight_systems,
)
from .smale import SmaleManifold, smale_decompositions
from .verify import VerificationReport, run_verification
from .weights import WeightSystem

__version__ = "0.1.0"

__all__ = [
    "CoverLink",
    "build_cover",
    "diagnose_cover",
    "OrlikDivisor",
    "ConsistencyError",
    "CoprimalityError",
    "CrossCheckError",
    "FamilyDomainError",
    "InputError",
    "InvalidIndexError",
    "NotAPolynomialError",
    "NotASmoothCurveError",
    "TwoPathMismatchError",
    "WhlinkError",
    "LinkInvariants",
    "link_invariants",
    "primes_4l_minus_1",
    "FamilyMember",
    "RealizationCertificate",
    "family_member",
    "realize",
    "search_weight_systems",
    "SmaleManifold",
    "smale_decompositions",
    "VerificationReport",
    "run_verification",
    "WeightSystem",
    "__version__",
]

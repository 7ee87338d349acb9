"""Exact invariants of links of weighted homogeneous singularities.

The pipeline runs from a weight system to the divisor of its monodromy
characteristic polynomial, the Betti numbers and torsion order of the link,
branched covers realizing any prescribed H_2 order, and the enumeration of
the spin 5-manifolds compatible with that order.  All arithmetic is exact.
"""

from .cover import CoverLink, build_cover, cover_divisor, cover_weights, diagnose_cover
from .divisor import OrlikDivisor, lam, relation_holds
from .errors import (
    ConsistencyError,
    CoprimalityError,
    CrossCheckError,
    FamilyDomainError,
    InputError,
    InvalidIndexError,
    MalformedDivisorError,
    NonIntegralDivisorError,
    NotAPolynomialError,
    NotASmoothCurveError,
    PoleAtOneError,
    TwoPathMismatchError,
    UnitValueError,
    WhlinkError,
    ZeroAtOneError,
)
from .invariants import (
    MAX_POLY_DEGREE,
    LinkInvariants,
    betti_from_divisor,
    char_poly_from_divisor,
    invariants_from_divisor,
    link_invariants,
    milnor_orlik_divisor,
    oracle_expand,
)
from .primes import factorize, is_prime, primes_4l_minus_1
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
    "cover_divisor",
    "cover_weights",
    "diagnose_cover",
    "OrlikDivisor",
    "lam",
    "relation_holds",
    "ConsistencyError",
    "CoprimalityError",
    "CrossCheckError",
    "FamilyDomainError",
    "InputError",
    "InvalidIndexError",
    "MalformedDivisorError",
    "NonIntegralDivisorError",
    "NotAPolynomialError",
    "NotASmoothCurveError",
    "PoleAtOneError",
    "TwoPathMismatchError",
    "UnitValueError",
    "WhlinkError",
    "ZeroAtOneError",
    "MAX_POLY_DEGREE",
    "LinkInvariants",
    "betti_from_divisor",
    "char_poly_from_divisor",
    "invariants_from_divisor",
    "link_invariants",
    "milnor_orlik_divisor",
    "oracle_expand",
    "factorize",
    "is_prime",
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

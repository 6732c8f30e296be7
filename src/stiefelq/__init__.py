"""Exact topological invariants of cyclic quotients of complex Stiefel
manifolds.

The objects are the quotients of the manifold of unitary k-frames in C^n by
the scalar action of the m-th roots of unity (1 <= k < n, m >= 2); lens
spaces are the k = 1 members.  The library computes, in exact integer
arithmetic: mod-p cohomology presentations with Poincare polynomials, the
orders and height of the powers of the degree-2 integral class,
characteristic classes, span and stable-span bounds, and three-valued
parallelizability verdicts.
"""

from stiefelq.arith import factorize, is_prime, radon_hurwitz
from stiefelq.charclass import (
    CharClassReport,
    PontrjaginTerm,
    StiefelWhitneyTerm,
    char_class_report,
    stiefel_whitney_classes,
)
from stiefelq.manifold import (
    BasicInvariants,
    ManifoldParams,
    ParameterError,
    basic_invariants,
    validate,
)
from stiefelq.modp import (
    CohomologyCase,
    PolyGenerator,
    RingPresentation,
    SquareRule,
    classify,
    poincare_polynomial,
    presentation,
    total_dimension,
    truncation_exponent,
)
from stiefelq.report import (
    CSV_HEADER,
    SCHEMA_VERSION,
    CohomologyEntry,
    GridSpec,
    InvariantReport,
    compute_report,
    default_primes,
    generate_table,
    render,
    render_table,
    report_from_json,
)
from stiefelq.span import (
    SpanReport,
    TriState,
    lower_bound_from_external_span,
    span_eq_stable_guaranteed,
    span_lower_bound,
    span_report,
    span_upper_bound,
)
from stiefelq.torsion import TorsionProfile, torsion_profile

__version__ = "0.1.0"

__all__ = [
    "BasicInvariants",
    "CSV_HEADER",
    "CharClassReport",
    "CohomologyCase",
    "CohomologyEntry",
    "GridSpec",
    "InvariantReport",
    "ManifoldParams",
    "ParameterError",
    "PolyGenerator",
    "PontrjaginTerm",
    "RingPresentation",
    "SCHEMA_VERSION",
    "SpanReport",
    "SquareRule",
    "StiefelWhitneyTerm",
    "TorsionProfile",
    "TriState",
    "basic_invariants",
    "char_class_report",
    "classify",
    "compute_report",
    "default_primes",
    "factorize",
    "generate_table",
    "is_prime",
    "lower_bound_from_external_span",
    "poincare_polynomial",
    "presentation",
    "radon_hurwitz",
    "render",
    "render_table",
    "report_from_json",
    "span_eq_stable_guaranteed",
    "span_lower_bound",
    "span_report",
    "span_upper_bound",
    "stiefel_whitney_classes",
    "torsion_profile",
    "total_dimension",
    "truncation_exponent",
    "validate",
]

"""Span and stable-span bounds, and parallelizability verdicts.

Lower bounds on the span (maximal number of everywhere linearly independent
vector fields) come from the tangent-bundle geometry: k^2 trivial summands
split off, the circle-quotient base contributes its stable span, and a
sphere-bundle recursion climbs in k.  Strict inequalities of the form
span > X are recorded as span >= X + 1.  Upper bounds exist only for k = 1
(the sphere bound via the Radon-Hurwitz number) and the trivial dimension
bound.

Verdicts are three-valued, and the order NO < UNKNOWN < YES makes
"parallelizable <= stably parallelizable" a checkable inequality.  YES needs
a positive construction (k = n - 1: the quotient of a compact Lie group by a
finite subgroup); NO needs a nonzero characteristic class; everything else
stays UNKNOWN.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from typing import Iterable

from stiefelq.arith import _int_to_decimal, radon_hurwitz
from stiefelq.charclass import (
    CharClassReport,
    PontrjaginTerm,
    StiefelWhitneyTerm,
    _pontrjagin_terms,
    _stiefel_whitney_terms,
)
from stiefelq.manifold import ManifoldParams, ParameterError, _check_int, _record
from stiefelq.torsion import _orders

__all__ = [
    "TriState",
    "SpanReport",
    "span_lower_bound",
    "span_upper_bound",
    "span_eq_stable_guaranteed",
    "lower_bound_from_external_span",
    "span_report",
]


@total_ordering
class TriState(Enum):
    NO = "no"
    UNKNOWN = "unknown"
    YES = "yes"

    @property
    def rank(self) -> int:
        return ("no", "unknown", "yes").index(self.value)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, TriState):
            return NotImplemented
        return self.rank < other.rank


_BASE_REASON = (
    "base case k = 1: one field always exists (odd dimension, zero Euler "
    "characteristic); sharper lens-space tables are out of scope"
)
_LIE_REASON = (
    "quotient of a compact Lie group by a finite subgroup is parallelizable, "
    "so span equals the dimension"
)


_CIRCLE_BASE_REASON = (
    "strictly above the stable span of the circle-quotient base, which is "
    ">= dim - 2n + 1; the strict excess rounds up to dim - 2n + 2"
)
_EVEN_N_REASON = "even n: strictly above dim - 2n + 3, rounding up to dim - 2n + 4"


def _lower_bound_rule(n: int, k: int) -> tuple[int, str]:
    """The lower bound on the span with the rule that gives it.

    k = n - 1: the space is parallelizable, so the bound is dim (n = 2
    included, where k = 1).  k = 1: the bound is 1.  For 2 <= k <= n - 2 the
    candidates are k^2, f(k) = dim - 2n + 2 (dim - 2n + 4 for even n) and
    the bound at k - 1 plus 1, and f(k) always wins.  It exceeds k^2 by
    2(k - 1)(n - k - 1) > 0.  At k = 2 it is 2n - 2 >= 6 against 1 + 1, and
    from there it grows by 2n - 2k + 1 >= 5 per step in k, while the
    candidate from k - 1 grows by 1.
    """
    dim = k * (2 * n - k)
    if k == n - 1:
        return dim, _LIE_REASON
    if k == 1:
        return 1, _BASE_REASON
    if n % 2 == 0:
        return dim - 2 * n + 4, _EVEN_N_REASON
    return dim - 2 * n + 2, _CIRCLE_BASE_REASON


def span_lower_bound(params: ManifoldParams) -> int:
    return _lower_bound_rule(params.n, params.k)[0]


def _upper_bound_rule(params: ManifoldParams) -> tuple[int, str]:
    """The upper bound with the rule that gives it."""
    if params.k == 1:
        return (
            radon_hurwitz(2 * params.n) - 1,
            "Radon-Hurwitz sphere bound rho(2n) - 1 passed down to the k = 1 quotient",
        )
    return params.dimension, "dimension bound (none sharper implemented)"


def span_upper_bound(params: ManifoldParams) -> int:
    """For k = 1 the quotient of the sphere inherits the Radon-Hurwitz bound
    rho(2n) - 1; otherwise only the dimension bound is available."""
    return _upper_bound_rule(params)[0]


def _equality_rule(params: ManifoldParams) -> tuple[bool, str]:
    """Whether span = stable span is guaranteed, with its provenance line."""
    n, k = params.n, params.k
    if k == 1:
        return False, "span = stable span: k = 1 is not covered by the equality criteria"
    if k % 2 == 0:
        return True, "span = stable span guaranteed: k even"
    if n % 2 == 1:
        return True, "span = stable span guaranteed: n odd"
    if n % 4 == 2:
        return True, "span = stable span guaranteed: n = 2 (mod 4)"
    return False, (
        "span = stable span not guaranteed (no criterion applies; "
        "equality is not ruled out)"
    )


def span_eq_stable_guaranteed(params: ManifoldParams) -> bool:
    """True when an implemented criterion forces span = stable span: k even,
    n odd, or n = 2 (mod 4), all for k >= 2.  k = 1 is not covered and
    returns False (which asserts nothing)."""
    return _equality_rule(params)[0]


def _verdicts(
    params: ManifoldParams,
    pontrjagin: Iterable[PontrjaginTerm],
    stiefel_whitney: Iterable[StiefelWhitneyTerm],
) -> tuple[TriState, TriState, str]:
    """(stably_parallelizable, parallelizable, provenance line), read off the
    char class terms of ``params`` in order.  It returns at the first nonzero
    term, so terms made lazily are never made past it."""
    if params.k == params.n - 1:
        return TriState.YES, TriState.YES, f"verdicts YES: {_LIE_REASON}"
    for t in pontrjagin:
        if not t.is_zero:
            return (
                TriState.NO,
                TriState.NO,
                f"verdicts NO: Pontrjagin term j={t.j} has coefficient "
                f"{_int_to_decimal(t.raw_coefficient)} = {t.reduced} "
                f"(mod {t.modulus}), nonzero",
            )
    for t in stiefel_whitney:
        if t.present:
            return (
                TriState.NO,
                TriState.NO,
                f"verdicts NO: Stiefel-Whitney class in degree {t.degree} is nonzero",
            )
    return (
        TriState.UNKNOWN,
        TriState.UNKNOWN,
        "verdicts UNKNOWN: every implemented obstruction vanishes and no "
        "positive criterion applies",
    )


def lower_bound_from_external_span(params: ManifoldParams, external_span: int) -> int:
    """Improved stable-span lower bound from an externally supplied span of
    2nk copies of the Hopf line bundle over the real projective space of
    dimension 2n - 1.  Only meaningful for m = 2, where that bundle pulls
    back to the stable tangent bundle; other m are rejected."""
    _check_int(external_span, "external-span")
    if params.m != 2:
        raise ParameterError(
            "external-span-needs-m-2",
            f"the external-span bound applies only to m = 2, got m = {params.m}",
        )
    limit = 2 * params.n * params.k
    if not 0 <= external_span <= limit:
        raise ParameterError(
            "external-span-range",
            f"external span must lie in [0, {limit}] (the bundle rank), "
            f"got {external_span}",
        )
    return max(span_lower_bound(params), external_span - params.k**2)


@_record
class SpanReport:
    span_lower: int
    span_upper: int
    stable_span_lower: int
    span_eq_stable_guaranteed: bool
    parallelizable: TriState
    stably_parallelizable: TriState
    provenance: tuple[str, ...]


def span_report(
    params: ManifoldParams,
    external_span: int | None = None,
    char_classes: CharClassReport | None = None,
) -> SpanReport:
    """Assemble every implemented bound and verdict, each with a provenance
    line naming the mechanism that produced it.  A caller that already holds
    the char classes of ``params`` passes them in so they are not rebuilt;
    classes without n // 2 Pontrjagin terms cannot be those of ``params``
    and raise ``ParameterError`` with reason ``classes-mismatch``.  Without
    them, the torsion orders and the char class terms are made one at a
    time and read only up to the verdict: the first nonzero term ends the
    work."""
    n, k = params.n, params.k
    lower, why = _lower_bound_rule(n, k)
    prov = [f"span lower bound {lower}: {why}"]

    upper, why = _upper_bound_rule(params)
    prov.append(f"span upper bound {upper}: {why}")

    eq, why = _equality_rule(params)
    prov.append(why)

    stable_lower = lower
    if external_span is not None:
        improved = lower_bound_from_external_span(params, external_span)
        if improved > stable_lower:
            stable_lower = improved
            prov.append(
                f"stable span lower bound {stable_lower}: externally supplied "
                f"span {external_span} of {2 * n * k} Hopf line bundles over "
                f"RP^{2 * n - 1}, minus k^2 = {k * k}"
            )
            if eq:
                lower = stable_lower
                prov.append(
                    f"span lower bound raised to {lower}: the equality criterion "
                    "transfers the stable-span bound to the span"
                )
        else:
            prov.append(
                f"external span {external_span} does not improve the bound "
                f"(needs more than k^2 = {k * k} over {stable_lower})"
            )

    if char_classes is None:
        pontrjagin: Iterable[PontrjaginTerm] = _pontrjagin_terms(params, _orders(n, k, params.m))
        stiefel_whitney: Iterable[StiefelWhitneyTerm] = _stiefel_whitney_terms(params)
    else:
        # one len(): the check costs reports, which pass their own classes,
        # less than a private core's extra call would cost the lazy route
        pontrjagin, stiefel_whitney = char_classes.pontrjagin, char_classes.stiefel_whitney
        if len(pontrjagin) != n // 2:
            raise ParameterError(
                "classes-mismatch",
                f"the char classes are not those of (n={n}, k={k}, m={params.m}): "
                f"they need {n // 2} Pontrjagin terms, got {len(pontrjagin)}",
            )
    stably, plain, verdict_why = _verdicts(params, pontrjagin, stiefel_whitney)
    prov.append(verdict_why)
    return SpanReport(lower, upper, stable_lower, eq, plain, stably, tuple(prov))

"""Mod-p cohomology presentations of the frame quotients.

For a prime p the additive structure takes one of four shapes, decided by how
p meets m:

  COPRIME         p does not divide m.  The quotient map is a mod-p
                  equivalence, so the answer is the frame manifold's own
                  cohomology: an exterior-style algebra on odd-degree
                  generators v_d for d = 2n-2k+1, 2n-2k+3, ..., 2n-1.
  ODD_DIVIDES     p odd, p | m.  Truncated polynomial algebra on the degree-2
                  class, tensor an exterior part on the degree-1 class and
                  the odd run with one degree omitted.
  TWO_MOD_FOUR    p = 2, m = 2 (mod 4).  The degree-1 class itself generates
                  a truncated polynomial algebra (its square is the degree-2
                  class), tensor the reduced odd run.
  ZERO_MOD_FOUR   p = 2, m = 0 (mod 4).  Shaped like ODD_DIVIDES over Z_2;
                  the square of the degree-1 class is zero.

The truncation exponent of the degree-2 class is the least j in [n-k+1, n]
with C(n, j) nonzero mod p; it always exists because C(n, n) = 1.  Twice it
minus one is the odd degree omitted from the exterior run, and twice it is
the truncation of the degree-1 generator in the TWO_MOD_FOUR case.

For p = 2 the exterior parts describe an additive (square-free monomial)
basis; no product structure beyond the recorded square rule is claimed.

The formulas are established for 2 <= k < n.  k = 1 is accepted here because
they then reduce to the classical lens-space answer, but reports flag those
results as extrapolated.
"""

from __future__ import annotations

import re
import sys
from array import array
from enum import Enum
from itertools import repeat
from typing import Iterable, Sequence

from stiefelq.arith import is_prime
from stiefelq.manifold import ManifoldParams, ParameterError, _check_int, _check_k, _record

# Unsigned array type code of each item size among 1, 2, 4 and 8 bytes, the
# first that has it ("L" is 4 bytes on some platforms and 8 on others).
_ARRAY_CODES = {array(c).itemsize: c for c in reversed("BHILQ")}

__all__ = [
    "CohomologyCase",
    "SquareRule",
    "PolyGenerator",
    "RingPresentation",
    "truncation_exponent",
    "classify",
    "presentation",
    "poincare_polynomial",
    "total_dimension",
]


class CohomologyCase(Enum):
    COPRIME = "COPRIME"
    ODD_DIVIDES = "ODD_DIVIDES"
    TWO_MOD_FOUR = "TWO_MOD_FOUR"
    ZERO_MOD_FOUR = "ZERO_MOD_FOUR"


class SquareRule(Enum):
    """What the square of the degree-1 generator is, when there is one."""

    NONE = "NONE"
    DEG1_SQUARE_ZERO = "DEG1_SQUARE_ZERO"
    DEG1_SQUARE_IS_DEG2 = "DEG1_SQUARE_IS_DEG2"


@_record
class PolyGenerator:
    """A truncated polynomial generator: degree and truncation exponent
    (generator^truncation = 0)."""

    degree: int
    truncation: int


@_record
class RingPresentation:
    """Additive presentation of the mod-p cohomology.

    ``deg2_truncation`` is the truncation exponent of the degree-2 class; it
    is None exactly in the COPRIME case.  ``exterior_degrees`` is sorted
    ascending.
    """

    p: int
    case: CohomologyCase
    poly_generator: PolyGenerator | None
    exterior_degrees: tuple[int, ...]
    square_rule: SquareRule
    deg2_truncation: int | None

    def render(self) -> str:
        """Canonical one-line form.

        Grammar:  the COPRIME case renders as ``Lambda_Z_<p>(v<d>, ...)``;
        the truncated cases as ``Z_<p>[y<g>]/(y<g>^<T>)``, followed by
        `` (x) Lambda(y<d>, ...)`` when the exterior part is nonempty.
        Generators are labelled by degree, ascending.
        """
        if self.case is CohomologyCase.COPRIME:
            gens = ", ".join(map("v{}".format, self.exterior_degrees))
            return f"Lambda_Z_{self.p}({gens})"
        g = self.poly_generator
        assert g is not None
        poly = f"Z_{self.p}[y{g.degree}]/(y{g.degree}^{g.truncation})"
        if not self.exterior_degrees:
            return poly
        gens = ", ".join(map("y{}".format, self.exterior_degrees))
        return f"{poly} (x) Lambda({gens})"


def truncation_exponent(n: int, k: int, p: int) -> int:
    """Least j in [n-k+1, n] with C(n, j) nonzero mod p.

    By Lucas, C(n, j) mod p is the product of the digit binomials C(n_i, j_i)
    over the base-p digits, so it is nonzero exactly when every digit of j is
    at most the matching digit of n.

    n and k are checked as ``validate`` checks them, and p as
    ``presentation`` checks it.
    """
    _check_int(n, "n")
    _check_int(k, "k")
    _check_k(n, k)
    _check_prime(p)
    return _truncation_exponent(n, k, p)


def _truncation_exponent(n: int, k: int, p: int) -> int:
    """``truncation_exponent`` for ints 1 <= k < n and a p already known to
    be prime."""
    for j in range(n - k + 1, n + 1):
        a, b = n, j
        while b and b % p <= a % p:
            a //= p
            b //= p
        if not b:
            return j
    raise AssertionError("unreachable: C(n, n) = 1 is nonzero mod every prime")


def classify(m: int, p: int) -> CohomologyCase:
    """Which of the four mod-p cohomology cases m falls in: COPRIME when p
    does not divide m, ODD_DIVIDES for an odd p dividing m, and for p = 2
    TWO_MOD_FOUR or ZERO_MOD_FOUR by m mod 4.  p is checked as
    ``presentation`` checks it."""
    _check_int(m, "m")
    _check_prime(p)
    return _case(m, p)


def _case(m: int, p: int) -> CohomologyCase:
    """``classify`` for a p already known to be prime."""
    if m % p != 0:
        return CohomologyCase.COPRIME
    if p != 2:
        return CohomologyCase.ODD_DIVIDES
    return CohomologyCase.TWO_MOD_FOUR if m % 4 == 2 else CohomologyCase.ZERO_MOD_FOUR


def _check_prime(p: int) -> None:
    """Raise ``ParameterError`` with reason ``p-not-int`` unless p is exactly
    an int, and ``p-not-prime`` unless it is a prime."""
    _check_int(p, "p")
    if not is_prime(p):
        raise ParameterError("p-not-prime", f"p must be prime, got {p}")


def presentation(params: ManifoldParams, p: int) -> RingPresentation:
    """The additive mod-p presentation for one prime p.  Raises
    ``ParameterError`` with reason ``p-not-int`` or ``p-not-prime`` unless p
    is an exact int and a prime."""
    _check_prime(p)
    return _presentation(params, p)


def _presentation(params: ManifoldParams, p: int) -> RingPresentation:
    """``presentation`` for a p already proven prime, by ``default_primes``
    or ``_check_primes`` in reports and tables."""
    n, k = params.n, params.k
    case = _case(params.m, p)
    run = tuple(range(2 * n - 2 * k + 1, 2 * n, 2))
    if case is CohomologyCase.COPRIME:
        return RingPresentation(
            p=p,
            case=case,
            poly_generator=None,
            exterior_degrees=run,
            square_rule=SquareRule.NONE,
            deg2_truncation=None,
        )
    half = _truncation_exponent(n, k, p)
    omitted = 2 * half - 1  # always lies inside the odd run
    reduced_run = tuple(d for d in run if d != omitted)
    assert len(reduced_run) == k - 1
    if case is CohomologyCase.TWO_MOD_FOUR:
        return RingPresentation(
            p=2,
            case=case,
            poly_generator=PolyGenerator(degree=1, truncation=2 * half),
            exterior_degrees=reduced_run,
            square_rule=SquareRule.DEG1_SQUARE_IS_DEG2,
            deg2_truncation=half,
        )
    return RingPresentation(
        p=p,
        case=case,
        poly_generator=PolyGenerator(degree=2, truncation=half),
        exterior_degrees=(1,) + reduced_run,
        square_rule=SquareRule.DEG1_SQUARE_ZERO,
        deg2_truncation=half,
    )


def poincare_polynomial(pres: RingPresentation, n: int, k: int) -> list[int]:
    """Coefficients of the mod-p Poincare polynomial, indexed by degree.

    The list has length k(2n - k) + 1 exactly: the top class sits in the
    dimension of the manifold.  ``pres`` is the presentation for this (n, k).
    It is the one-presentation call of the routine a report runs once for
    all its primes, which expands the factor they share once.

    In every case the polynomial is the odd run (1 + t^d), d = 2n-2k+1, ...,
    2n-1, with at most the degree 2h - 1 left out, times a truncated series,
    h being the degree-2 truncation exponent.  Outside COPRIME the series
    times the degree-1 factor is 1 + t + ... + t^(2h-1) = (1 - t^(2h))/(1 - t):
    G_2h(t) in TWO_MOD_FOUR, (1 + t) G_h(t^2) in the other two.  With Omega
    the omitted degrees of all the presentations, the run without Omega is
    the base B, expanded once; S = B/(1 - t) is formed once; a prime with h
    is (1 - t^(2h)) S times (1 + t^d) for each other degree of Omega, and
    COPRIME is B times all of Omega.

    The products are formed in one integer each (Kronecker substitution):
    the coefficient of t^i sits in the i-th slot of w = (k - 1) // 8 + 1
    bytes, rounded up to 1, 2, 4 or 8 when it is at most 8, so k <= 64
    always has slots of at most 8 bytes.  No slot carries, because no slot
    ever holds more than 2^(k-1), a k-bit number.  Outside COPRIME each
    coefficient of the answer is a sum of 2h consecutive coefficients of the
    run without 2h - 1, whose k - 1 factors sum to 2^(k-1).  The whole run
    (COPRIME's answer) has only odd degrees, so the subsets of it that reach
    degree i all have the parity of i: at most 2^(k-1) of the 2^k.  Every
    partial product is coefficientwise at most one of these, since the
    factors still to come are 1 + t^d: B's are part of the whole run, the
    others part of one prime's answer.  Each slot of S is a partial sum of
    B's coefficients, and B lacks at least one factor of the run, so it sums
    to at most 2^(k-1).  No slot borrows either: (1 - t^(2h)) S is formed
    as S minus t^(2h) times the low H - 2h slots of S, and its coefficient
    of t^i, i < H, is S_i - S_(i-2h), a sum of 2h coefficients of B, so the
    difference of two nonnegative integers is nonnegative slot by slot.
    Slots of at most 8 bytes are read back as one ``array``; wider ones
    through ``int.from_bytes`` mapped over ``re.findall`` of the slots, both
    at C level.

    Only the low H = (dim + 2) // 2 slots are read back; Poincare duality
    gives the rest.  Shifts move slots only upward, and so do carries, so
    the low H slots of a product depend only on the low H slots of its
    factors: products are cut back to H slots now and then (see
    ``_poincare_polynomials``).  S, below t^H, is B times
    1 + t + ... + t^(H-1).  Slots of 1 or 2 bytes form it as
    ((B << 8wH) - B) // (2^(8w) - 1), one division by a one-digit int.
    Wider slots, where that divisor takes more digits and the division ran
    twice as long, form it as B times (1 + t)(1 + t^2)(1 + t^4)...(1 + t^(2^j))
    = 1 + t + ... + t^(2^(j+1) - 1) for the least j with 2^(j+1) >= H: log2 H
    shift-adds.

    Each factor is palindromic: (1 + t^d) of degree d, and the series
    1 + t^g + ... + t^(g(T - 1)) of degree g(T - 1).  A product of
    palindromes is a palindrome of the summed degree, and in every case that
    sum is dim = k(2n - k):

      COPRIME         the odd run 2n-2k+1, 2n-2k+3, ..., 2n-1 alone, which
                      sums to k(2n - k);
      ODD_DIVIDES,    2(h - 1) for the series in y2, plus 1 for y1, plus the
      ZERO_MOD_FOUR   run without 2h - 1;
      TWO_MOD_FOUR    2h - 1 for the series in y1 (T = 2h), plus the run
                      without 2h - 1.

    So b_i = b_(dim - i), and each list is its own reverse.

    n and k are checked as ``validate`` checks them: ``ParameterError`` with
    reason ``n-not-int``, ``k-not-int``, ``k-too-small`` or ``k-not-below-n``.
    A presentation whose p is not an exact int and a prime, or that is not
    the one of (n, k) for its p and case, raises ``ParameterError`` with
    reason ``presentation-mismatch``.
    """
    _check_int(n, "n")
    _check_int(k, "k")
    _check_k(n, k)
    p = pres.p
    mismatch = ParameterError(
        "presentation-mismatch", f"the presentation is not the mod-{p!r} one of (n={n}, k={k})"
    )
    # the rebuild below assumes a proven prime; a record edited or loaded
    # with any other p is no presentation at all
    try:
        _check_prime(p)
    except ParameterError:
        raise mismatch from None
    # a presentation depends on m only through its case: rebuild it from an
    # m of that case, which takes O(k)
    cases = CohomologyCase
    m = {cases.COPRIME: p + 1, cases.ODD_DIVIDES: p, cases.TWO_MOD_FOUR: 2, cases.ZERO_MOD_FOUR: 4}
    if pres.case not in m or _presentation(ManifoldParams(n, k, m[pres.case]), p) != pres:
        raise mismatch
    return list(_poincare_polynomials((pres,), n, k)[0])


def _poincare_polynomials(
    presentations: Sequence[RingPresentation], n: int, k: int
) -> list[tuple[int, ...]]:
    """``poincare_polynomial`` of each presentation of one (n, k), as a
    tuple, from one expansion of the factor they share.

    Masking: a product is cut to its low H slots only once its degree bound
    has passed H - 1 by more than H // 8, and once more at its end.  A cut
    is a pass over H slots, so each factor taken uncut saves one, while the
    slots above H only lengthen the next shift-add a little.  The low H
    slots stay exact whatever the dropped ones held, since shifts and
    carries only move upward: slot i of a product never depends on a slot
    above i of its factors."""
    w = (k - 1) // 8 + 1
    if w <= 8:
        w = 1 << (w - 1).bit_length()
    bits = 8 * w
    length = k * (2 * n - k) + 1
    half = (length + 1) // 2
    mask = (1 << half * bits) - 1
    omitted = {2 * p.deg2_truncation - 1 for p in presentations if p.deg2_truncation is not None}
    run = range(2 * n - 2 * k + 1, 2 * n, 2)
    base = _times(1, 0, [d for d in run if d not in omitted], bits, half, mask)
    if omitted and bits <= 16:
        # 2^(8w) - 1 is one 30-bit digit of a CPython int: one division beats
        # log2 H shift-adds
        series = (((base << half * bits) - base) // ((1 << bits) - 1)) & mask
    elif omitted:
        doublings = [1 << i for i in range((half - 1).bit_length())]
        series = _times(base, half - 1, doublings, bits, half, mask)
    polys = []
    for pres in presentations:
        h = pres.deg2_truncation
        if h is None:
            packed, rest = base, omitted
        else:
            # (1 - t^(2h)) S, of its H slots, from nonnegative ints only
            packed, rest = series, omitted - {2 * h - 1}
            if 2 * h < half:
                packed -= (series & ((1 << (half - 2 * h) * bits) - 1)) << 2 * h * bits
        packed = _times(packed, half - 1, rest, bits, half, mask)
        raw = packed.to_bytes(half * w, "little")
        if w > 8:
            low = list(map(int.from_bytes, re.findall(b".{%d}" % w, raw, re.S), repeat("little")))
        else:
            slots = array(_ARRAY_CODES[w], raw)
            if sys.byteorder == "big":
                slots.byteswap()
            low = slots.tolist()
        # the mirror of the first length // 2 slots (length >= 4 for valid
        # n and k); it holds the same int objects
        low += low[length // 2 - 1 :: -1]
        polys.append(tuple(low))
    return polys


def _times(packed: int, top: int, degrees: Iterable[int], bits: int, half: int, mask: int) -> int:
    """``packed``, a product of degree at most ``top`` in slots of ``bits``
    bits, times 1 + t^d for each d in ``degrees``, masked to its low
    ``half`` slots (``mask``) as ``_poincare_polynomials`` masks."""
    limit = half - 1 + half // 8
    for deg in degrees:
        packed += packed << deg * bits
        top += deg
        if top > limit:
            packed &= mask
            top = half - 1
    return packed & mask if top >= half else packed


def total_dimension(pres: RingPresentation, k: int) -> int:
    """Total mod-p dimension: 2^k when p is coprime to m, otherwise twice the
    degree-2 truncation exponent times 2^(k-1).

    The exterior degrees of ``pres`` fix the k it was built for: there are k
    of them, or k - 1 in TWO_MOD_FOUR.  Another k raises ``ParameterError``
    with reason ``presentation-mismatch``."""
    _check_int(k, "k")
    if k < 1:
        raise ParameterError("k-too-small", f"k must be >= 1, got {k}")
    built_for = len(pres.exterior_degrees) + (pres.case is CohomologyCase.TWO_MOD_FOUR)
    if k != built_for:
        raise ParameterError(
            "presentation-mismatch", f"the presentation was built for k={built_for}, got k={k}"
        )
    if pres.case is CohomologyCase.COPRIME:
        return 2**k
    assert pres.deg2_truncation is not None
    return 2 * pres.deg2_truncation * 2 ** (k - 1)

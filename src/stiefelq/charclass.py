"""Pontrjagin and Stiefel-Whitney classes of the frame quotients.

The stable tangent bundle is nk copies of the dual covering line bundle, so
the total Pontrjagin class is (1 + y^2)^(nk) for the degree-2 class y and the
total Stiefel-Whitney class is (1 + x^2)^(nk) for the degree-1 mod-2 class x.
Each term is a binomial coefficient times a power whose additive order the
torsion module knows; a term vanishes exactly when the order divides the
coefficient.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from stiefelq.manifold import ManifoldParams, ParameterError, _record
from stiefelq.modp import _truncation_exponent
from stiefelq.torsion import TorsionProfile

__all__ = [
    "PontrjaginTerm",
    "StiefelWhitneyTerm",
    "CharClassReport",
    "stiefel_whitney_classes",
    "char_class_report",
]


@_record
class PontrjaginTerm:
    """The degree-4j term: raw_coefficient C(nk, j) on the 2j-th power of the
    degree-2 class, whose additive order is ``modulus``."""

    j: int
    raw_coefficient: int
    modulus: int
    reduced: int
    is_zero: bool


@_record
class StiefelWhitneyTerm:
    degree: int
    present: bool


@_record
class CharClassReport:
    pontrjagin: tuple[PontrjaginTerm, ...]
    stiefel_whitney: tuple[StiefelWhitneyTerm, ...]
    all_pontrjagin_vanish: bool
    all_sw_vanish: bool


def _stiefel_whitney_terms(params: ManifoldParams) -> Iterator[StiefelWhitneyTerm]:
    """The even-degree Stiefel-Whitney terms, in degree order.

    For odd m the degree-1 class is zero; for m = 0 (mod 4) its square is
    zero.  Either way the total class is 1 and there are no terms.  For
    m = 2 (mod 4) the term in degree 2j lives below the mod-2 truncation
    degree and is present iff C(nk, j) is odd, that is (Lucas) iff the binary
    digits of j are a subset of those of nk.
    """
    m = params.m
    if m % 2 == 1 or m % 4 == 0:
        return
    nk = params.n * params.k
    bound = 2 * _truncation_exponent(params.n, params.k, 2)  # validated n, k; 2 is prime
    # exactly the range 2j < bound
    for j in range(1, (bound + 1) // 2):
        yield StiefelWhitneyTerm(2 * j, j & ~nk == 0)


def stiefel_whitney_classes(params: ManifoldParams) -> tuple[StiefelWhitneyTerm, ...]:
    """All even-degree Stiefel-Whitney terms; empty when the total class is 1."""
    return tuple(_stiefel_whitney_terms(params))


def _pontrjagin_terms(params: ManifoldParams, orders: Iterable[int]) -> Iterator[PontrjaginTerm]:
    """The Pontrjagin terms j = 1, 2, ..., n/2 in turn (the rest vanish
    outright).  ``orders`` gives the orders of y^r, r = 1, 2, ..., for
    ``params``; term j reads them only up to y^(2j), its modulus."""
    nk = params.n * params.k
    raw = 1
    for j, modulus in enumerate(islice(orders, 1, None, 2), start=1):
        raw = raw * (nk - j + 1) // j  # C(nk, j) from C(nk, j - 1), exactly
        reduced = raw % modulus
        yield PontrjaginTerm(j, raw, modulus, reduced, reduced == 0)


def char_class_report(params: ManifoldParams, profile: TorsionProfile) -> CharClassReport:
    """All Pontrjagin terms for 1 <= j <= n/2 plus the Stiefel-Whitney terms
    and the two summary flags.  ``profile`` is the torsion profile of
    ``params``; it supplies every modulus.

    A profile whose shape cannot belong to ``params`` raises
    ``ParameterError`` with reason ``profile-mismatch``: it needs n orders,
    the first n - k of them equal to m and the last equal to 1."""
    n, k, m = params.n, params.k, params.m
    orders = profile.orders
    if len(orders) != n or orders[-1] != 1 or tuple(orders[: n - k]) != (m,) * (n - k):
        raise ParameterError(
            "profile-mismatch",
            f"the torsion profile is not one of (n={n}, k={k}, m={m}): it needs {n} orders, "
            f"the first {n - k} equal to {m} and the last equal to 1",
        )
    return _char_class_report(params, profile)


def _char_class_report(params: ManifoldParams, profile: TorsionProfile) -> CharClassReport:
    """``char_class_report`` for the profile of ``params``, as reports build
    it."""
    pont = tuple(_pontrjagin_terms(params, profile.orders))
    sw = stiefel_whitney_classes(params)
    return CharClassReport(
        pontrjagin=pont,
        stiefel_whitney=sw,
        all_pontrjagin_vanish=all(t.is_zero for t in pont),
        all_sw_vanish=not any(t.present for t in sw),
    )

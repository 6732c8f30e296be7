"""Torsion of the degree-2 integral cohomology class.

The quotient carries a distinguished degree-2 class y generating a cyclic
summand of order m.  The order of y^r is

    m                                   for 1 <= r <= n - k,
    gcd(m, C(n, j) : n - k < j <= r)    for n - k < r <= n,

and these orders come out of the transgression in the spectral sequence of
the relevant circle bundle: the odd generator of degree 2(n - k) + 2j - 1
transgresses onto C(n, k - j) times the (n - k + j)-th power of y.

The gcd is computed one prime at a time and no binomial is ever formed: for
p^e exactly dividing m, the p-part of the order at r is
p^min(e, v_p(C(n, j)) : n - k < j <= r), and by Kummer's theorem v_p(C(n, j))
is the number of carries when adding j and n - j in base p.  A prime p > n
divides no C(n, j) with 0 <= j <= n (both summands are single base-p digits
whose sum n < p never carries), so the part of m made of such primes drops
out at r = n - k + 1.  Splitting m therefore needs trial division by 2..n
only, never a full factorization of m.

Each order divides the one before it: the order at r is m for r <= n - k,
and the gcd at r + 1 takes one more binomial than the gcd at r.  So the
orders above 1 come first and the 1s form the tail.  The height of y, the
largest r with y^r nonzero, is therefore n minus the number of orders equal
to 1, and always lies between n - k and n - 1.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator

from stiefelq.arith import _carries
from stiefelq.manifold import ManifoldParams, _check_int, _record

__all__ = [
    "TorsionProfile",
    "torsion_profile",
]


@_record
class TorsionProfile:
    """orders[r - 1] is the additive order of the r-th power of the degree-2
    class, r = 1..n; height is the largest r whose order exceeds 1."""

    orders: tuple[int, ...]
    height: int

    def order(self, r: int) -> int:
        _check_int(r, "r")
        if not 1 <= r <= len(self.orders):
            raise ValueError(f"power index r must lie in [1, {len(self.orders)}], got {r}")
        return self.orders[r - 1]


def _prime_powers_up_to(m: int, n: int) -> dict[int, int]:
    """{p: e} for every prime p <= n with p^e exactly dividing m."""
    out = {}
    for d in range(2, n + 1):
        if m == 1:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out[d] = e
    return out


def _orders(n: int, k: int, m: int) -> Iterator[int]:
    """The orders of y^r for r = 1, 2, ..., n, in turn, through carry counts
    along the window n - k < r <= n.  m is only split once the window is
    reached, and primes whose running minimum hits 0 stop contributing and
    are dropped."""
    yield from repeat(m, n - k)
    active = _prime_powers_up_to(m, n)
    # the part of m made of primes above n is gone from r = n - k + 1 on
    value = math.prod(p**e for p, e in active.items())
    for r in range(n - k + 1, n + 1):
        for p in list(active):
            v = _carries(n, r, p)  # every key of active is a prime
            if v < active[p]:
                value //= p ** (active[p] - v)
                if v == 0:
                    del active[p]
                else:
                    active[p] = v
        yield value


def torsion_profile(params: ManifoldParams) -> TorsionProfile:
    """All n orders of ``_orders`` and the height they give."""
    orders = tuple(_orders(params.n, params.k, params.m))
    # the 1s are the tail of the divisor chain (see the module docstring)
    return TorsionProfile(orders, params.n - orders.count(1))

"""Exact integer kernel: binomial coefficients, p-adic valuations of
binomials, and Radon-Hurwitz numbers.

Everything here is pure and exact (Python ints).  Nothing rounds, nothing
overflows, and every function is deterministic in its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "binomial",
    "binomial_mod",
    "padic_valuation_binomial",
    "RHDecomposition",
    "rh_decompose",
    "radon_hurwitz",
    "is_prime",
    "factorize",
]


def binomial(n: int, j: int) -> int:
    """C(n, j) as an exact integer; 0 when j > n.

    Running product with an exact division at every step: the partial product
    after i steps is C(n - j + i, i), so each division is integral.
    """
    if n < 0 or j < 0:
        raise ValueError("binomial expects nonnegative arguments")
    if j > n:
        return 0
    j = min(j, n - j)
    out = 1
    for i in range(1, j + 1):
        out = out * (n - j + i) // i
    return out


def is_prime(q: int) -> bool:
    """Trial-division primality test; meant for the small moduli used here."""
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, exponent), ...] with p increasing."""
    if q < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if q > 1:
        out.append((q, 1))
    return out


def padic_valuation_binomial(n: int, j: int, p: int) -> int:
    """v_p(C(n, j)): the exact power of the prime p dividing C(n, j).

    Counted as the number of carries when adding j and n - j in base p, which
    never forms the (possibly huge) binomial itself.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if j < 0 or j > n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    carries = 0
    carry = 0
    a, b = j, n - j
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def binomial_mod(n: int, j: int, q: int) -> int:
    """C(n, j) mod q.

    A prime modulus goes through the base-q digit product (no big
    intermediates); a composite modulus reduces the exact integer.  Both paths
    agree with ``binomial(n, j) % q`` by construction.
    """
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    if n < 0 or j < 0:
        raise ValueError("binomial_mod expects nonnegative arguments")
    if is_prime(q):
        return _digit_product_mod(n, j, q)
    return binomial(n, j) % q


def _digit_product_mod(n: int, j: int, p: int) -> int:
    # Product of digit binomials in base p.  A digit of j exceeding the digit
    # of n kills the product, which also covers j > n.
    out = 1
    while j or n:
        nd, jd = n % p, j % p
        if jd > nd:
            return 0
        out = out * binomial(nd, jd) % p
        n //= p
        j //= p
    return out


@dataclass(frozen=True)
class RHDecomposition:
    """n = (2c + 1) * 2^(4a + b) with 0 <= b <= 3.

    The unique split of the 2-adic valuation of n into quotient and remainder
    mod 4, plus the odd part.
    """

    a: int
    b: int
    c: int

    def reconstruct(self) -> int:
        return (2 * self.c + 1) << (4 * self.a + self.b)


def rh_decompose(n: int) -> RHDecomposition:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    e = (n & -n).bit_length() - 1
    a, b = divmod(e, 4)
    c = ((n >> e) - 1) // 2
    return RHDecomposition(a=a, b=b, c=c)


def radon_hurwitz(n: int) -> int:
    """The Radon-Hurwitz number 8a + 2^b for n = (2c + 1) * 2^(4a + b).

    radon_hurwitz(n) - 1 is the maximal number of linearly independent vector
    fields on the sphere S^(n-1).
    """
    d = rh_decompose(n)
    return 8 * d.a + 2**d.b

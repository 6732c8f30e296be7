"""Exact integer kernel: p-adic valuations of binomials, primality and
factorization, Radon-Hurwitz numbers, and decimal conversion of integers of
any size.

Everything here is pure and exact (Python ints).  Nothing rounds, nothing
overflows, and every function is deterministic in its arguments.
"""

from __future__ import annotations

import math
import sys

from stiefelq.manifold import ParameterError, _check_int

__all__ = [
    "radon_hurwitz",
    "is_prime",
    "factorize",
]


# The first 13 primes: trial divisors and strong-test bases of ``is_prime``.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least composite that is a strong probable prime to every base
# 2..41 (Sorenson & Webster, Math. Comp. 2017).  Below it the test is exact.
# Twelve bases do not suffice: psi_12 = 399165290221 * 798330580441 passes
# bases 2..37 and only base 41 exposes it.
_PSI_13 = 3317044064679887385961981
# Total Pollard-Brent iterations one ``factorize`` call may spend.
_RHO_STEP_BUDGET = 1 << 23
# Iterations folded into one product before each gcd in Pollard-Brent.
_RHO_BATCH = 128
# ``factorize`` trial-divides by 2 and the odd numbers below this bound.
_TRIAL_BOUND = 1000


def _too_large(q: int, why: str) -> ParameterError:
    return ParameterError("too-large", f"{q} is too large: {why}")


def is_prime(q: int) -> bool:
    """Exact primality: trial division by the primes 2..41, then the strong
    probable-prime test to those 13 bases.

    The answer is proven for q below psi_13 = 3317044064679887385961981 (about
    3.3e24).  At or above it a witness still proves q composite; a q that no
    base exposes raises ``ParameterError("too-large")`` instead of guessing.
    """
    _check_int(q, "q")
    if q < 2:
        return False
    for p in _SMALL_PRIMES:
        if q % p == 0:
            return q == p
    if q < 41 * 41:
        return True
    d = q - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False  # a is a witness: q is composite
    if q >= _PSI_13:
        raise _too_large(
            q, f"it passes the strong test to bases 2..41, which proves primality "
            f"only below {_PSI_13}"
        )
    return True


def _pollard_brent(q: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite q, and the iterations left.

    Brent's cycle search on x -> x^2 + c mod q with the differences multiplied
    together in batches, one gcd per batch.  Deterministic: c runs 1, 2, ...
    until a constant splits q.  Raises ``too-large`` when the budget is spent.
    """
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                raise _too_large(
                    q, f"no factor found in {_RHO_STEP_BUDGET} Pollard-Brent steps"
                )
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % q
            i = 0
            while i < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - i)
                for _ in range(batch):
                    y = (y * y + c) % q
                    prod = prod * (x - y) % q
                g = math.gcd(prod, q)
                i += batch
            r *= 2
        if g == q:
            # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % q
                g = math.gcd(x - ys, q)
        if g != q:
            return g, budget


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, exponent), ...] with p increasing.

    Trial division takes out the factors below 1000; each cofactor left is
    proven prime by ``is_prime`` or split by Pollard-Brent.  Raises
    ``ParameterError("too-large")`` when a cofactor's primality cannot be
    proven or the Pollard-Brent step budget runs out, and
    ``ParameterError("q-too-small")`` for q < 1.
    """
    _check_int(q, "q")
    if q < 1:
        raise ParameterError("q-too-small", f"q must be >= 1, got {q}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= q and d < _TRIAL_BOUND:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if d * d > q:  # no factor up to sqrt(q) is left: q is 1 or a prime
        if q > 1:
            out.append((q, 1))
        return out
    large: dict[int, int] = {}
    pending = [q]
    budget = _RHO_STEP_BUDGET
    while pending:
        f = pending.pop()
        if is_prime(f):
            large[f] = large.get(f, 0) + 1
        else:
            g, budget = _pollard_brent(f, budget)
            pending += (g, f // g)
    return out + sorted(large.items())


def _carries(n: int, j: int, p: int) -> int:
    # v_p(C(n, j)) for a prime p and 0 <= j <= n, unchecked (Kummer): the
    # number of carries when adding j and n - j in base p, which never forms
    # the (possibly huge) binomial itself.
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


def radon_hurwitz(n: int) -> int:
    """The Radon-Hurwitz number 8a + 2^b for n = (2c + 1) * 2^(4a + b).

    radon_hurwitz(n) - 1 is the maximal number of linearly independent vector
    fields on the sphere S^(n-1).  Raises ``ParameterError("n-too-small")``
    for n < 1.
    """
    _check_int(n, "n")
    if n < 1:
        raise ParameterError("n-too-small", f"n must be >= 1, got {n}")
    a, b = divmod((n & -n).bit_length() - 1, 4)  # 4a + b = v_2(n)
    return 8 * a + 2**b


# The interpreter's cap on decimal digits in one int <-> str conversion (the
# CVE-2020-10735 fix, Python 3.10.7 and later); 0 means no cap.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _int_to_decimal(x: int) -> str:
    """``str(x)`` for an int of any size, whatever the digit cap.

    Below the cap this is ``str`` itself.  Above it, x is split by
    10^(c * 2^i), c the cap, down to pieces of at most c digits, as in CPython
    3.12's ``_pylong.int_to_decimal_string``.  The process-wide cap is never
    changed.
    """
    limit = _digit_limit()
    # x then has at most bit_length * log10(2) + 1 <= 0.91 * limit + 1 digits
    if not limit or x.bit_length() <= 3 * limit:
        return str(x)
    if x < 0:
        return "-" + _int_to_decimal(-x)
    pows = [10**limit]  # pows[i] = 10^(limit * 2^i), up to the first above x
    while pows[-1] <= x:
        pows.append(pows[-1] * pows[-1])
    parts: list[str] = []

    def emit(v: int, i: int, pad: bool) -> None:
        # v < pows[i]; padded to exactly limit * 2^i digits when ``pad``
        if i == 0:
            parts.append(str(v).zfill(limit) if pad else str(v))
            return
        hi, lo = divmod(v, pows[i - 1])
        if hi or pad:
            emit(hi, i - 1, pad)
            pad = True
        emit(lo, i - 1, pad)

    emit(x, len(pows) - 1, False)
    return "".join(parts)


def _decimal_to_int(text: str) -> int:
    """``int(text)`` for a decimal string of any length, whatever the digit
    cap: the inverse of ``_int_to_decimal``.

    Below the cap this is ``int`` itself.  Above it, only an optional "-"
    followed by ASCII digits is accepted, parsed in halves of at most the
    cap's length and joined by multiplying with powers of ten.
    """
    limit = _digit_limit()
    if not limit or len(text) <= limit:
        return int(text)
    negative = text.startswith("-")
    digits = text[negative:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:20]!r}... ({len(text)} characters)")
    pow10: dict[int, int] = {}

    def parse(lo: int, hi: int) -> int:
        if hi - lo <= limit:
            return int(digits[lo:hi])
        low_len = (hi - lo) // 2
        if low_len not in pow10:
            pow10[low_len] = 10**low_len
        scale = pow10[low_len]
        return parse(lo, hi - low_len) * scale + parse(hi - low_len, hi)

    value = parse(0, len(digits))
    return -value if negative else value

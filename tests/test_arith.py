from __future__ import annotations

import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelq import arith
from stiefelq.arith import factorize, is_prime, radon_hurwitz
from stiefelq.manifold import ParameterError

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# psi_13: least strong pseudoprime to all bases 2..41; psi_12 = 399165290221 *
# 798330580441: least strong pseudoprime to all bases 2..37
PSI_13 = 3317044064679887385961981
PSI_12 = 318665857834031151167461
# 13-digit primes, each checked by trial division
LARGE_PRIMES = (1000000000039, 1000000000061, 2000000000123, 3141592653601,
                5000000000053, 7777777777859, 9999999999971)


def _trial_division_is_prime(q: int) -> bool:
    # oracle: no shortcut beyond skipping even divisors
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _exact_valuation(value: int, p: int) -> int:
    # oracle: factor the exact integer, never counting carries
    assert value > 0
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _binomial(n: int, j: int) -> int:
    # oracle: C(n, j) as a running product with an exact division at every
    # step (the partial product after i steps is C(n - j + i, i)); 0 when j > n
    if n < 0 or j < 0:
        raise ValueError("binomial expects nonnegative arguments")
    if j > n:
        return 0
    j = min(j, n - j)
    out = 1
    for i in range(1, j + 1):
        out = out * (n - j + i) // i
    return out


def _valuation(n: int, j: int, p: int) -> int:
    # v_p(C(n, j)) by the library's carry count (Kummer), behind the argument
    # checks that the unchecked helper leaves to its callers
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if j < 0 or j > n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    return arith._carries(n, j, p)


def _two_adic_split(n: int) -> tuple[int, int, int]:
    # oracle: (a, b, c) with n = (2c + 1) * 2^(4a + b), 0 <= b <= 3, by halving
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e // 4, e % 4, (n - 1) // 2


class TestBinomial:
    # the exact-binomial oracle itself, against the standard library
    def test_examples(self):
        assert _binomial(4, 2) == 6
        assert _binomial(8, 3) == 56
        assert _binomial(5, 9) == 0
        for n in (0, 1, 7, 40):
            assert _binomial(n, 0) == 1
            assert _binomial(n, n) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _binomial(-1, 0)
        with pytest.raises(ValueError):
            _binomial(3, -2)

    @given(st.integers(0, 300), st.integers(0, 320))
    def test_matches_math_comb(self, n, j):
        expected = math.comb(n, j) if j <= n else 0
        assert _binomial(n, j) == expected


class TestValuation:
    # Kummer: the carry count equals the exact valuation of the binomial
    def test_examples(self):
        assert _valuation(4, 2, 2) == 1  # C(4,2) = 6 = 2 * 3
        assert _valuation(4, 3, 2) == 2  # C(4,3) = 4 = 2^2
        for n in (0, 3, 17):
            assert _valuation(n, 0, 5) == 0

    def test_matches_exact_factorization_exhaustively(self):
        for n in range(41):
            for j in range(n + 1):
                b = _binomial(n, j)
                for p in SMALL_PRIMES:
                    v = _valuation(n, j, p)
                    assert b % p**v == 0
                    assert (b // p**v) % p != 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _valuation(4, 5, 2)  # j > n
        with pytest.raises(ValueError):
            _valuation(4, 2, 4)  # composite p
        with pytest.raises(ValueError):
            _valuation(4, 2, 1)

    @given(st.integers(0, 5000), st.data())
    def test_matches_exact_factorization(self, n, data):
        j = data.draw(st.integers(0, n))
        p = data.draw(st.sampled_from(SMALL_PRIMES))
        assert _valuation(n, j, p) == _exact_valuation(max(math.comb(n, j), 1), p)


class TestRadonHurwitz:
    def test_values(self):
        assert radon_hurwitz(1) == 1
        assert radon_hurwitz(2) == 2
        assert radon_hurwitz(4) == 4
        assert radon_hurwitz(8) == 8
        assert radon_hurwitz(16) == 9
        assert radon_hurwitz(12) == 4  # 12 = 3 * 2^2

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_radon_hurwitz_refuses_n_below_1(self, n):
        # a ParameterError, as every refused scalar of the public surface
        with pytest.raises(ParameterError, match=f"n must be >= 1, got {n}") as exc:
            radon_hurwitz(n)
        assert exc.value.reason == "n-too-small"

    def test_monotone_on_powers_of_two_up_to_16(self):
        values = [radon_hurwitz(2**e) for e in range(5)]
        assert values == [1, 2, 4, 8, 9]
        assert values == sorted(values)

    def test_rejects_nonpositive(self):
        for n in (0, -4):
            with pytest.raises(ValueError):
                radon_hurwitz(n)

    @given(st.integers(1, 10**9))
    def test_decomposition_roundtrip(self, n):
        # the split n = (2c + 1) * 2^(4a + b) rebuilds n, and the library's
        # number is 8a + 2^b for it
        a, b, c = _two_adic_split(n)
        assert 0 <= b <= 3
        assert a >= 0 and c >= 0
        assert (2 * c + 1) << (4 * a + b) == n
        assert radon_hurwitz(n) == 8 * a + 2**b

    def test_decomposition_fields(self):
        assert _two_adic_split(16) == (1, 0, 0)
        assert _two_adic_split(24) == (0, 3, 1)
        assert (radon_hurwitz(16), radon_hurwitz(24)) == (9, 8)


class TestPrimesHelpers:
    def test_is_prime_small(self):
        primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
        for q in range(-2, 60):
            assert is_prime(q) == (q in primes_below_60)

    @given(st.integers(1, 10**6))
    def test_factorize_roundtrip(self, q):
        facs = factorize(q)
        prod = 1
        for p, e in facs:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == q
        assert [p for p, _ in facs] == sorted({p for p, _ in facs})

    def test_factorize_rejects_nonpositive(self):
        # a ParameterError, as every refused scalar of the public surface
        for q in (0, -1, -30):
            with pytest.raises(ParameterError, match=f"q must be >= 1, got {q}") as exc:
                factorize(q)
            assert exc.value.reason == "q-too-small"


class TestPrimality:
    def test_matches_trial_division_below_2e5(self):
        for q in range(-2, 200_000):
            assert is_prime(q) == _trial_division_is_prime(q), q

    def test_strong_pseudoprimes_are_composite(self):
        # 3215031751: bases 2, 3, 5, 7; 3825123056546413051: bases 2..23;
        # PSI_12: bases 2..37
        for q in (3215031751, 3825123056546413051, PSI_12):
            assert not is_prime(q)

    def test_large_primes(self):
        for q in LARGE_PRIMES + (2**31 - 1, 2**61 - 1):
            assert is_prime(q)
        for q in (2**61 + 1, LARGE_PRIMES[0] * LARGE_PRIMES[1], LARGE_PRIMES[-1] ** 2):
            assert not is_prime(q)

    def test_at_or_above_psi13_no_guess(self):
        with pytest.raises(ParameterError) as exc:
            is_prime(PSI_13)
        assert exc.value.reason == "too-large"
        with pytest.raises(ParameterError) as exc:
            is_prime(2**89 - 1)  # prime, but beyond the proven range
        assert exc.value.reason == "too-large"
        # a witness still proves a large number composite
        assert not is_prime(2**89 + 1)
        assert not is_prime((2**89 - 1) * 3)


# primes above the trial-division bound of ``factorize`` reach Pollard-Brent
PRIMES_BELOW_2000 = [p for p in range(2, 2000) if _trial_division_is_prime(p)]


@st.composite
def _prime_multiset(draw):
    small = draw(st.lists(st.sampled_from(PRIMES_BELOW_2000), max_size=4))
    medium = draw(st.lists(st.sampled_from([999983, 1000003, 7368787, 15485863]), max_size=2))
    large = draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=1))
    return Counter(small + medium + large)


class TestFactorize:
    @given(_prime_multiset())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_large_primes(self, primes):
        q = math.prod(p**e for p, e in primes.items())
        assert factorize(q) == sorted(primes.items())

    def test_thirteen_digit_semiprime_in_five_seconds(self):
        start = time.perf_counter()
        assert factorize(1000000000039 * 1000000000061) == [(1000000000039, 1), (1000000000061, 1)]
        assert time.perf_counter() - start < 5

    def test_psi12(self):
        assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]

    def test_large_prime_powers(self):
        assert factorize(2 * 1000003**2 * LARGE_PRIMES[0]) == [
            (2, 1), (1000003, 2), (LARGE_PRIMES[0], 1)
        ]
        assert factorize(2**61 - 1) == [(2**61 - 1, 1)]

    def test_unprovable_cofactor_is_too_large(self):
        with pytest.raises(ParameterError) as exc:
            factorize(6 * (2**89 - 1))
        assert exc.value.reason == "too-large"

    def test_step_budget_is_too_large(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_STEP_BUDGET", 64)
        with pytest.raises(ParameterError) as exc:
            factorize(999983 * 1000003)
        assert exc.value.reason == "too-large"


class TestDecimal:
    """``_int_to_decimal`` and ``_decimal_to_int`` against ``str``/``int``
    under a raised digit cap, set inside each test only."""

    @staticmethod
    def _samples():
        rnd = random.Random(6)
        out = [0, 1, -1, 10**640 - 1, 10**640, 10**1280 + 1, -(10**2561), 7**9000]
        for digits in (639, 640, 641, 1920, 2000, 2600, 5000, 13000):
            out.append(rnd.randrange(10 ** (digits - 1), 10**digits))
        return out

    @pytest.mark.parametrize("cap", [640, 641, 1000, 4300])
    def test_matches_str_under_any_cap(self, cap):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = [(x, str(x)) for x in self._samples()]
            sys.set_int_max_str_digits(cap)
            for x, text in expected:
                assert arith._int_to_decimal(x) == text
                assert arith._decimal_to_int(text) == x
        finally:
            sys.set_int_max_str_digits(old)

    def test_below_the_cap_is_str_and_int(self):
        assert arith._int_to_decimal(12345678901234567890) == "12345678901234567890"
        assert arith._decimal_to_int("-12345678901234567890") == -12345678901234567890
        with pytest.raises(ValueError):
            arith._decimal_to_int("12x")

    @pytest.mark.parametrize(
        "text", ["1_" * 700, "\u0661" * 700, " " + "1" * 700, "--" + "1" * 700, "1" * 700 + "x"]
    )
    def test_long_noncanonical_text_rejected(self, text):
        # above the cap only an optional "-" and ASCII digits are accepted
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(ValueError):
                arith._decimal_to_int(text)
        finally:
            sys.set_int_max_str_digits(old)

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelq.arith import factorize
from stiefelq.manifold import validate
from stiefelq.modp import truncation_exponent
from stiefelq.torsion import torsion_profile

Q13 = 1_000_000_000_039  # a 13-digit prime


def _gcd_fold_orders(n: int, k: int, m: int) -> tuple[int, ...]:
    # oracle: the gcd definition folded along the window with math.comb
    g = m
    orders = []
    for r in range(1, n + 1):
        if r > n - k:
            g = math.gcd(g, math.comb(n, r))
        orders.append(g)
    return tuple(orders)


@st.composite
def _params(draw, max_n=24, max_m=80):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(2, max_m))
    return validate(n, k, m)


@st.composite
def _large_params(draw):
    # high prime powers exercise the running minimum, a factor above n the
    # drop at the first window step
    n = draw(st.integers(2, 2000))
    k = draw(st.integers(1, n - 1))
    m = draw(
        st.one_of(
            st.integers(2, 10**15),
            st.builds(
                lambda a, b, c, q: 2**a * 3**b * 7**c * q,
                st.integers(0, 12),
                st.integers(0, 7),
                st.integers(0, 4),
                st.sampled_from([1, 1999, 2003, Q13]),
            ).filter(lambda m: m >= 2),
        )
    )
    return validate(n, k, m)


class TestProfiles:
    def test_example_4_2_2(self):
        prof = torsion_profile(validate(4, 2, 2))
        assert prof.orders == (2, 2, 2, 1)
        assert prof.height == 3

    def test_example_5_1_7(self):
        prof = torsion_profile(validate(5, 1, 7))
        assert prof.orders == (7, 7, 7, 7, 1)
        assert prof.height == 4

    def test_example_5_3_6(self):
        prof = torsion_profile(validate(5, 3, 6))
        assert prof.orders == (6, 6, 2, 1, 1)
        assert prof.height == 3

    @given(_params())
    @settings(max_examples=150)
    def test_all_routes_agree(self, params):
        prof = torsion_profile(params)
        expected = _gcd_fold_orders(params.n, params.k, params.m)
        assert prof.orders == expected
        for r in range(1, params.n + 1):
            assert prof.order(r) == expected[r - 1]
        assert prof.height == max(r for r, o in enumerate(expected, start=1) if o > 1)

    @given(_large_params())
    @settings(max_examples=100, deadline=None)
    def test_matches_gcd_fold_up_to_n_2000(self, params):
        prof = torsion_profile(params)
        assert prof.orders == _gcd_fold_orders(params.n, params.k, params.m)

    def test_prime_factors_above_n(self):
        # every prime factor of `big` exceeds n, so it divides no C(n, j) and
        # leaves the order at r = n - k + 1
        for n, k, m, big in (
            (100, 50, 2 * Q13, Q13),
            (110, 55, 2 * Q13, Q13),
            (90, 89, 2 * Q13, Q13),
            (12, 6, Q13, Q13),
            (5, 2, 7, 7),
            (6, 3, 2 * 7 * 11, 77),
            (10, 1, 3 * 13**2, 13**2),
        ):
            prof = torsion_profile(validate(n, k, m))
            assert prof.orders == _gcd_fold_orders(n, k, m), (n, k, m)
            assert prof.order(n - k) == m
            assert math.gcd(prof.order(n - k + 1), big) == 1

    @given(_params())
    @settings(max_examples=150)
    def test_structural_invariants(self, params):
        n, k, m = params.n, params.k, params.m
        prof = torsion_profile(params)
        assert len(prof.orders) == n
        assert prof.orders[: n - k] == (m,) * (n - k)
        for r in range(1, n):
            assert prof.orders[r - 1] % prof.orders[r] == 0  # divisibility chain
        assert prof.orders[n - 1] == 1  # C(n, n) = 1 kills the top power
        assert n - k <= prof.height <= n - 1

    @given(_params(max_n=40, max_m=5000))
    @settings(max_examples=200)
    def test_height_is_n_minus_the_ones(self, params):
        # the height read off the chain's tail of 1s, against the scan it
        # replaced, over orders folded from math.comb
        orders = _gcd_fold_orders(params.n, params.k, params.m)
        assert torsion_profile(params).height == max(r for r, o in enumerate(orders, start=1) if o > 1)

    @given(st.one_of(_params(max_n=44, max_m=49), _large_params()))
    @settings(max_examples=300)
    def test_height_from_truncation_exponents(self, params):
        # the height is n - k, or one below the mod-p truncation exponent of
        # a prime p dividing m, whichever is largest
        n, k, m = params.n, params.k, params.m
        exponents = [truncation_exponent(n, k, p) for p, _ in factorize(m)]
        assert torsion_profile(params).height == max(n - k, max(exponents) - 1)

    def test_mod_p_truncation_consistency(self):
        # for p | m: p divides every order below the mod-p truncation
        # exponent and not the order at it; the last m has a prime above n
        ms = (2, 3, 4, 6, 8, 9, 12, 18, 25, 30, 49, 210, 2 * (2**61 - 1))
        primes = {m: [p for p, _ in factorize(m)] for m in ms}
        for n in range(2, 61):
            for k in range(1, n):
                for m in ms:
                    prof = torsion_profile(validate(n, k, m))
                    for p in primes[m]:
                        half = truncation_exponent(n, k, p)
                        for r in range(1, half):
                            assert prof.order(r) % p == 0
                        assert prof.order(half) % p != 0


class TestSingleOrders:
    def test_examples(self):
        assert torsion_profile(validate(5, 3, 6)).order(2) == 6
        assert torsion_profile(validate(5, 3, 6)).order(3) == 2
        assert torsion_profile(validate(4, 2, 2)).order(4) == 1
        assert torsion_profile(validate(4, 2, 2)).order(3) == 2
        assert torsion_profile(validate(4, 2, 3)).order(2) == 3

    def test_rejects_out_of_range(self):
        prof = torsion_profile(validate(4, 2, 2))
        for r in (0, -1, 5):
            with pytest.raises(ValueError):
                prof.order(r)


def _transgression_coefficient(n: int, k: int, j: int) -> int:
    # the module docstring's formula: the j-th odd generator transgresses onto
    # C(n, k - j) times the (n - k + j)-th power of the degree-2 class
    return math.comb(n, k - j)


class TestTransgression:
    def test_examples(self):
        assert _transgression_coefficient(4, 2, 1) == 4  # C(4, 1)
        assert _transgression_coefficient(4, 2, 2) == 1  # C(4, 0)
        assert _transgression_coefficient(5, 3, 1) == 10  # C(5, 2)
        # 4 is a unit mod 5, so the first generator of (4, 2, 5) kills y^3
        assert torsion_profile(validate(4, 2, 5)).order(3) == 1

    def test_top_generator_always_hits_once(self):
        # ... onto y^n itself, so y^n = 0 whatever m is
        for n in range(2, 12):
            for k in range(1, n):
                assert _transgression_coefficient(n, k, k) == 1
                assert torsion_profile(validate(n, k, 2)).order(n) == 1

    def test_matches_comb(self):
        # each coefficient kills its power: the order of y^(n - k + j) divides
        # C(n, k - j) = C(n, n - k + j)
        for n in range(2, 15):
            for k in range(1, n):
                prof = torsion_profile(validate(n, k, 3 * 2**6 * 5**3))
                for j in range(1, k + 1):
                    c = _transgression_coefficient(n, k, j)
                    assert c == math.comb(n, n - k + j)
                    assert c % prof.order(n - k + j) == 0

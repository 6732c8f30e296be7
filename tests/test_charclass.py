from __future__ import annotations

import math
from dataclasses import replace

import pytest

from stiefelq.charclass import char_class_report, stiefel_whitney_classes
from stiefelq.manifold import ParameterError, validate
from stiefelq.modp import truncation_exponent
from stiefelq.torsion import torsion_profile


def _report(n, k, m):
    params = validate(n, k, m)
    return char_class_report(params, torsion_profile(params))


class TestPontrjagin:
    def test_example_4_2_3(self):
        t = _report(4, 2, 3).pontrjagin[0]
        assert t.raw_coefficient == 8
        assert t.modulus == 3
        assert t.reduced == 2
        assert not t.is_zero

    def test_example_4_2_2(self):
        t = _report(4, 2, 2).pontrjagin[0]
        assert t.raw_coefficient == 8
        assert t.modulus == 2
        assert t.is_zero

    def test_zero_iff_order_divides_coefficient(self):
        for n in range(2, 13):
            for k in range(1, n):
                prof = torsion_profile(validate(n, k, 12))
                terms = _report(n, k, 12).pontrjagin
                for j in range(1, n // 2 + 1):
                    t = terms[j - 1]
                    assert t.modulus == prof.order(2 * j)
                    assert t.is_zero == (math.comb(n * k, j) % t.modulus == 0)
                    assert t.reduced == t.raw_coefficient % t.modulus


class TestStiefelWhitney:
    def test_odd_m_has_none(self):
        assert stiefel_whitney_classes(validate(4, 2, 3)) == ()
        assert stiefel_whitney_classes(validate(7, 3, 15)) == ()

    def test_zero_mod_four_has_none(self):
        assert stiefel_whitney_classes(validate(4, 2, 4)) == ()
        assert stiefel_whitney_classes(validate(6, 2, 12)) == ()

    def test_example_5_2_2_has_w4(self):
        terms = stiefel_whitney_classes(validate(5, 2, 2))
        present = {t.degree for t in terms if t.present}
        assert present == {4}  # C(10, 2) = 45 is odd; degrees 2, 6 have even C

    def test_example_4_2_2_all_absent(self):
        terms = stiefel_whitney_classes(validate(4, 2, 2))
        assert [t.degree for t in terms] == [2, 4, 6]
        assert not any(t.present for t in terms)

    def test_terms_live_below_truncation(self):
        for n in range(2, 13):
            for k in range(1, n):
                for m in (2, 6, 10):
                    terms = stiefel_whitney_classes(validate(n, k, m))
                    bound = 2 * truncation_exponent(n, k, 2)
                    for t in terms:
                        assert t.degree % 2 == 0
                        assert t.degree < bound
                        assert t.present == (math.comb(n * k, t.degree // 2) % 2 == 1)

    def test_parity_matches_comb_on_wide_grid(self):
        # the bit test (Lucas) against the exact binomial, m = 2 (mod 4);
        # the truncation comes from the exact binomials too
        for n in range(2, 70):
            for k in range(1, n):
                half = next(j for j in range(n - k + 1, n + 1) if math.comb(n, j) % 2)
                expected = [
                    (2 * j, math.comb(n * k, j) % 2 == 1) for j in range(1, half)
                ]
                for m in (2, 6, 30, 2 * 1000000000039):
                    terms = stiefel_whitney_classes(validate(n, k, m))
                    assert [(t.degree, t.present) for t in terms] == expected, (n, k, m)


class TestReport:
    def test_all_vanishing_prime_power_family(self):
        # n, k powers of the same prime p with m = p: everything vanishes
        for n, k, m in [(4, 2, 2), (8, 2, 2), (8, 4, 2), (9, 3, 3)]:
            rep = _report(n, k, m)
            assert rep.all_pontrjagin_vanish
            assert rep.all_sw_vanish

    def test_nonvanishing_example(self):
        rep = _report(4, 2, 3)
        assert not rep.all_pontrjagin_vanish
        assert rep.all_sw_vanish  # odd m has no Stiefel-Whitney terms

    def test_report_ranges(self):
        for n in range(2, 11):
            for k in range(1, n):
                rep = _report(n, k, 6)
                assert [t.j for t in rep.pontrjagin] == list(range(1, n // 2 + 1))
                assert rep.all_pontrjagin_vanish == all(t.is_zero for t in rep.pontrjagin)
                assert rep.all_sw_vanish == (not any(t.present for t in rep.stiefel_whitney))

    def test_raw_coefficients_match_comb(self):
        # the running product against math.comb, and each modulus against the
        # order of the matching power in the torsion profile
        for n, k, m in [(2, 1, 2), (7, 3, 12), (40, 20, 30), (301, 150, 2 * 3 * 5 * 7)]:
            rep = _report(n, k, m)
            prof = torsion_profile(validate(n, k, m))
            assert len(rep.pontrjagin) == n // 2
            for t in rep.pontrjagin:
                assert t.raw_coefficient == math.comb(n * k, t.j)
                assert t.modulus == prof.order(2 * t.j)
                assert t.reduced == t.raw_coefficient % t.modulus
                assert t.is_zero == (t.reduced == 0)

    def test_parallelizable_members_have_vanishing_classes(self):
        # k = n - 1 gives a parallelizable manifold; the closed forms must agree
        for n in range(2, 13):
            for m in range(2, 16):
                rep = _report(n, n - 1, m)
                assert rep.all_pontrjagin_vanish
                assert rep.all_sw_vanish


@pytest.mark.parametrize(
    "other",
    [
        (9, 4, 12),  # 9 orders, not 6
        (6, 3, 12),  # the first n - k orders are 12, not 6
        (6, 4, 6),  # the third order is gcd(6, C(6, 3)) = 2
        (5, 3, 6),
    ],
)
def test_char_class_report_refuses_a_profile_of_another_n_k_m(other):
    params = validate(6, 3, 6)
    with pytest.raises(ParameterError) as exc:
        char_class_report(params, torsion_profile(validate(*other)))
    assert exc.value.reason == "profile-mismatch"
    # an edited profile whose last order is not 1, the order of y^n
    own = torsion_profile(params)
    with pytest.raises(ParameterError) as exc:
        char_class_report(params, replace(own, orders=own.orders[:-1] + (2,)))
    assert exc.value.reason == "profile-mismatch"
    assert len(char_class_report(params, own).pontrjagin) == 3

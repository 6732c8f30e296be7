from __future__ import annotations

import dataclasses
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelq import modp
from stiefelq.arith import is_prime
from stiefelq.manifold import ParameterError, validate
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
from stiefelq.report import default_primes

PRIMES = (2, 3, 5, 7)
CASES = CohomologyCase
# above every n used here, so C(n, j) is a unit mod Q and the truncation
# exponent of (n, k, Q) is n - k + 1; the same holds for Q2
Q = 1000000000039
Q2 = 1000000000061


def _coeffs(n, k, m, p):
    pres = presentation(validate(n, k, m), p)
    return pres, poincare_polynomial(pres, n, k)


def _shared(n, k, m, primes):
    """The presentations of (n, k, m) at ``primes`` and their polynomials
    from one shared expansion, which builds each as the tuple of its report
    entry; they are returned as lists, as ``poincare_polynomial`` gives
    them."""
    params = validate(n, k, m)
    pres = [presentation(params, p) for p in primes]
    polys = modp._poincare_polynomials(pres, n, k)
    assert all(type(coeffs) is tuple for coeffs in polys)
    return pres, [list(coeffs) for coeffs in polys]


def _naive_poincare(pres: RingPresentation, n: int, k: int) -> list[int]:
    """Reference expansion: the truncated series laid out in a list, then one
    list pass per exterior factor (1 + t^d)."""
    dim = k * (2 * n - k)
    coeffs = [0] * (dim + 1)
    if pres.poly_generator is None:
        coeffs[0] = 1
    else:
        g = pres.poly_generator
        for i in range(g.truncation):
            coeffs[g.degree * i] = 1
    for deg in pres.exterior_degrees:
        # multiply by (1 + t^deg); the snapshot keeps the update aliasing-free
        tail = coeffs[: dim + 1 - deg]
        for i, c in enumerate(tail):
            if c:
                coeffs[i + deg] += c
    return coeffs


@st.composite
def _presentations(draw):
    """A presentation of each of the four cases, n up to 150."""
    n = draw(st.integers(2, 150))
    k = draw(st.integers(1, n - 1))
    case = draw(st.sampled_from(CASES))
    if case is CASES.COPRIME:
        p = draw(st.sampled_from((2, 3, 5, 7, Q)))
        m = draw(st.integers(2, 500).filter(lambda m: m % p))
    elif case is CASES.ODD_DIVIDES:
        p = draw(st.sampled_from((3, 5, 7, 11, 13, Q)))
        m = p * draw(st.integers(1, 12))
    elif case is CASES.TWO_MOD_FOUR:
        p, m = 2, 2 * (2 * draw(st.integers(0, 50)) + 1)
    else:
        p, m = 2, 4 * draw(st.integers(1, 50))
    pres = presentation(validate(n, k, m), p)
    assert pres.case is case
    return pres, n, k


class TestTruncationExponent:
    def test_examples(self):
        assert truncation_exponent(4, 2, 2) == 4  # C(4,3) = 4 even, C(4,4) = 1
        assert truncation_exponent(3, 2, 2) == 2  # C(3,2) = 3 odd
        assert truncation_exponent(3, 2, 3) == 3  # C(3,2) = 0 mod 3
        assert truncation_exponent(5, 1, 7) == 5  # k = 1 window is {n}

    def test_range(self):
        for n in range(2, 16):
            for k in range(1, n):
                for p in PRIMES:
                    half = truncation_exponent(n, k, p)
                    assert n - k + 1 <= half <= n

    def test_matches_exact_binomials(self):
        # least j in the window with C(n, j) nonzero mod p, from math.comb
        for n in range(2, 60):
            for k in range(1, n):
                for p in (2, 3, 5, 7, 11, 13, 1000000000039):
                    expected = next(
                        j for j in range(n - k + 1, n + 1) if math.comb(n, j) % p
                    )
                    assert truncation_exponent(n, k, p) == expected, (n, k, p)

    def test_rejects(self):
        with pytest.raises(ValueError):
            truncation_exponent(4, 2, 6)  # composite p
        with pytest.raises(ValueError):
            truncation_exponent(4, 4, 2)  # k not below n

    @pytest.mark.parametrize(
        "n, k, p, reason",
        [
            (3, 3, 2, "k-not-below-n"),
            (3, 0, 2, "k-too-small"),
            (3.0, 2, 2, "n-not-int"),
            (4, 2, 6, "p-not-prime"),
            (4, 2, 1, "p-not-prime"),
            (4, 2, True, "p-not-int"),
        ],
    )
    def test_rejects_with_reason_codes(self, n, k, p, reason):
        # n and k as validate checks them, p as presentation checks it
        with pytest.raises(ParameterError) as exc:
            truncation_exponent(n, k, p)
        assert exc.value.reason == reason
        if isinstance(p, int) and not isinstance(p, bool) and p != 2:
            for call in (lambda: presentation(validate(4, 2, 6), p), lambda: classify(6, p)):
                with pytest.raises(ParameterError) as exc:
                    call()
                assert exc.value.reason == "p-not-prime"


class TestClassify:
    def test_table(self):
        assert classify(5, 2) is CASES.COPRIME
        assert classify(5, 5) is CASES.ODD_DIVIDES
        assert classify(6, 3) is CASES.ODD_DIVIDES
        assert classify(2, 2) is CASES.TWO_MOD_FOUR
        assert classify(6, 2) is CASES.TWO_MOD_FOUR
        assert classify(4, 2) is CASES.ZERO_MOD_FOUR
        assert classify(12, 2) is CASES.ZERO_MOD_FOUR
        assert classify(9, 2) is CASES.COPRIME  # odd m is coprime to 2

    def test_exhaustive_consistency(self):
        for m in range(2, 40):
            for p in PRIMES:
                case = classify(m, p)
                if m % p != 0:
                    assert case is CASES.COPRIME
                elif p != 2:
                    assert case is CASES.ODD_DIVIDES
                elif m % 4 == 2:
                    assert case is CASES.TWO_MOD_FOUR
                else:
                    assert case is CASES.ZERO_MOD_FOUR


class TestPresentation:
    def test_coprime_example(self):
        pres = presentation(validate(3, 2, 5), 2)
        assert pres.case is CASES.COPRIME
        assert pres.poly_generator is None
        assert pres.exterior_degrees == (3, 5)
        assert pres.square_rule is SquareRule.NONE
        assert pres.deg2_truncation is None
        assert pres.render() == "Lambda_Z_2(v3, v5)"

    def test_two_mod_four_example(self):
        pres = presentation(validate(3, 2, 2), 2)
        assert pres.case is CASES.TWO_MOD_FOUR
        assert pres.poly_generator == PolyGenerator(degree=1, truncation=4)
        assert pres.exterior_degrees == (5,)
        assert pres.square_rule is SquareRule.DEG1_SQUARE_IS_DEG2
        assert pres.deg2_truncation == 2
        assert pres.render() == "Z_2[y1]/(y1^4) (x) Lambda(y5)"

    def test_zero_mod_four_example(self):
        pres = presentation(validate(3, 2, 4), 2)
        assert pres.case is CASES.ZERO_MOD_FOUR
        assert pres.poly_generator == PolyGenerator(degree=2, truncation=2)
        assert pres.exterior_degrees == (1, 5)
        assert pres.square_rule is SquareRule.DEG1_SQUARE_ZERO
        assert pres.render() == "Z_2[y2]/(y2^2) (x) Lambda(y1, y5)"

    def test_odd_divides_example(self):
        pres = presentation(validate(3, 2, 3), 3)
        assert pres.case is CASES.ODD_DIVIDES
        assert pres.poly_generator == PolyGenerator(degree=2, truncation=3)
        assert pres.exterior_degrees == (1, 3)  # omitted degree is 2*3 - 1 = 5
        assert pres.render() == "Z_3[y2]/(y2^3) (x) Lambda(y1, y3)"

    def test_k1_lens_specializations(self):
        # odd p dividing m: classical truncated polynomial times a circle class
        pres = presentation(validate(5, 1, 7), 7)
        assert pres.case is CASES.ODD_DIVIDES
        assert pres.poly_generator == PolyGenerator(degree=2, truncation=5)
        assert pres.exterior_degrees == (1,)
        # m = 2: real projective space of dimension 2n - 1
        pres = presentation(validate(5, 1, 2), 2)
        assert pres.case is CASES.TWO_MOD_FOUR
        assert pres.poly_generator == PolyGenerator(degree=1, truncation=10)
        assert pres.exterior_degrees == ()
        assert pres.render() == "Z_2[y1]/(y1^10)"
        # coprime: the sphere
        pres = presentation(validate(5, 1, 3), 2)
        assert pres.case is CASES.COPRIME
        assert pres.exterior_degrees == (9,)

    def test_coprime_matches_frame_manifold_degrees(self):
        for n in range(2, 14):
            for k in range(1, n):
                pres = presentation(validate(n, k, 5), 2)
                assert pres.exterior_degrees == tuple(
                    range(2 * n - 2 * k + 1, 2 * n, 2)
                )

    def test_omitted_degree_always_inside_run(self):
        for n in range(2, 14):
            for k in range(1, n):
                for m in (2, 3, 4, 6, 8, 12):
                    for p in PRIMES:
                        if m % p != 0:
                            continue
                        pres = presentation(validate(n, k, m), p)
                        run = set(range(2 * n - 2 * k + 1, 2 * n, 2))
                        omitted = 2 * pres.deg2_truncation - 1
                        assert omitted in run
                        expected = run - {omitted}
                        got = set(pres.exterior_degrees) - {1}
                        assert got == expected

    def test_prime_is_tested_once(self, monkeypatch):
        # p is tested once, then the unchecked cores take it as proven
        calls = []
        monkeypatch.setattr(modp, "is_prime", lambda p: calls.append(p) or is_prime(p))
        assert presentation(validate(15, 7, 12), 3).case is CASES.ODD_DIVIDES
        assert calls == [3]
        calls.clear()
        assert truncation_exponent(15, 7, 3) == 9
        assert calls == [3]
        with pytest.raises(ValueError, match="p must be prime, got 4"):
            presentation(validate(15, 7, 12), 4)


class TestPoincarePolynomial:
    @given(_presentations())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_expansion(self, drawn):
        pres, n, k = drawn
        assert poincare_polynomial(pres, n, k) == _naive_poincare(pres, n, k)

    @pytest.mark.parametrize(
        "n, k, m, p, total",
        [
            (18, 4, Q, Q, 15 * 2**4),  # totals of 1 byte
            (8, 7, 3, 2, 2**7),
            (19, 4, Q, Q, 2**8),  # 2 bytes
            (9, 8, 3, 2, 2**8),
            (15, 13, Q, Q, 3 * 2**13),  # its largest coefficient needs both bytes
            (41, 11, Q, Q, 31 * 2**11),
            (16, 15, 3, 2, 2**15),
            (27, 12, Q, Q, 2**16),  # 3 bytes
            (17, 16, 3, 2, 2**16),
            (34, 20, Q, Q, 15 * 2**20),  # 3 bytes
            (24, 23, 3, 2, 2**23),
            (35, 20, Q, Q, 2**24),  # 4 bytes
            (25, 24, 3, 2, 2**24),
            (42, 28, Q, Q, 15 * 2**28),
            (32, 31, 3, 2, 2**31),
            (43, 28, Q, Q, 2**32),  # 5 bytes
            (33, 32, 3, 2, 2**32),
            (50, 36, Q, Q, 15 * 2**36),
            (40, 39, 3, 2, 2**39),
            (51, 36, Q, Q, 2**40),  # 6 bytes
            (41, 40, 3, 2, 2**40),
            (66, 52, Q, Q, 15 * 2**52),  # 7 bytes
            (56, 55, 3, 2, 2**55),
            (67, 52, Q, Q, 2**56),  # 8 bytes
            (57, 56, 3, 2, 2**56),
            (74, 60, Q, Q, 15 * 2**60),  # 8 bytes
            (64, 63, 3, 2, 2**63),
            (75, 60, Q, Q, 2**64),  # 9 bytes
            (65, 64, 3, 2, 2**64),
        ],
    )
    def test_slot_width_boundaries(self, n, k, m, p, total):
        # totals just below and at 2^8, 2^16, 2^24, 2^32, 2^40, 2^56 and
        # 2^64, where their byte length grows by one; the slots hold the
        # coefficients, which stay below the totals
        pres, coeffs = _coeffs(n, k, m, p)
        assert total_dimension(pres, k) == total == sum(coeffs)
        assert coeffs == _naive_poincare(pres, n, k)

    @pytest.mark.parametrize(
        "k, itemsize",
        [(8, 1), (9, 2), (16, 2), (17, 4), (24, 4), (25, 4), (32, 4), (33, 8),
         (40, 8), (41, 8), (56, 8), (57, 8), (64, 8)],
    )
    def test_slots_are_read_at_the_rounded_width(self, monkeypatch, k, itemsize):
        # no coefficient exceeds 2^(k - 1), a k-bit number, so slots are
        # (k - 1) // 8 + 1 bytes, read as one array of the next item size
        # among 1, 2, 4 and 8; (k + 1, k, Q) at p = Q has truncation
        # exponent 2, so its total_dimension 2^(k + 1) is two bits wider
        read = []

        def recording_array(code, raw):
            read.append(array(code).itemsize)
            return array(code, raw)

        monkeypatch.setattr(modp, "array", recording_array)
        pres, coeffs = _coeffs(k + 1, k, Q, Q)
        assert max(coeffs) <= 2 ** (k - 1) < total_dimension(pres, k)
        assert read == [itemsize]
        assert coeffs == _naive_poincare(pres, k + 1, k)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_array_code_has_its_item_size(self, size):
        assert array(modp._ARRAY_CODES[size]).itemsize == size

    @pytest.mark.parametrize(
        "n, k",
        [
            (88, 1),  # k = 1 and 2: the series reaches past the half and is cut
            (88, 2),
            (89, 1),
            (89, 2),
            (88, 44),  # dim even: one middle slot
            (89, 45),  # dim odd: the halves meet between two slots
            (90, 46),
            (90, 64),  # totals of 9 bytes or more, slots of 8
            (91, 65),  # slots of 9 bytes
        ],
    )
    @pytest.mark.parametrize(
        "m, p, case",
        [
            (Q, 2, CASES.COPRIME),
            (3 * Q, Q, CASES.ODD_DIVIDES),
            (9, 3, CASES.ODD_DIVIDES),
            (6, 2, CASES.TWO_MOD_FOUR),
            (4, 2, CASES.ZERO_MOD_FOUR),
        ],
    )
    def test_halved_unpack_matches_naive_at_large_sizes(self, n, k, m, p, case):
        # only the low half is unpacked; the mirrored half must still equal
        # the full list expansion
        pres, coeffs = _coeffs(n, k, m, p)
        assert pres.case is case
        assert len(coeffs) == k * (2 * n - k) + 1
        assert coeffs == _naive_poincare(pres, n, k)
        if k >= 64:
            assert total_dimension(pres, k).bit_length() > 64

    @pytest.mark.parametrize(
        "n, k, reason",
        [
            pytest.param(0, -1, "k-too-small", id="k-negative"),  # was OverflowError
            pytest.param(2.0, 1, "n-not-int", id="n-float"),  # was TypeError
            pytest.param(3, 2.0, "k-not-int", id="k-float"),  # was AttributeError
            pytest.param(6, 6, "k-not-below-n", id="k-equals-n"),  # answered
        ],
    )
    def test_n_and_k_are_checked_as_validate_checks_them(self, n, k, reason):
        pres = presentation(validate(6, 3, 6), 5)
        with pytest.raises(ParameterError) as exc:
            poincare_polynomial(pres, n, k)
        assert exc.value.reason == reason
        with pytest.raises(ParameterError) as exc:
            validate(n, k, 6)
        assert exc.value.reason == reason

    def test_example_3_2_2(self):
        _, coeffs = _coeffs(3, 2, 2, 2)
        assert coeffs == [1, 1, 1, 1, 0, 1, 1, 1, 1]

    def test_example_3_2_5(self):
        _, coeffs = _coeffs(3, 2, 5, 2)
        assert coeffs == [1, 0, 0, 1, 0, 1, 0, 0, 1]

    def test_betti_examples(self):
        _, coeffs = _coeffs(3, 2, 2, 2)
        assert coeffs[0] == 1
        assert coeffs[4] == 0
        assert coeffs[8] == 1
        assert len(coeffs) == 9  # nothing above the dimension 8

    def test_total_dimension_refuses_a_k_the_presentation_was_not_built_for(self):
        with pytest.raises(ParameterError) as exc:
            total_dimension(presentation(validate(6, 3, 6), 3), 40)
        assert exc.value.reason == "presentation-mismatch"
        # the exterior degrees fix k: k of them, k - 1 in TWO_MOD_FOUR
        for n in range(2, 30):
            for k in range(1, n):
                for m in range(2, 30):
                    for p in default_primes(m):  # every case, COPRIME for 2 at odd m
                        pres = presentation(validate(n, k, m), p)
                        assert total_dimension(pres, k) > 0
                        for other in {1, k - 1, k + 1, n} - {k, 0}:
                            with pytest.raises(ParameterError) as exc:
                                total_dimension(pres, other)
                            assert exc.value.reason == "presentation-mismatch"

    def test_poincare_polynomial_refuses_a_presentation_of_another_n_k(self):
        with pytest.raises(ParameterError) as exc:
            poincare_polynomial(presentation(validate(6, 3, 6), 3), 7, 3)
        assert exc.value.reason == "presentation-mismatch"
        # rebuilt from an m of its case, a presentation fits only its own
        # (n, k), whatever the m it was built for
        for n in range(2, 10):
            for k in range(1, n):
                for m in (2, 3, 4, 5, 6, 12, 35):
                    for p in (2, 3, 5, 7):
                        pres = presentation(validate(n, k, m), p)
                        for n2 in range(2, 10):
                            for k2 in range(1, n2):
                                if (n2, k2) == (n, k):
                                    assert poincare_polynomial(pres, n2, k2) == _naive_poincare(pres, n, k)
                                    continue
                                with pytest.raises(ParameterError) as exc:
                                    poincare_polynomial(pres, n2, k2)
                                assert exc.value.reason == "presentation-mismatch", (n, k, m, p, n2, k2)
        # a presentation edited by hand is refused too
        pres = presentation(validate(6, 3, 6), 3)
        for edited in (
            dataclasses.replace(pres, deg2_truncation=pres.deg2_truncation + 1),
            dataclasses.replace(pres, p=5),
            dataclasses.replace(pres, exterior_degrees=pres.exterior_degrees[:-1]),
        ):
            with pytest.raises(ParameterError) as exc:
                poincare_polynomial(edited, 6, 3)
            assert exc.value.reason == "presentation-mismatch"
        # so is one whose p is not an exact int and a prime, in every case
        for case in CASES:
            for p in (1, 0, -1, 4, 9, True, 3.0):
                edited = dataclasses.replace(pres, case=case, p=p)
                with pytest.raises(ParameterError) as exc:
                    poincare_polynomial(edited, 6, 3)
                assert exc.value.reason == "presentation-mismatch", (case, p)
        # and one whose case is not a CohomologyCase
        with pytest.raises(ParameterError) as exc:
            poincare_polynomial(dataclasses.replace(pres, case="ODD_DIVIDES"), 6, 3)
        assert exc.value.reason == "presentation-mismatch"

    def test_total_dimension_examples(self):
        pres, coeffs = _coeffs(3, 2, 2, 2)
        assert total_dimension(pres, 2) == 8 == sum(coeffs)
        pres, coeffs = _coeffs(3, 2, 5, 2)
        assert total_dimension(pres, 2) == 4 == sum(coeffs)
        pres, coeffs = _coeffs(4, 2, 2, 2)
        assert total_dimension(pres, 2) == 16 == sum(coeffs)

    def test_structural_suite_small(self):
        for n in range(2, 13):
            for k in range(1, n):
                dim = k * (2 * n - k)
                for m in (2, 3, 4, 6, 8, 12):
                    for p in PRIMES:
                        pres, coeffs = _coeffs(n, k, m, p)
                        assert len(coeffs) == dim + 1
                        assert coeffs[0] == 1 and coeffs[dim] == 1
                        # Poincare duality
                        assert coeffs == coeffs[::-1]
                        # Euler characteristic 0
                        assert sum(coeffs[::2]) == sum(coeffs[1::2])
                        assert sum(coeffs) == total_dimension(pres, k)

    def test_equal_truncation_gives_equal_polynomials(self):
        # the three p | m shapes with the same truncation exponent have the
        # same additive Poincare polynomial
        for n in range(2, 11):
            for k in range(1, n):
                buckets: dict[int, list[list[int]]] = {}
                for m, p in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (6, 2), (6, 3)]:
                    pres, coeffs = _coeffs(n, k, m, p)
                    assert pres.deg2_truncation is not None
                    buckets.setdefault(pres.deg2_truncation, []).append(coeffs)
                for group in buckets.values():
                    for other in group[1:]:
                        assert other == group[0]


class TestSharedExpansion:
    """One call for all of a report's presentations: the odd run without
    every omitted degree is expanded once, and each prime's polynomial is
    derived from it."""

    def _check(self, pres, polys, n, k):
        assert len(polys) == len(pres)
        for p, coeffs in zip(pres, polys):
            assert coeffs == _naive_poincare(p, n, k)
            assert coeffs == poincare_polynomial(p, n, k)

    @pytest.mark.parametrize(
        "m, cases",
        [
            (30, {CASES.TWO_MOD_FOUR, CASES.ODD_DIVIDES, CASES.COPRIME}),
            (60, {CASES.ZERO_MOD_FOUR, CASES.ODD_DIVIDES, CASES.COPRIME}),
            (420, {CASES.ZERO_MOD_FOUR, CASES.ODD_DIVIDES, CASES.COPRIME}),
        ],
    )
    def test_mixed_cases_match_naive(self, m, cases):
        # p = 2 is in one of its two cases, 3 and 5 (and 7 for 420) divide m,
        # 7 or 11 does not; k = 1 and 2 are included
        most = 0
        for n in range(2, 25):
            for k in range(1, n):
                pres, polys = _shared(n, k, m, (2, 3, 5, 7, 11))
                assert {p.case for p in pres} == cases
                self._check(pres, polys, n, k)
                truncations = {p.deg2_truncation for p in pres} - {None}
                most = max(most, len(truncations))
        # some (n, k) has three or more different truncations, so three
        # omitted degrees: each such prime adds back two left out by others
        assert most >= 3

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [88, 89])
    def test_small_k_at_large_n(self, n, k):
        # the series (1 - t^2h) S reaches past the half and is cut
        pres, polys = _shared(n, k, 420 * Q, (2, 3, 5, 7, 11, Q))
        assert {p.case for p in pres} == {CASES.ZERO_MOD_FOUR, CASES.ODD_DIVIDES, CASES.COPRIME}
        self._check(pres, polys, n, k)

    @pytest.mark.parametrize(
        "n, k, m, primes",
        [
            (30, 7, 3 * Q * Q2, (2, 3, Q, Q2)),  # Q and Q2: both h = n - k + 1
            (9, 2, 30, (2, 3, 5, 7)),  # TWO_MOD_FOUR at 2 and ODD_DIVIDES at 5
            (61, 40, 2 * Q * Q2, (2, 3, Q, Q2)),
        ],
    )
    def test_primes_with_the_same_truncation(self, n, k, m, primes):
        pres, polys = _shared(n, k, m, primes)
        truncations = [p.deg2_truncation for p in pres if p.deg2_truncation is not None]
        assert len(set(truncations)) < len(truncations)
        self._check(pres, polys, n, k)
        by_h = {}
        for p, coeffs in zip(pres, polys):
            if p.deg2_truncation is not None:
                assert by_h.setdefault(p.deg2_truncation, coeffs) == coeffs

    @pytest.mark.parametrize(
        "n, k, m, primes, itemsize",
        [
            (64, 63, 3, (2, 3), 8),  # totals of 8 and 9 bytes
            (66, 63, 15, (2, 3, 5), 8),
            (10, 8, 30, (2, 3, 5, 7), 1),  # TWO_MOD_FOUR, ODD_DIVIDES, COPRIME
            (11, 9, 60, (2, 3, 5, 7), 2),  # ZERO_MOD_FOUR, ODD_DIVIDES, COPRIME
            (18, 16, 30, (2, 3, 5, 7), 2),
            (19, 17, 60, (2, 3, 5, 7), 4),
            (34, 32, 30, (2, 3, 5, 7), 4),
            (35, 33, 60, (2, 3, 5, 7), 8),
            (66, 64, 30, (2, 3, 5, 7), 8),
            (67, 65, 60, (2, 3, 5, 7), None),  # 9 bytes, read by from_bytes
        ],
    )
    def test_shared_width_is_the_widest(self, monkeypatch, n, k, m, primes, itemsize):
        # the slot width follows k alone, so every presentation of one call,
        # COPRIME (total 2^k) or not (total 2h 2^(k-1)), is read at the same
        # width, in the shared call and in each one-presentation call
        read = []

        def recording_array(code, raw):
            read.append(array(code).itemsize)
            return array(code, raw)

        monkeypatch.setattr(modp, "array", recording_array)
        pres, polys = _shared(n, k, m, primes)
        cases = {p.case for p in pres}
        assert CASES.COPRIME in cases and len(cases) > 1
        each = [itemsize] if itemsize else []
        assert read == each * len(pres)
        for p, coeffs in zip(pres, polys):
            read.clear()
            assert coeffs == poincare_polynomial(p, n, k)
            assert read == each
            assert coeffs == _naive_poincare(p, n, k)
            assert max(coeffs) <= 2 ** (k - 1)

    @pytest.mark.parametrize(
        "n, k, m, primes",
        [
            (6, 2, 6, (2, 3, 5)),  # h = n at p = 2 and 3: coefficients of 2
            (12, 2, 60, (2, 3, 5, 7)),
            (7, 1, 35, (2, 5, 7)),  # k = 1: every coefficient is 1
        ],
    )
    def test_coefficients_reach_the_slot_bound(self, n, k, m, primes):
        # 2^(k - 1), the bound the slot width rests on, is met exactly
        pres, polys = _shared(n, k, m, primes)
        assert max(map(max, polys)) == 2 ** (k - 1)
        self._check(pres, polys, n, k)

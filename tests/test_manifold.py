from __future__ import annotations

import pickle

import pytest

from stiefelq import arith, modp, report, span, torsion
from stiefelq.manifold import ParameterError, basic_invariants, validate


class TestValidate:
    def test_accepts_valid_triples(self):
        p = validate(4, 2, 2)
        assert (p.n, p.k, p.m) == (4, 2, 2)
        assert p.dimension == 12

    @pytest.mark.parametrize(
        "n,k,m,reason",
        [
            (4, 0, 2, "k-too-small"),
            (4, -1, 2, "k-too-small"),
            (4, 4, 2, "k-not-below-n"),
            (4, 7, 2, "k-not-below-n"),
            (1, 1, 2, "k-not-below-n"),
            (4, 2, 1, "m-too-small"),
            (4, 2, 0, "m-too-small"),
            (4.5, 2, 2, "n-not-int"),
            (4, True, 2, "k-not-int"),
            (4, 2, 2.0, "m-not-int"),
            ("4", 2, 2, "n-not-int"),
            (4, 2, False, "m-not-int"),
        ],
    )
    def test_rejections_are_distinct(self, n, k, m, reason):
        with pytest.raises(ParameterError) as exc:
            validate(n, k, m)
        assert exc.value.reason == reason

    def test_error_survives_pickling(self):
        # pool workers send their errors back pickled
        err = pickle.loads(pickle.dumps(ParameterError("too-large", "q is too large")))
        assert type(err) is ParameterError
        assert err.reason == "too-large"
        assert str(err) == "q is too large"


class TestBasicInvariants:
    def test_example_4_2_2(self):
        b = basic_invariants(validate(4, 2, 2))
        assert b.dimension == 12
        assert b.pi1_order == 2
        assert b.euler_characteristic == 0
        assert b.orientable is True
        assert b.picard_order == 2
        assert b.almost_complex_guaranteed is True
        assert b.complex_structure_guaranteed is True  # 2 | 4

    def test_example_4_3_5(self):
        b = basic_invariants(validate(4, 3, 5))
        assert b.dimension == 15
        assert b.almost_complex_guaranteed is False
        assert b.complex_structure_guaranteed is False

    def test_example_6_2_3(self):
        b = basic_invariants(validate(6, 2, 3))
        assert b.dimension == 20
        assert b.complex_structure_guaranteed is True  # k even and 3 | 6

    def test_parity_relations(self):
        for n in range(2, 13):
            for k in range(1, n):
                for m in (2, 3, 4, 12):
                    b = basic_invariants(validate(n, k, m))
                    assert b.dimension == k * (2 * n - k)
                    assert b.dimension % 2 == k % 2
                    assert b.almost_complex_guaranteed == (b.dimension % 2 == 0)
                    if b.complex_structure_guaranteed:
                        assert b.almost_complex_guaranteed
                    assert b.pi1_order == m == b.picard_order


class TestExactIntArguments:
    """Each public entry point that takes a scalar refuses a non-int one
    with ``<name>-not-int``; each of these used to answer or to raise a bare
    ``TypeError``."""

    @pytest.mark.parametrize(
        "call, reason",
        [
            pytest.param(lambda: arith.is_prime(7.0), "q-not-int", id="is_prime-float"),
            pytest.param(lambda: arith.factorize(2.0), "q-not-int", id="factorize-float"),
            pytest.param(lambda: report.default_primes(6.0), "m-not-int", id="default_primes-float"),
            pytest.param(lambda: modp.classify(6, 3.0), "p-not-int", id="classify-float-p"),
            pytest.param(lambda: modp.classify(6.0, 3), "m-not-int", id="classify-float-m"),
            pytest.param(
                lambda: modp.truncation_exponent(4, 2, 2.0), "p-not-int", id="truncation_exponent-float"
            ),
            pytest.param(
                lambda: modp.presentation(validate(4, 2, 6), 2.0), "p-not-int", id="presentation-float"
            ),
            pytest.param(lambda: arith.radon_hurwitz(2.0), "n-not-int", id="radon_hurwitz-float"),
            pytest.param(
                lambda: modp.total_dimension(modp.presentation(validate(4, 2, 6), 2), 0),
                "k-too-small",
                id="total_dimension-zero",  # returned the float 4.0
            ),
            pytest.param(
                lambda: modp.total_dimension(modp.presentation(validate(4, 2, 6), 2), 2.0),
                "k-not-int",
                id="total_dimension-float",
            ),
            pytest.param(
                lambda: torsion.torsion_profile(validate(4, 2, 6)).order(True),
                "r-not-int",
                id="order-bool",  # answered as r = 1
            ),
            pytest.param(
                lambda: span.span_report(validate(4, 2, 2), external_span=True),
                "external-span-not-int",
                id="span_report-bool",
            ),
            pytest.param(
                lambda: span.span_report(validate(4, 2, 2), external_span=3.0),
                "external-span-not-int",
                id="span_report-float",
            ),
        ],
    )
    def test_non_int_scalar_rejected(self, call, reason):
        with pytest.raises(ParameterError) as exc:
            call()
        assert exc.value.reason == reason

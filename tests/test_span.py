from __future__ import annotations

import pytest

from stiefelq import span, torsion
from stiefelq.charclass import char_class_report
from stiefelq.manifold import ParameterError, validate
from stiefelq.span import (
    TriState,
    lower_bound_from_external_span,
    span_eq_stable_guaranteed,
    span_lower_bound,
    span_report,
    span_upper_bound,
)
from stiefelq.torsion import torsion_profile


def _lower_bound_chain(n):
    """The lower bound built along the k-recursion, as (value, reason) for
    k = 1, ..., n - 1: L(n, 1) = 1; for 2 <= k <= n - 2 the largest of k^2,
    dim - 2n + 2 (dim - 2n + 4 for even n) and L(n, k - 1) + 1, the first
    listed on a tie; for k = n - 1 the space is parallelizable and L = dim
    (n = 2 included: the full-frame rule beats the k = 1 base there)."""
    val, why = 1, span._BASE_REASON
    if n == 2:
        val, why = 3, span._LIE_REASON
    chain = [(val, why)]
    for k in range(2, n):
        dim = k * (2 * n - k)
        if k == n - 1:
            val, why = dim, span._LIE_REASON
        else:
            cands = [
                (k * k, "k^2 trivial summands split off the tangent bundle"),
                (
                    dim - 2 * n + 2,
                    "strictly above the stable span of the circle-quotient base, "
                    "which is >= dim - 2n + 1; the strict excess rounds up to "
                    "dim - 2n + 2",
                ),
                (
                    val + 1,
                    "strictly above the stable span of the (k-1)-frame quotient; "
                    "its own lower bound plus 1",
                ),
            ]
            if n % 2 == 0:
                cands.append(
                    (
                        dim - 2 * n + 4,
                        "even n: strictly above dim - 2n + 3, rounding up to "
                        "dim - 2n + 4",
                    )
                )
            val, why = max(cands, key=lambda c: c[0])
        chain.append((val, why))
    return chain


class TestTriState:
    def test_total_order(self):
        assert TriState.NO < TriState.UNKNOWN < TriState.YES
        assert TriState.YES > TriState.NO
        assert TriState.UNKNOWN <= TriState.UNKNOWN


class TestLowerBound:
    def test_examples(self):
        assert span_lower_bound(validate(4, 2, 5)) == 8  # even-n bound 12 - 8 + 4
        assert span_lower_bound(validate(4, 3, 2)) == 15  # parallelizable, = dim
        assert span_lower_bound(validate(5, 2, 2)) == 8  # 16 - 10 + 2
        assert span_lower_bound(validate(5, 1, 7)) == 1  # base case

    def test_deep_recursion_value(self):
        # hand-computed chain for n = 9: k=2 -> 16, k=3 -> 29, k=4 -> 40,
        # k=5 -> 49 (the dim - 2n + 2 candidate wins at every step)
        assert span_lower_bound(validate(9, 5, 2)) == 49
        assert 49 >= 5 * 5  # and it respects the k^2 candidate

    def test_independent_of_m(self):
        for m in (2, 3, 12, 59):
            assert span_lower_bound(validate(6, 3, m)) == span_lower_bound(
                validate(6, 3, 2)
            )

    def test_closed_form_matches_the_chain(self):
        # every 2 <= n <= 400 and 1 <= k < n: 79,800 pairs, value and reason
        pairs = 0
        for n in range(2, 401):
            for k, expected in enumerate(_lower_bound_chain(n), start=1):
                assert span._lower_bound_rule(n, k) == expected, (n, k)
                pairs += 1
        assert pairs == 79800

    def test_monotone_in_k(self):
        for n in range(3, 21):
            prev = span_lower_bound(validate(n, 1, 2))
            for k in range(2, n):
                cur = span_lower_bound(validate(n, k, 2))
                assert cur >= prev + 1
                prev = cur


class TestUpperBound:
    def test_examples(self):
        assert span_upper_bound(validate(8, 1, 3)) == 8  # rho(16) - 1
        assert span_upper_bound(validate(4, 2, 2)) == 12
        assert span_upper_bound(validate(4, 3, 2)) == 15

    def test_bounds_are_consistent(self):
        for n in range(2, 19):
            for k in range(1, n):
                params = validate(n, k, 4)
                lo, hi = span_lower_bound(params), span_upper_bound(params)
                assert 1 <= lo <= hi <= params.dimension


class TestEqualityCriteria:
    def test_examples(self):
        assert span_eq_stable_guaranteed(validate(4, 2, 7)) is True  # k even
        assert span_eq_stable_guaranteed(validate(4, 3, 2)) is False
        assert span_eq_stable_guaranteed(validate(6, 3, 2)) is True  # n = 2 mod 4
        assert span_eq_stable_guaranteed(validate(5, 3, 2)) is True  # n odd
        assert span_eq_stable_guaranteed(validate(4, 1, 2)) is False  # k = 1


class TestVerdicts:
    def test_examples(self):
        rep = span_report(validate(4, 2, 3))
        assert rep.stably_parallelizable is TriState.NO
        assert rep.parallelizable is TriState.NO
        rep = span_report(validate(4, 3, 9))
        assert rep.stably_parallelizable is TriState.YES
        assert rep.parallelizable is TriState.YES
        assert span_report(validate(4, 2, 2)).stably_parallelizable is TriState.UNKNOWN
        # nonzero w4 forces NO even though all Pontrjagin terms vanish
        assert span_report(validate(5, 2, 2)).stably_parallelizable is TriState.NO

    def test_ordering_invariant(self):
        for n in range(2, 15):
            for k in range(1, n):
                for m in (2, 3, 4, 6):
                    rep = span_report(validate(n, k, m))
                    assert rep.parallelizable <= rep.stably_parallelizable

    def test_m_not_dividing_nk_forces_no(self):
        for n in range(4, 15):
            for k in range(2, n - 1):
                for m in range(2, 16):
                    if (n * k) % m != 0:
                        rep = span_report(validate(n, k, m))
                        assert rep.stably_parallelizable is TriState.NO


class TestExternalSpan:
    def test_example_improvement(self):
        assert lower_bound_from_external_span(validate(4, 2, 2), 13) == 9
        assert lower_bound_from_external_span(validate(4, 2, 2), 3) == 8  # no gain

    def test_parallelizable_case_unmoved(self):
        for s in (0, 10, 24):
            assert lower_bound_from_external_span(validate(4, 3, 2), s) == 15

    def test_rejects_wrong_m(self):
        with pytest.raises(ParameterError) as exc:
            lower_bound_from_external_span(validate(4, 2, 3), 13)
        assert exc.value.reason == "external-span-needs-m-2"

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            lower_bound_from_external_span(validate(4, 2, 2), 17)  # > 2nk = 16
        with pytest.raises(ParameterError):
            lower_bound_from_external_span(validate(4, 2, 2), -1)


class TestSpanReport:
    def test_fields_and_provenance(self):
        rep = span_report(validate(4, 2, 2))
        assert rep.span_lower == 8
        assert rep.span_upper == 12
        assert rep.stable_span_lower == 8
        assert rep.span_eq_stable_guaranteed is True
        assert rep.parallelizable is TriState.UNKNOWN
        assert rep.provenance  # never empty
        assert any("span lower bound" in line for line in rep.provenance)

    def test_external_span_transfers_under_equality(self):
        # k even means the equality criterion holds, so the span bound moves too
        rep = span_report(validate(4, 2, 2), external_span=13)
        assert rep.stable_span_lower == 9
        assert rep.span_lower == 9

    def test_external_span_stable_only_without_equality(self):
        # (8, 3, 2): k odd, n = 0 mod 4 -> no equality criterion
        params = validate(8, 3, 2)
        assert not span_eq_stable_guaranteed(params)
        base = span_lower_bound(params)
        rep = span_report(params, external_span=2 * 8 * 3)
        assert rep.stable_span_lower == 2 * 8 * 3 - 9
        assert rep.stable_span_lower > base
        assert rep.span_lower == base

    def test_k1_not_covered_note(self):
        rep = span_report(validate(6, 1, 2))
        assert rep.span_eq_stable_guaranteed is False
        assert any("k = 1" in line for line in rep.provenance)

    def test_invariants_across_grid(self):
        for n in range(2, 13):
            for k in range(1, n):
                for m in (2, 5, 8):
                    rep = span_report(validate(n, k, m))
                    assert rep.span_lower <= rep.span_upper
                    assert rep.stable_span_lower >= rep.span_lower
                    assert rep.parallelizable <= rep.stably_parallelizable

    def test_parallelizable_family(self):
        for n in range(2, 13):
            rep = span_report(validate(n, n - 1, 3))
            d = (n - 1) * (n + 1)
            assert rep.span_lower == rep.span_upper == d
            assert rep.parallelizable is TriState.YES
            assert rep.stably_parallelizable is TriState.YES


def _eager(params, **kwargs):
    # the report built from the whole profile and every class term
    classes = char_class_report(params, torsion_profile(params))
    return span_report(params, char_classes=classes, **kwargs)


class TestLazyVerdicts:
    """``span_report(params)`` reads the classes only up to its verdict; the
    eager report, from every term, is the oracle."""

    def test_matches_eager_on_grid(self):
        seen = set()
        for n in range(2, 41):
            for k in range(1, n):
                for m in (2, 3, 4, 6, 9, 12, 30, 210, 2 * (2**61 - 1)):
                    params = validate(n, k, m)
                    rep = span_report(params)
                    assert rep == _eager(params), (n, k, m)
                    verdict = rep.provenance[-1]
                    seen.add(verdict.split(":")[0])
                    if "Stiefel-Whitney" in verdict:
                        seen.add("NO by Stiefel-Whitney alone")
                    if k == 1 or k == n - 1:
                        seen.add(f"k = {'1' if k == 1 else 'n - 1'}")
        assert seen == {
            "verdicts YES",
            "verdicts NO",
            "verdicts UNKNOWN",
            "NO by Stiefel-Whitney alone",
            "k = 1",
            "k = n - 1",
        }

    def test_matches_eager_with_external_span(self):
        improved = set()
        for n in range(2, 13):
            for k in range(1, n):
                params = validate(n, k, 2)
                rank = 2 * n * k
                lower = span_lower_bound(params)
                for ext in sorted({0, k * k, min(lower + k * k + 1, rank), rank}):
                    rep = span_report(params, external_span=ext)
                    assert rep == _eager(params, external_span=ext), (n, k, ext)
                    improved.add(rep.stable_span_lower > lower)
        assert improved == {False, True}

    def test_matches_eager_at_large_n(self):
        params = validate(20000, 2, 6)
        assert span_report(params) == _eager(params)

    def test_reads_orders_only_up_to_the_verdict(self, monkeypatch):
        params = validate(150, 38, 30)
        classes = char_class_report(params, torsion_profile(params))
        j_star = next(t.j for t in classes.pontrjagin if not t.is_zero)
        read = []

        def counted(*args):
            for order in torsion._orders(*args):
                read.append(order)
                yield order

        monkeypatch.setattr(span, "_orders", counted)
        rep = span_report(params)
        assert rep == _eager(params)
        assert f"Pontrjagin term j={j_star} " in rep.provenance[-1]
        # the modulus of term j is the order of y^(2j): nothing past y^(2j*)
        assert len(read) == 2 * j_star < params.n
        assert tuple(read) == torsion_profile(params).orders[: 2 * j_star]


def test_span_report_refuses_classes_of_another_n_k_m():
    # (6, 3, 6)'s own verdict is the Stiefel-Whitney class in degree 4; the
    # 4 Pontrjagin terms of (9, 4, 12) would give another
    params = validate(6, 3, 6)
    other = validate(9, 4, 12)
    with pytest.raises(ParameterError) as exc:
        span_report(params, char_classes=char_class_report(other, torsion_profile(other)))
    assert exc.value.reason == "classes-mismatch"
    own = span_report(params, char_classes=char_class_report(params, torsion_profile(params)))
    assert own == span_report(params)
    assert own.provenance[-1] == "verdicts NO: Stiefel-Whitney class in degree 4 is nonzero"

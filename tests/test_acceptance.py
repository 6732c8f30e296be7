"""Release acceptance gate.

One test per criterion; each prints a single ``ACCEPTANCE <name>: PASS`` or
``FAIL`` line (run ``pytest tests/test_acceptance.py -v -s`` to see them).
Oracles here are test-local and built on the stdlib only, so they share no
code with the library paths under test.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import time
from collections import defaultdict

from stiefelq.arith import radon_hurwitz
from stiefelq.charclass import char_class_report, stiefel_whitney_classes
from stiefelq.manifold import validate
from stiefelq.modp import CohomologyCase, poincare_polynomial, presentation, total_dimension
from stiefelq.report import GridSpec, compute_report, render, render_table, report_from_json
from stiefelq.span import (
    TriState,
    span_lower_bound,
    span_report,
    span_upper_bound,
)
from stiefelq.torsion import torsion_profile


def _criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {name}: PASS", flush=True)
            return result

        return wrapper

    return deco


@_criterion("torsion-oracle-equivalence")
def test_fast_torsion_path_matches_bruteforce_gcd():
    """The carry-count profile equals a gcd fold over exact binomials on
    every point of the grid n <= 40, k < n, m <= 60, with all n orders and
    the height compared.  Budget: 60 s."""
    t0 = time.monotonic()
    for n in range(2, 41):
        comb = [math.comb(n, j) for j in range(n + 1)]
        for k in range(1, n):
            cut = n - k
            for m in range(2, 61):
                g = m
                expected = []
                for r in range(1, n + 1):
                    if r > cut:
                        g = math.gcd(g, comb[r])
                    expected.append(g)
                profile = torsion_profile(validate(n, k, m))
                assert profile.orders == tuple(expected), (n, k, m)
                assert profile.height == max(
                    r for r, o in enumerate(expected, start=1) if o > 1
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"torsion sweep took {elapsed:.1f} s, budget is 60 s"


@_criterion("torsion-spot-values")
def test_torsion_spot_values():
    profile = torsion_profile(validate(4, 2, 2))
    assert profile.orders == (2, 2, 2, 1)
    assert profile.height == 3
    # k = 1 reproduces the classical lens-space height n - 1
    assert torsion_profile(validate(5, 1, 7)).height == 4


@_criterion("modp-structure-sweep")
def test_cohomology_structure_sweep():
    """Every presentation on n <= 25, k < n, m in {2,3,4,6,8,12},
    p in {2,3,5,7} satisfies Poincare duality, evaluates to 0 at t = -1,
    and has total dimension 2^k (coprime) or 2T * 2^(k-1) (truncation T).
    Presentations over the same (n, k) with equal truncation must agree
    additively even when their ring structure differs.  Budget: 30 s."""
    t0 = time.monotonic()
    cache: dict = {}
    by_truncation: defaultdict = defaultdict(set)
    for n in range(2, 26):
        for k in range(1, n):
            dim = k * (2 * n - k)
            for m in (2, 3, 4, 6, 8, 12):
                params = validate(n, k, m)
                for p in (2, 3, 5, 7):
                    pres = presentation(params, p)
                    key = (pres.poly_generator, pres.exterior_degrees)
                    cached = cache.get(key)
                    if cached is None:
                        coeffs = tuple(poincare_polynomial(pres, n, k))
                        assert len(coeffs) == dim + 1
                        for q in range(dim + 1):
                            assert coeffs[q] == coeffs[dim - q], (n, k, m, p, q)
                        assert sum(c * (-1) ** q for q, c in enumerate(coeffs)) == 0
                        cached = (coeffs, sum(coeffs))
                        cache[key] = cached
                    coeffs, total = cached
                    assert total_dimension(pres, k) == total
                    if pres.case is CohomologyCase.COPRIME:
                        assert total == 2**k
                    else:
                        assert total == 2 * pres.deg2_truncation * 2 ** (k - 1)
                        by_truncation[(n, k, pres.deg2_truncation)].add(coeffs)
    # same truncation, same additive answer, across all three truncated cases
    for group, polys in by_truncation.items():
        assert len(polys) == 1, group
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"cohomology sweep took {elapsed:.1f} s, budget is 30 s"


@_criterion("charclass-verdict-consistency")
def test_char_classes_force_verdicts():
    """On n <= 20, 2 <= k <= n-2, m <= 20: whenever m does not divide nk the
    verdict is NO; the four known all-classes-vanish points answer UNKNOWN;
    two pinned obstructions answer NO for the stated reason."""
    vanishing = {(4, 2, 2), (8, 2, 2), (8, 4, 2), (9, 3, 3)}
    seen = set()
    for n in range(4, 21):
        for k in range(2, n - 1):
            for m in range(2, 21):
                params = validate(n, k, m)
                rep = span_report(params)
                if (n * k) % m != 0:
                    assert rep.stably_parallelizable is TriState.NO, (n, k, m)
                    assert rep.parallelizable is TriState.NO
                if (n, k, m) in vanishing:
                    seen.add((n, k, m))
                    classes = char_class_report(params, torsion_profile(params))
                    assert classes.all_pontrjagin_vanish
                    assert classes.all_sw_vanish
                    assert rep.stably_parallelizable is TriState.UNKNOWN
                    assert rep.parallelizable is TriState.UNKNOWN
    assert seen == vanishing

    params = validate(4, 2, 3)
    term = char_class_report(params, torsion_profile(params)).pontrjagin[0]
    assert (term.raw_coefficient, term.modulus, term.reduced) == (8, 3, 2)
    assert not term.is_zero
    assert span_report(params).stably_parallelizable is TriState.NO

    present = {t.degree for t in stiefel_whitney_classes(validate(5, 2, 2)) if t.present}
    assert 4 in present
    assert span_report(validate(5, 2, 2)).stably_parallelizable is TriState.NO


@_criterion("span-bound-suite")
def test_span_bound_suite():
    assert span_lower_bound(validate(4, 2, 5)) == 8

    # top frame count: the bounds meet at the dimension
    for n in range(2, 16):
        for m in range(2, 11):
            params = validate(n, n - 1, m)
            assert span_lower_bound(params) == span_upper_bound(params) == params.dimension

    for n in range(2, 31):
        for k in range(1, n):
            lows = set()
            for m in range(2, 31):
                params = validate(n, k, m)
                low = span_lower_bound(params)
                assert low <= span_upper_bound(params) <= params.dimension
                lows.add(low)
            assert len(lows) == 1  # the lower bound never depends on m
            if k >= 2:
                # dropping one frame vector costs at least one span unit
                assert lows.pop() >= span_lower_bound(validate(n, k - 1, 2)) + 1


@_criterion("radon-hurwitz-frame-free")
def test_radon_hurwitz_and_circle_quotient_upper():
    assert [radon_hurwitz(d) for d in (2, 4, 8, 16)] == [2, 4, 8, 9]
    for n in range(2, 17):
        rho = radon_hurwitz(2 * n)
        for m in (2, 3, 4, 7, 12):
            assert span_upper_bound(validate(n, 1, m)) == rho - 1


@_criterion("table-determinism")
def test_table_output_deterministic_and_roundtrips():
    """Byte-identical table output, CSV and JSON, across repeated runs and
    across 1 vs 8 workers on a 270-point grid, plus JSON round-trip identity
    on every point and a CLI-vs-library byte comparison."""
    base = dict(n_range=(3, 8), k_range=None, m_range=(2, 11))
    points = sum(n - 1 for n in range(3, 9)) * 10
    assert points >= 200

    for fmt, header in (("csv", 1), ("json", 0)):
        serial = render_table(GridSpec(**base, fmt=fmt))
        assert serial == render_table(GridSpec(**base, fmt=fmt))
        assert serial == render_table(GridSpec(**base, fmt=fmt, jobs=8))
        assert len(serial.splitlines()) == header + points

    for n in range(3, 9):
        for k in range(1, n):
            for m in range(2, 12):
                report = compute_report(validate(n, k, m))
                assert report_from_json(render(report, "json")) == report

    small = GridSpec(n_range=(3, 5), k_range=None, m_range=(2, 5))
    proc = subprocess.run(
        [sys.executable, "-m", "stiefelq", "table", "--n", "3..5", "--m", "2..5"],
        capture_output=True,
        check=True,
    )
    assert proc.stdout == render_table(small)

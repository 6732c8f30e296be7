from __future__ import annotations

import concurrent.futures
import dataclasses
import inspect
import json
import logging
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import typing
from concurrent.futures import Future
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stiefelq import charclass, cli, modp, report, span, torsion
from stiefelq.arith import is_prime
from stiefelq.cli import main
from stiefelq.manifold import ManifoldParams, ParameterError, _record, validate
from stiefelq.report import (
    CSV_HEADER,
    GridSpec,
    compute_report,
    default_primes,
    generate_table,
    render,
    render_table,
    report_from_json,
    report_to_dict,
)
from stiefelq.span import TriState


@st.composite
def _params(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(2, 30))
    return validate(n, k, m)


def _record_classes() -> list[type]:
    """The dataclasses a report is made of, walked from ``InvariantReport``
    through the field annotations as ``report_from_dict`` reads them."""
    todo, seen = [report.InvariantReport, ManifoldParams], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        for hint in typing.get_type_hints(cls).values():
            todo += [t for t in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(t)]
    return seen


def _full_report_dict(k: int) -> dict:
    """The dict of (9, k, 6) with primes (2, 3, 5): for k = 4 every list and
    optional is nonempty but ``notes``, which k = 1 fills.  Entry 0 (p = 2)
    has a polynomial generator."""
    return report_to_dict(compute_report(validate(9, k, 6), (2, 3, 5)))


# The keys leading to an object of each record class in ``_full_report_dict``.
# A cohomology entry's object also holds its presentation's fields: the
# ``presentation`` field has no key of its own.
_OBJECT_KEYS = {
    report.InvariantReport: (),
    ManifoldParams: ("params",),
    report.BasicInvariants: ("basic",),
    torsion.TorsionProfile: ("torsion",),
    report.CohomologyEntry: ("cohomology", 0),
    modp.RingPresentation: ("cohomology", 0),
    modp.PolyGenerator: ("cohomology", 0, "poly_generator"),
    charclass.CharClassReport: ("char_classes",),
    charclass.PontrjaginTerm: ("char_classes", "pontrjagin", 0),
    charclass.StiefelWhitneyTerm: ("char_classes", "stiefel_whitney", 0),
    span.SpanReport: ("span",),
}

# A value of another JSON type than each value of the report's dict
_WRONG_JSON_TYPE = {list: {}, dict: [], str: 7, bool: 1, int: True}


def _path_text(keys: tuple) -> str:
    """The path the loader names for ``keys``: ``a.b[0].c``."""
    text = ""
    for key in keys:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _object_keys(obj, keys=()):
    """The keys leading to each object in ``obj``, lists walked too."""
    if isinstance(obj, dict):
        yield keys
        for key, value in obj.items():
            yield from _object_keys(value, (*keys, key))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _object_keys(item, (*keys, i))


def _field_cases():
    datas = {k: _full_report_dict(k) for k in (1, 4)}
    for cls, keys in _OBJECT_KEYS.items():
        for name in typing.get_type_hints(cls):
            if (cls, name) == (report.CohomologyEntry, "presentation"):
                continue
            path = (*keys, name)
            value = datas[1 if path == ("notes",) else 4]
            for key in path:
                value = value[key]
            for variant in ("swap", "float", "item") if isinstance(value, list) else ("swap", "float"):
                yield pytest.param(path, variant, id=f"{cls.__name__}.{name}-{variant}")


@st.composite
def _pooled_grids(draw, fmt="json"):
    """Small grids of at least two worker chunks after chunk 0, so a pool
    starts, whose (n, k) runs of m values cross a chunk boundary."""
    n_lo = draw(st.integers(3, 7))
    n_hi = draw(st.integers(n_lo, n_lo + 2))
    runs = sum(n - 1 for n in range(n_lo, n_hi + 1))
    m_lo = draw(st.integers(2, 30))
    least = -(-(report._FIRST_ROWS + report._CHUNK_ROWS + 1) // runs)
    m_hi = m_lo + draw(st.integers(least, least + 15)) - 1
    primes = draw(st.none() | st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=1, max_size=3))
    return GridSpec(n_range=(n_lo, n_hi), k_range=None, m_range=(m_lo, m_hi), primes=primes,
                    fmt=fmt, jobs=2)


def _chunks(rows: list) -> list[list]:
    """``rows`` cut where a table's chunks start: chunk 0, then worker chunks."""
    first, size = report._FIRST_ROWS, report._CHUNK_ROWS
    return [rows[:first]] + [rows[i : i + size] for i in range(first, len(rows), size)]


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: ``submit`` runs the chunk here and
    returns a completed future, so no process starts.  The log holds each
    pool's worker count and the most futures ever outstanding (submitted,
    result not yet taken)."""
    log = {"started": [], "outstanding": 0, "peak": 0}

    class TakenFuture(Future):
        def result(self, timeout=None):
            log["outstanding"] -= 1
            return super().result(timeout)

    class InlinePool:
        def __init__(self, max_workers):
            log["started"].append(max_workers)

        def submit(self, fn, *args):
            future = TakenFuture()
            future.set_result(fn(*args))
            log["outstanding"] += 1
            log["peak"] = max(log["peak"], log["outstanding"])
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return log


class TestComputeReport:
    def test_example_4_2_2(self):
        report = compute_report(validate(4, 2, 2), primes=(2, 3))
        assert report.torsion.height == 3
        assert len(report.cohomology) == 2
        assert report.cohomology[0].p == 2
        assert report.cohomology[1].p == 3
        assert report.span.stably_parallelizable is TriState.UNKNOWN
        assert report.span.parallelizable is TriState.UNKNOWN
        assert report.notes == ()

    def test_example_4_3_2(self):
        report = compute_report(validate(4, 3, 2), primes=(2,))
        assert report.span.span_lower == 15
        assert report.span.span_upper == 15
        assert report.span.parallelizable is TriState.YES

    def test_default_primes(self):
        assert default_primes(2) == (2,)
        assert default_primes(5) == (2, 5)
        assert default_primes(12) == (2, 3)
        assert default_primes(45) == (2, 3, 5)
        report = compute_report(validate(4, 2, 15))
        assert [e.p for e in report.cohomology] == [2, 3, 5]

    def test_primes_validation(self):
        with pytest.raises(ParameterError) as exc:
            compute_report(validate(4, 2, 2), primes=(4,))
        assert exc.value.reason == "primes-not-prime"
        with pytest.raises(ParameterError):
            compute_report(validate(4, 2, 2), primes=())

    def test_float_prime_rejected(self):
        # it was kept, and written as "p": 3.0, which the loader refuses
        with pytest.raises(ParameterError) as exc:
            compute_report(validate(3, 1, 2), primes=(3.0,))
        assert exc.value.reason == "primes-not-int"

    def test_str_primes_rejected(self):
        # "23" iterates as "2", "3": compared with 2, a bare TypeError
        with pytest.raises(ParameterError) as exc:
            compute_report(validate(3, 1, 2), primes="23")
        assert exc.value.reason == "primes-not-int"

    def test_scalar_primes_rejected(self):
        # iterating 5 raised a bare TypeError
        with pytest.raises(ParameterError) as exc:
            compute_report(validate(3, 1, 2), primes=5)
        assert exc.value.reason == "primes-not-int"

    @pytest.mark.parametrize(
        "primes", [{3, 2}, [3, 2, 3], iter((2, 3))], ids=["set", "list", "iterator"]
    )
    def test_primes_from_any_collection(self, primes):
        # an iterator used to be spent by the checks, leaving no entries
        params = validate(4, 2, 6)
        assert compute_report(params, primes) == compute_report(params, (2, 3))

    def test_bool_prime_rejected(self):
        with pytest.raises(ParameterError) as exc:
            compute_report(validate(3, 1, 2), primes=(2, True))
        assert exc.value.reason == "primes-not-int"

    def test_extrapolation_note_exactly_for_k1(self):
        k1 = compute_report(validate(5, 1, 7))
        assert any("extrapolated" in note for note in k1.notes)
        for n, k in [(5, 2), (5, 4), (9, 3)]:
            rep = compute_report(validate(n, k, 7))
            assert not any("extrapolated" in note for note in rep.notes)

    def test_each_layer_runs_once(self, monkeypatch):
        # char classes are counted at their core, which the public function
        # and reports both call
        calls = {"torsion_profile": 0, "_char_class_report": 0}
        starts = {"_orders": 0, "_pontrjagin_terms": 0, "_stiefel_whitney_terms": 0}
        # wrap every module binding of these names, so any route is counted
        for module in (torsion, charclass, span, report):
            for name in calls:
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
            for name in starts:
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def started(*args, _fn=fn, _name=name, **kwargs):
                    # a generator: this runs at its first next(), not at the call
                    starts[_name] += 1
                    yield from _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, started)
        for n, k, m in [(4, 2, 2), (5, 4, 3), (6, 1, 7), (12, 5, 30), (10, 3, 2), (9, 4, 4)]:
            for counter in (calls, starts):
                for name in counter:
                    counter[name] = 0
            compute_report(validate(n, k, m))
            assert calls == {"torsion_profile": 1, "_char_class_report": 1}, (n, k, m)
            # span_report alone builds neither: it reads the lazy terms, each
            # generator started at most once
            for counter in (calls, starts):
                for name in counter:
                    counter[name] = 0
            span.span_report(validate(n, k, m))
            assert calls == {"torsion_profile": 0, "_char_class_report": 0}, (n, k, m)
            assert max(starts.values()) <= 1, (starts, n, k, m)
            # k = n - 1 is YES before any class is read
            assert starts["_pontrjagin_terms"] == (k != n - 1), (starts, n, k, m)


class TestRender:
    def test_csv_row_golden(self):
        report = compute_report(validate(4, 2, 2), primes=(2, 3))
        assert render(report, "csv_row") == b"4,2,2,12,3,8,12,unknown,unknown"

    def test_json_roundtrip_example(self):
        report = compute_report(validate(4, 2, 2), primes=(2, 3))
        blob = render(report, "json")
        assert report_from_json(blob) == report
        data = json.loads(blob)
        assert data["schema_version"] == 1
        assert data["params"] == {"n": 4, "k": 2, "m": 2}
        # unbounded integers travel as decimal strings
        assert data["char_classes"]["pontrjagin"][0]["raw_coefficient"] == "8"

    @given(_params(), st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, params, primes):
        report = compute_report(params, primes=tuple(sorted(primes)))
        assert report_from_json(render(report, "json")) == report

    @pytest.mark.parametrize(
        "n, k, m, primes",
        [
            (2, 1, 2, None),  # k = 1: notes present
            (5, 1, 7, None),
            (9, 1, 12, None),
            (4, 2, 2, (2, 3)),  # 3 is COPRIME to m
            (30, 12, 5, (2, 5, 7)),
            (40, 20, 210, None),  # four primes
            (90, 45, 2 * 1000000000039, None),  # m = 2q, q a 13-digit prime
            (60, 59, 4, None),
            (140, 70, 30, None),
            (137, 1, 6, None),
        ],
    )
    def test_json_matches_indented_dump(self, n, k, m, primes):
        # the spliced Poincare lists must give the bytes of the plain dump
        report = compute_report(validate(n, k, m), primes)
        expected = (json.dumps(report_to_dict(report), indent=2) + "\n").encode()
        assert render(report, "json") == expected

    def test_json_matches_indented_dump_for_odd_reports(self):
        # report_from_json accepts empty Poincare lists and any note text
        report = compute_report(validate(4, 2, 6))
        report = replace(
            report,
            cohomology=tuple(replace(e, poincare=()) for e in report.cohomology),
            notes=("\0", '\n      "poincare": []', 'x"\0'),
        )
        expected = (json.dumps(report_to_dict(report), indent=2) + "\n").encode()
        assert render(report, "json") == expected

    @pytest.mark.parametrize(
        "poincare",
        [
            "bump",  # one computed coefficient changed: no longer a palindrome
            [7],
            [1, 2],
            [2, 2],
            [1, 2, 1],
            [1, 2, 3],
            [10**20, 5, int("1" + "0" * 20)],  # equal but distinct int objects
            [-1, 0, 1, 0, -1],
        ],
    )
    def test_json_matches_indented_dump_for_loaded_poincare_lists(self, poincare):
        # report_from_dict takes any list, so the palindrome check must hold
        # for lists no computation made
        data = report_to_dict(compute_report(validate(9, 4, 6)))
        for entry in data["cohomology"]:
            if poincare == "bump":
                entry["poincare"][3] += 1
                assert entry["poincare"] != entry["poincare"][::-1]
            else:
                entry["poincare"] = list(poincare)
        loaded = report.report_from_dict(data)
        expected = (json.dumps(report_to_dict(loaded), indent=2) + "\n").encode()
        assert render(loaded, "json") == expected

    def test_large_report_is_quick(self):
        # the list-loop expansion and whole-dict indented dump took 2.4-3.4 s
        # on a 2-CPU x86-64 machine with Python 3.11; this route about 0.4 s
        start = time.perf_counter()
        render(compute_report(validate(300, 150, 60)), "json")
        assert time.perf_counter() - start < 2

    def test_renders_are_deterministic(self):
        a = compute_report(validate(6, 3, 4))
        b = compute_report(validate(6, 3, 4))
        for fmt in ("json", "csv_row", "text"):
            assert render(a, fmt) == render(b, fmt)

    def test_text_contains_sections(self):
        text = render(compute_report(validate(4, 2, 2)), "text").decode()
        for fragment in ("torsion", "mod-p cohomology", "characteristic classes", "span"):
            assert fragment in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            render(compute_report(validate(4, 2, 2)), "yaml")


class TestJsonWriter:
    """``render(..., "json")`` writes the report in one pass of its own; every
    case must give the bytes of the indented standard-library dump."""

    @staticmethod
    def _assert_dump_bytes(rep):
        expected = (json.dumps(report_to_dict(rep), indent=2) + "\n").encode()
        assert render(rep, "json") == expected

    @staticmethod
    def _loaded(edit):
        data = report_to_dict(compute_report(validate(9, 4, 6), (2, 3, 5)))
        edit(data)
        return report.report_from_dict(data)

    @pytest.mark.parametrize(
        "n, k, m, primes",
        [
            (138, 86, 2548, None),  # 11-byte slots, read by from_bytes
            (60, 1, 30, (2, 3, 7)),  # k = 1 with explicit primes
            (20, 9, 12, (2, 3, 5)),  # ZERO_MOD_FOUR, ODD_DIVIDES, COPRIME
            (20, 9, 30, (2, 3, 7)),  # TWO_MOD_FOUR, ODD_DIVIDES, COPRIME
            (41, 20, 6 * 1000000000039, (2, 3, 1000000000039)),
        ],
    )
    def test_computed_reports(self, n, k, m, primes):
        self._assert_dump_bytes(compute_report(validate(n, k, m), primes))

    @pytest.mark.parametrize(
        "text",
        [
            "caf\u00e9 \u65e5\u672c \U0001f600",  # non-ASCII, astral
            "line\u2028separator\u2029",
            "\x00\x01\x1f\x7f\t\r\n\b\f",  # control characters
            'quote " and backslash \\ and \\u0041',
            "",
        ],
    )
    def test_loaded_strings(self, text):
        def edit(data):
            data["notes"] = [text, text + "!"]
            data["span"]["provenance"] = [text]

        rep = self._loaded(edit)
        assert rep.notes == (text, text + "!")
        self._assert_dump_bytes(rep)

    def test_writer_route_shares_the_poincare_tuples(self):
        rep = compute_report(validate(9, 4, 6), (2, 3, 5))
        public = report_to_dict(rep)
        for e, pub in zip(rep.cohomology, public["cohomology"]):
            # the public dict stays plain JSON data: equal to what json.loads gives
            assert type(pub["poincare"]) is list and pub["poincare"] == list(e.poincare)
        assert json.loads(json.dumps(public)) == public

    def test_loaded_empty_lists(self):
        def edit(data):
            data["notes"] = []
            data["cohomology"] = []
            data["torsion"]["orders"] = []
            data["char_classes"]["pontrjagin"] = []
            data["char_classes"]["stiefel_whitney"] = []
            data["span"]["provenance"] = []

        self._assert_dump_bytes(self._loaded(edit))

    def test_loaded_floats_and_negative_ints(self):
        # negative ints load; floats in int fields are rejected by the
        # loader, but a report built in Python may hold them, and the writer
        # must give the dump's bytes for both (finite floats: NaN and
        # Infinity are not JSON)
        def edit(data):
            data["torsion"]["height"] = -3
            data["span"]["span_lower"] = -1
            data["char_classes"]["pontrjagin"][0]["modulus"] = -7
            data["cohomology"][0]["total_dimension"] = -(10**30)

        rep = self._loaded(edit)
        self._assert_dump_bytes(rep)
        floats = replace(
            rep,
            basic=replace(rep.basic, dimension=1.5),
            span=replace(rep.span, span_upper=-0.0),
            char_classes=replace(rep.char_classes, pontrjagin=(
                replace(rep.char_classes.pontrjagin[0], reduced=1e300),
                *rep.char_classes.pontrjagin[1:],
            )),
        )
        self._assert_dump_bytes(floats)
        with pytest.raises(ValueError, match="must be an int, got float"):
            report.report_from_dict(report_to_dict(floats))

    def test_loaded_containers_in_scalar_fields(self):
        # a report built in Python may hold any value; the loader rejects
        # these, so no such report comes back from JSON
        rep = compute_report(validate(9, 4, 6), (2, 3, 5))
        odd = replace(
            rep,
            basic=replace(rep.basic, dimension={}, pi1_order=[], picard_order={
                "a": [{}, [], None, True], "poincare": [True, "x", True]}),
            torsion=replace(rep.torsion, height=None),
        )
        with pytest.raises(ValueError, match="must be an int, got"):
            report.report_from_dict(report_to_dict(odd))

    @pytest.mark.parametrize("entries", [[True], ["1"], [1.0], [True, "x", 1.5, "x", True]])
    def test_loader_rejects_non_int_poincare_entries(self, entries):
        # printed through repr, these would give True and an unquoted x:
        # not JSON at all
        data = report_to_dict(compute_report(validate(4, 2, 6)))
        data["cohomology"][0]["poincare"] = entries
        with pytest.raises(ValueError, match="poincare entries must be ints"):
            report.report_from_dict(data)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("basic", "orientable"),
            ("basic", "almost_complex_guaranteed"),
            ("basic", "complex_structure_guaranteed"),
            ("char_classes", "all_pontrjagin_vanish"),
            ("char_classes", "all_sw_vanish"),
            ("span", "span_eq_stable_guaranteed"),
        ],
    )
    @pytest.mark.parametrize("value", ["maybe", 1, 0, None, [], 1.0])
    def test_loader_rejects_non_bool_flags(self, section, key, value):
        # the text dossier prints these through a {True, False} lookup:
        # basic.orientable = "maybe" used to load and then fail in text
        data = report_to_dict(compute_report(validate(4, 2, 6)))
        data[section][key] = value
        expected = f"{section}.{key} must be a bool, got {type(value).__name__}"
        with pytest.raises(ValueError, match=expected):
            report.report_from_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [d], "report must be an object, got list"),
            (lambda d: d.pop("span") and d, "span is missing"),
            (lambda d: d["params"].pop("m") and d, "params.m is missing"),
            (lambda d: d["params"].update(q=1) or d, r"params has unknown keys \['q'\]"),
            (lambda d: d["basic"].pop("dimension") and d, "basic.dimension is missing"),
            (lambda d: d.update(basic=[]) or d, "basic must be an object, got list"),
            (lambda d: d["cohomology"].append(5) or d, r"cohomology\[2\] must be an object"),
            (
                lambda d: d["cohomology"][0]["poly_generator"].update(extra=1) or d,
                r"cohomology\[0\]\.poly_generator has unknown keys \['extra'\]",
            ),
            (
                lambda d: d["cohomology"][1].update(poincare="12") or d,
                r"cohomology\[1\]\.poincare must be a list, got str",
            ),
            (
                lambda d: d["char_classes"]["pontrjagin"][0].update(raw_coefficient=8) or d,
                r"char_classes\.pontrjagin\[0\]\.raw_coefficient must be a str, got int",
            ),
            (
                lambda d: d["char_classes"]["pontrjagin"][1].update(is_zero="no") or d,
                r"char_classes\.pontrjagin\[1\]\.is_zero must be a bool, got str",
            ),
            (
                lambda d: d["char_classes"]["stiefel_whitney"][2].update(present=1) or d,
                r"char_classes\.stiefel_whitney\[2\]\.present must be a bool, got int",
            ),
            # int fields and int lists: each of these loaded and rendered in
            # all three formats
            (lambda d: d["basic"].update(dimension={}) or d, r"basic\.dimension must be an int, got dict"),
            (lambda d: d["basic"].update(dimension="12") or d, r"basic\.dimension must be an int, got str"),
            (lambda d: d["torsion"].update(height=2.5) or d, r"torsion\.height must be an int, got float"),
            (lambda d: d["span"].update(span_lower=True) or d, r"span\.span_lower must be an int, got bool"),
            (
                lambda d: d["torsion"].update(orders=["a", 1, 2, 3]) or d,
                r"torsion\.orders entries must be ints, got \['str'\]",
            ),
            (
                lambda d: d["cohomology"][0].update(exterior_degrees=[True]) or d,
                r"cohomology\[0\]\.exterior_degrees entries must be ints, got \['bool'\]",
            ),
            (
                lambda d: d["cohomology"][1].update(deg2_truncation=3.0) or d,
                r"cohomology\[1\]\.deg2_truncation must be an int, got float",
            ),
            (
                lambda d: d["char_classes"]["pontrjagin"][0].update(modulus="6") or d,
                r"char_classes\.pontrjagin\[0\]\.modulus must be an int, got str",
            ),
            # string lists: each of these used to load and print as JSON
            # ``7`` or ``null`` where the schema has a string
            (lambda d: d.update(notes=["fine", 7]) or d, r"notes\[1\] must be a str, got int"),
            (
                lambda d: d["span"]["provenance"].insert(0, None) or d,
                r"span\.provenance\[0\] must be a str, got NoneType",
            ),
            # True == 1.0 == 1: each used to pass the version check and fail
            # later with "params is missing"
            (lambda d: {"schema_version": True}, "schema_version must be an int, got bool"),
            (lambda d: {"schema_version": 1.0}, "schema_version must be an int, got float"),
            (lambda d: d.update(schema_version=True) or d, "schema_version must be an int, got bool"),
            (lambda d: d.update(schema_version=2) or d, "unsupported schema_version: 2"),
        ],
    )
    def test_loader_names_the_bad_field(self, edit, message):
        # each used to load (is_zero = "no" printed as "zero" in text) or to
        # fail with AttributeError, KeyError or TypeError
        data = edit(report_to_dict(compute_report(validate(4, 2, 6))))
        with pytest.raises(ValueError, match=message):
            report.report_from_dict(data)

    @pytest.mark.parametrize("text", ["[" * 100000, b'{"a":' * 100000], ids=["list", "object"])
    def test_loader_rejects_deep_nesting(self, text):
        # json.loads raises RecursionError here, which is no ValueError
        with pytest.raises(ValueError, match="nested too deeply") as exc:
            report_from_json(text)
        assert isinstance(exc.value.__cause__, RecursionError)

    @given(_params(), st.none() | st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_both_layouts_equal_the_standard_dumps(self, params, primes):
        # the dossier and the table row of one point, from the same
        # templates, against the standard library's dumps of the oracle dict
        rep = compute_report(params, primes)
        data = report_to_dict(rep)
        assert render(rep, "json") == (json.dumps(data, indent=2) + "\n").encode()
        n, k, m = params.n, params.k, params.m
        spec = GridSpec(n_range=(n, n), k_range=(k, k), m_range=(m, m), primes=primes, fmt="json")
        assert list(generate_table(spec)) == [json.dumps(data, separators=(",", ":")).encode()]

    @pytest.mark.parametrize("keys, variant", list(_field_cases()))
    def test_every_field_refuses_a_wrong_json_type(self, keys, variant):
        # every field of every record class, at its path in a report with
        # every section nonempty; "item" puts the wrong type in a list's
        # first item
        data = _full_report_dict(1 if keys == ("notes",) else 4)
        *parents, last = keys
        obj = data
        for key in parents:
            obj = obj[key]
        value = obj[last]
        if variant == "item":
            obj, last = value, 0
            value = value[0]
        obj[last] = 1.5 if variant == "float" else _WRONG_JSON_TYPE[type(value)]
        # the field, or its first item
        with pytest.raises(ValueError, match=rf"^{re.escape(_path_text(keys))}(\[0\])? "):
            report.report_from_dict(data)

    def test_field_cases_cover_every_record_class(self):
        assert set(_OBJECT_KEYS) == set(_record_classes())

    @pytest.mark.parametrize("keys", list(_object_keys(_full_report_dict(4))), ids=_path_text)
    def test_unknown_key_in_any_object_is_refused(self, keys):
        data = _full_report_dict(4)
        obj = data
        for key in keys:
            obj = obj[key]
        obj["zz"] = 1
        name = re.escape(_path_text(keys) or "report")
        with pytest.raises(ValueError, match=rf"^{name} has unknown keys \['zz'\]$"):
            report.report_from_dict(data)

    @pytest.mark.parametrize(
        "annotation, value",
        [(float, 1.5), (list[int], [1]), (tuple[int, int], [1, 2]), (dict, {}), (int | str, 1)],
        ids=["float", "list[int]", "tuple[int, int]", "dict", "int | str"],
    )
    def test_annotation_without_a_rule_is_refused(self, annotation, value):
        probe = dataclasses.make_dataclass("Probe", [("x", annotation)])
        with pytest.raises(TypeError, match=re.escape(repr(annotation))):
            report._read(probe, {"x": value}, "")

    @pytest.mark.parametrize(
        "annotation, good, bad, message",
        [
            (typing.Optional[int], None, 1.5, "x must be an int, got float"),
            (typing.Tuple[int, ...], [1, 2], [1, 1.5], r"x entries must be ints, got \['float'\]"),
        ],
        ids=["Optional[int]", "Tuple[int, ...]"],
    )
    def test_typing_spellings_are_read_by_their_types(self, annotation, good, bad, message):
        probe = dataclasses.make_dataclass("Probe", [("x", annotation)])
        assert report._read(probe, {"x": good}, "") == probe(good if good is None else tuple(good))
        with pytest.raises(ValueError, match=message):
            report._read(probe, {"x": bad}, "")

    def test_loader_keeps_negative_poincare_entries(self):
        data = report_to_dict(compute_report(validate(4, 2, 6)))
        data["cohomology"][0]["poincare"] = [-3, 0, 10**25, 0, -3]
        loaded = report.report_from_dict(data)
        assert loaded.cohomology[0].poincare == (-3, 0, 10**25, 0, -3)
        assert json.loads(render(loaded, "json")) == data


class TestTable:
    def test_ten_row_example(self):
        spec = GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 3))
        rows = [row.decode() for row in generate_table(spec)]
        assert rows[0] == CSV_HEADER
        assert len(rows) == 11  # header + 10 points
        triples = [tuple(int(x) for x in row.split(",")[:3]) for row in rows[1:]]
        assert triples == sorted(triples)  # lexicographic (n, k, m)
        assert triples[0] == (3, 1, 2)
        assert triples[-1] == (4, 3, 3)

    def test_invalid_points_skipped_with_note(self, caplog):
        spec = GridSpec(n_range=(3, 4), k_range=(1, 3), m_range=(2, 2))
        with caplog.at_level(logging.WARNING, logger="stiefelq.report"):
            rows = list(generate_table(spec))
        assert len(rows) == 1 + 5  # (3,3,2) is invalid and dropped
        assert any("skipping grid point" in rec.getMessage() for rec in caplog.records)

    def test_serial_rows_stream_from_the_grid(self, monkeypatch):
        # each grid point is validated once, as it is reached: the first row
        # of a 352k-point serial table needs one call, not one per point
        calls = []

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(report, "validate", counted)
        spec = GridSpec(n_range=(3, 60), k_range=None, m_range=(2, 200))
        rows = generate_table(spec)
        assert next(rows) == CSV_HEADER.encode()
        assert next(rows).startswith(b"3,1,2,")
        assert len(calls) <= 3
        rows.close()

    def test_parallel_output_identical(self):
        spec1 = GridSpec(n_range=(3, 6), k_range=None, m_range=(2, 5))
        spec2 = GridSpec(n_range=(3, 6), k_range=None, m_range=(2, 5), jobs=3)
        assert render_table(spec1) == render_table(spec2)

    def test_pooled_rows_stream_from_the_grid(self, monkeypatch, inline_pool):
        # the pool path walks the grid lazily too, and computes chunk 0
        # itself: the first row of a 352k-point table waits for chunk 0's 64
        # grid points and no pool; the pool starts when the next row is asked
        # for, and takes two worker chunks of 128 per worker
        calls = []

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(report, "validate", counted)
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        spec = GridSpec(n_range=(3, 60), k_range=None, m_range=(2, 200), jobs=2)
        rows = generate_table(spec)
        assert next(rows) == CSV_HEADER.encode()
        assert next(rows).startswith(b"3,1,2,")
        assert inline_pool["started"] == []
        assert report._FIRST_ROWS == 64 and report._CHUNK_ROWS == 128
        assert len(calls) <= report._FIRST_ROWS + 1
        assert next(rows).startswith(b"3,1,3,")
        assert inline_pool["started"] == [2]
        assert len(calls) <= report._FIRST_ROWS + 2 * 2 * report._CHUNK_ROWS + 1
        rows.close()

    def test_worker_count_is_bounded(self, monkeypatch, inline_pool):
        monkeypatch.setattr(report, "_usable_cpus", lambda: 4)
        # 5 k values per m over n 3..4: 1300 rows fill chunk 0 and 10
        # worker chunks of 128
        wide = GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 261))
        serial = render_table(wide)
        triples = [tuple(map(int, row.split(b",")[:3])) for row in serial.splitlines()[1:]]
        assert len(triples) == 1300 and triples == sorted(triples)
        for spec, jobs, workers in [
            (wide, 10**9, 4),  # CPU count bounds
            (wide, 3, 3),  # jobs bounds
            # 195 rows: chunk 0 and two worker chunks, which bound
            (replace(wide, m_range=(2, 40)), 10**9, 2),
        ]:
            inline_pool.update(started=[], peak=0)
            table = render_table(replace(spec, jobs=jobs))
            assert inline_pool["started"] == [workers]
            assert inline_pool["peak"] <= 2 * workers
            assert inline_pool["outstanding"] == 0
            if spec is wide:
                assert table == serial
                assert inline_pool["peak"] == 2 * workers  # the window fills
        # fewer than two worker chunks: rows are computed in-process
        for m_range in [(2, 3), (2, 14), (2, 39)]:  # 10 rows, 65 rows, 190 rows
            inline_pool.update(started=[])
            few = GridSpec(n_range=(3, 4), k_range=None, m_range=m_range, jobs=10**9)
            assert render_table(few) == render_table(replace(few, jobs=1))
            assert inline_pool["started"] == []
        # one usable CPU: rows are computed in-process
        monkeypatch.setattr(report, "_usable_cpus", lambda: 1)
        assert render_table(replace(wide, jobs=10**9)) == serial
        assert inline_pool["started"] == []

    @pytest.mark.parametrize("affinity", [True, False])
    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch, inline_pool, affinity):
        # a process pinned to one CPU of eight computes its rows in-process
        monkeypatch.setattr(report.os, "cpu_count", lambda: 8)
        if affinity:
            monkeypatch.setattr(report.os, "sched_getaffinity", lambda pid: {3}, raising=False)
            assert report._usable_cpus() == 1
        else:
            # no affinity call on this platform: the CPU count bounds
            monkeypatch.delattr(report.os, "sched_getaffinity", raising=False)
            assert report._usable_cpus() == 8
            monkeypatch.setattr(report.os, "cpu_count", lambda: None)
            assert report._usable_cpus() == 1
        spec = GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 261), jobs=64)
        assert render_table(spec) == render_table(replace(spec, jobs=1))
        assert inline_pool["started"] == []

    def test_first_row_starts_no_pool_in_a_fresh_interpreter(self):
        # the header and first data row of a pooled table: nothing may have
        # loaded the pool; the third row must have started it
        script = (
            "import sys\n"
            "from stiefelq import report\n"
            "report._usable_cpus = lambda: 2\n"
            "spec = report.GridSpec(n_range=(3, 60), k_range=None, m_range=(2, 200), jobs=2)\n"
            "rows = report.generate_table(spec)\n"
            "sys.stdout.buffer.write(next(rows) + b'\\n' + next(rows) + b'\\n')\n"
            "bad = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
            "assert not bad, bad\n"
            "next(rows)\n"
            "assert 'concurrent.futures' in sys.modules\n"
            "rows.close()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        serial = generate_table(GridSpec(n_range=(3, 3), k_range=(1, 1), m_range=(2, 2)))
        assert proc.stdout == b"".join(row + b"\n" for row in serial)

    def test_json_rows_parse(self):
        spec = GridSpec(n_range=(3, 3), k_range=None, m_range=(2, 3), fmt="json")
        rows = list(generate_table(spec))
        assert len(rows) == 4
        for row in rows:
            report = report_from_json(row)
            assert report.params.n == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("primes", [None, (2, 3, 17)])  # 17 divides no m
    def test_json_rows_sharing_entries_match_the_compact_dump(
        self, monkeypatch, inline_pool, jobs, primes
    ):
        # runs of 14 rows per (n, k), k = 1 among them, straddle the 64-row
        # chunks; within a run p = 2 meets COPRIME (odd m), TWO_MOD_FOUR and
        # ZERO_MOD_FOUR
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        spec = GridSpec(n_range=(3, 6), k_range=None, m_range=(2, 15), primes=primes,
                        fmt="json", jobs=jobs)
        rows = list(generate_table(spec))
        assert inline_pool["started"] == ([2] if jobs == 2 else [])
        points = list(report._grid_points(spec))
        assert len(rows) == len(points) == 14 * 14
        cases, shapes = set(), set()
        for row, params in zip(rows, points):
            rep = compute_report(params, primes)
            assert row == json.dumps(report_to_dict(rep), separators=(",", ":")).encode()
            cases.update((e.p, e.presentation.case.value) for e in rep.cohomology)
            shapes.add((bool(rep.notes), bool(rep.char_classes.stiefel_whitney), params.m % 4))
        assert {"COPRIME", "TWO_MOD_FOUR", "ZERO_MOD_FOUR", "ODD_DIVIDES"} == {c for _, c in cases}
        assert ((17, "COPRIME") in cases) == (primes is not None)
        # k = 1 rows carry the notes; m = 2 (mod 4) rows Stiefel-Whitney terms
        assert {(True, True, 2), (False, True, 2), (True, False, 1), (False, False, 3)} <= shapes
        assert not any(sw for _, sw, m4 in shapes if m4 != 2)

    @given(spec=_pooled_grids())
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pooled_json_rows_match_serial_rows_and_the_compact_dump(
        self, monkeypatch, inline_pool, spec
    ):
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        points = list(report._grid_points(spec))
        runs = [(q.n, q.k) for q in points]
        cuts = range(report._FIRST_ROWS, len(points), report._CHUNK_ROWS)
        assume(any(runs[i - 1] == runs[i] for i in cuts))
        inline_pool.update(started=[])
        pooled = list(generate_table(spec))
        assert inline_pool["started"] == [2]
        assert pooled == list(generate_table(replace(spec, jobs=1)))
        assert len(pooled) == len(points)
        for row, params in zip(pooled, points):
            rep = compute_report(params, spec.primes)
            assert row == json.dumps(report_to_dict(rep), separators=(",", ":")).encode()

    @given(spec=_pooled_grids("csv"))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pooled_csv_rows_match_serial_rows_and_the_report_row(
        self, monkeypatch, inline_pool, spec
    ):
        # CSV rows go through the chunks' shared primes too: at jobs 1 and
        # pooled, each equals the row of the full report
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        points = list(report._grid_points(spec))
        runs = [(q.n, q.k) for q in points]
        cuts = range(report._FIRST_ROWS, len(points), report._CHUNK_ROWS)
        assume(any(runs[i - 1] == runs[i] for i in cuts))
        inline_pool.update(started=[])
        pooled = list(generate_table(spec))
        assert inline_pool["started"] == [2]
        serial = list(generate_table(replace(spec, jobs=1)))
        assert pooled[0] == serial[0] == CSV_HEADER.encode()
        assert len(pooled) == len(serial) == 1 + len(points)
        for pooled_row, serial_row, params in zip(pooled[1:], serial[1:], points):
            expected = render(compute_report(params, spec.primes), "csv_row")
            assert pooled_row == serial_row == expected

    def test_proven_primes_are_not_tested_again(self, monkeypatch, inline_pool):
        # default_primes and _check_primes prove the primes; presentations
        # built for reports and table rows take them as proven
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        calls = []
        monkeypatch.setattr(modp, "is_prime", lambda p: calls.append(p) or is_prime(p))
        compute_report(validate(15, 7, 60))
        compute_report(validate(9, 4, 6), (2, 3, 5))
        for fmt in ("json", "csv"):
            for jobs in (1, 2):
                spec = GridSpec(n_range=(3, 9), k_range=None, m_range=(2, 12), fmt=fmt, jobs=jobs)
                assert len(list(generate_table(spec))) == 35 * 11 + (fmt == "csv")
        assert inline_pool["started"] == [2, 2]
        assert calls == []
        modp.presentation(validate(15, 7, 12), 3)
        assert calls == [3]

    def test_json_row_escapes_notes_and_provenance(self, monkeypatch):
        params = validate(6, 1, 10)
        rep = compute_report(params)
        odd = ('quote " backslash \\ nul \0 e-acute \u00e9', "\u00e9\\\"\0")
        edited = replace(rep, notes=odd, span=replace(rep.span, provenance=odd + rep.span.provenance))
        # the row path, with the report's other layers standing in for edited's
        monkeypatch.setattr(report, "_compute_report", lambda p, cohomology: replace(
            edited, cohomology=cohomology))
        row = next(report._chunk_rows([params], None, "json"))
        assert row == json.dumps(report_to_dict(edited), separators=(",", ":")).encode()
        assert rb'\u00e9' in row and rb'\"' in row and rb"\\" in row and rb"\u0000" in row

    def test_json_rows_build_each_entry_once_per_n_k(self, monkeypatch):
        # two (n, k) runs of 99 rows: chunk 0 holds (9, 3) alone, worker
        # chunk 1 the end of (9, 3) and most of (9, 4), chunk 2 the rest
        built, factored = [], []

        def counted(params, p):
            pres = presentation(params, p)
            built.append((params.n, params.k, p, pres.case))
            return pres

        presentation = report._presentation
        monkeypatch.setattr(report, "_presentation", counted)
        monkeypatch.setattr(report, "default_primes", lambda m: factored.append(m) or default_primes(m))
        spec = GridSpec(n_range=(9, 9), k_range=(3, 4), m_range=(2, 100), fmt="json")
        points = list(report._grid_points(spec))
        assert len(list(generate_table(spec))) == len(points) == 198
        wanted, ms = [], []
        for chunk in _chunks(points):
            wanted += {(q.n, q.k, p, modp.classify(q.m, p)) for q in chunk for p in default_primes(q.m)}
            ms += {q.m for q in chunk}
        assert len(ms) == 64 + 99 + 6
        assert sorted(built, key=str) == sorted(wanted, key=str)
        # the primes of each m are looked up once per chunk
        assert sorted(factored) == sorted(ms)
        # CSV rows print no cohomology and share only the primes
        built.clear()
        factored.clear()
        list(generate_table(replace(spec, fmt="csv")))
        assert len(built) == sum(len(default_primes(q.m)) for q in points)
        assert sorted(factored) == sorted(ms)

    def test_rows_share_texts_within_one_n_k(self, monkeypatch):
        # a chunk's rows of one (n, k) share their entry and list texts and
        # their term heads; the next (n, k) starts afresh
        seen, heads = [], []

        def recorded(params, primes, texts, lists):
            out = cohomology_texts(params, primes, texts, lists)
            seen.append((texts, lists, out))
            return out

        cohomology_texts, term_heads = report._cohomology_texts, report._term_heads
        monkeypatch.setattr(report, "_cohomology_texts", recorded)
        monkeypatch.setattr(report, "_term_heads",
                            lambda terms, layout: heads.append(len(terms)) or term_heads(terms, layout))
        points = [validate(7, 3, 6), validate(7, 3, 12), validate(7, 4, 6)]
        rows = list(report._chunk_rows(points, None, "json"))
        (texts, lists, first), (texts12, lists12, second), (texts4, lists4, _) = seen
        assert texts12 is texts and lists12 is lists
        assert second[1] is first[1]  # p = 3
        # three entries, two lists: h = 5 for both cases of p = 2, h = 6 for p = 3
        assert len(texts) == 3 and set(lists) == {5, 6}
        # (7, 4) writes its own texts and term heads (three terms each)
        assert texts4 is not texts and lists4 is not lists and heads == [3, 3]
        assert set(texts4) == {(2, "TWO_MOD_FOUR"), (3, "ODD_DIVIDES")}
        # C(7, 4) is nonzero mod 2 and mod 3: both entries print the list of h = 4
        assert set(lists4) == {4}
        assert all(f'"poincare":[{lists4[4]}]' in text for text in texts4.values())
        for row, params in zip(rows, points):
            expected = json.dumps(report_to_dict(compute_report(params)), separators=(",", ":"))
            assert row == expected.encode()

    def test_json_rows_expand_each_poincare_list_once_per_h(self, monkeypatch):
        # a Poincare list of one (n, k) depends on its truncation exponent h
        # alone, so each chunk of rows expands one list per h it meets, not
        # one per (p, case)
        n, k = 30, 10
        rows, passed = [], []

        def counted(presentations, n, k):
            after = len(rows) - report._FIRST_ROWS  # rows after chunk 0
            passed.append((0 if after < 0 else 1 + after // report._CHUNK_ROWS, presentations))
            return poincare_polynomials(presentations, n, k)

        poincare_polynomials = report._poincare_polynomials
        monkeypatch.setattr(report, "_poincare_polynomials", counted)
        spec = GridSpec(n_range=(n, n), k_range=(k, k), m_range=(2, 401), fmt="json")
        for row in generate_table(spec):
            rows.append(row)
        assert len(rows) == 400
        for chunk, ms in enumerate(_chunks(list(range(2, 402)))):
            keys = {(p, modp.classify(m, p)) for m in ms for p in default_primes(m)}
            hs = {None if case is modp.CohomologyCase.COPRIME else modp.truncation_exponent(n, k, p)
                  for p, case in keys}
            got = [pres.deg2_truncation for c, ps in passed if c == chunk for pres in ps]
            assert sorted(got, key=str) == sorted(hs, key=str)
            assert len(keys) > 2 * len(hs)
        for row, m in zip(rows, range(2, 402)):
            assert row == json.dumps(report_to_dict(compute_report(validate(n, k, m))),
                                     separators=(",", ":")).encode()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_texts_hold_at_most_one_chunk_of_rows(self, monkeypatch, inline_pool, jobs):
        # one (n, k) over a long m range: each new prime factor of m adds a
        # key, so texts kept for the whole run would hold one per prime
        # below the top of the range
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        seen, factored = [], []

        def recorded(params, primes, texts, lists):
            out = cohomology_texts(params, primes, texts, lists)
            seen.append((texts, params.m, len(texts)))
            return out

        cohomology_texts = report._cohomology_texts
        monkeypatch.setattr(report, "_cohomology_texts", recorded)
        monkeypatch.setattr(report, "default_primes", lambda m: factored.append(m) or default_primes(m))
        spec = GridSpec(n_range=(5, 5), k_range=(2, 2), m_range=(2, 400), fmt="json", jobs=jobs)
        assert len(list(generate_table(spec))) == 399
        assert inline_pool["started"] == ([2] if jobs == 2 else [])
        # the inline pool computes the window before the rest of chunk 0:
        # take the rows in grid order, which is m order here
        seen.sort(key=lambda s: s[1])
        assert [m for _, m, _ in seen] == list(range(2, 401))
        # one m per row here, so each chunk factors each m once
        assert sorted(factored) == list(range(2, 401))
        # chunk 0, of 64 rows, and worker chunks of 128, 128 and 79 rows
        assert len({id(texts) for texts, _, _ in seen}) == 4
        sizes = []
        for chunk in _chunks(seen):
            assert all(texts is chunk[0][0] for texts, _, _ in chunk)
            keys = {(p, modp.classify(m, p)) for _, m, _ in chunk for p in default_primes(m)}
            sizes.append(max(size for _, _, size in chunk))
            assert sizes[-1] == len(keys)
        # against 80 for the whole run: 2's three cases and 77 odd primes
        assert sizes == [20, 46, 61, 52]
        assert len({(p, modp.classify(m, p)) for m in range(2, 401) for p in default_primes(m)}) == 80

    def test_empty_ranges_rejected(self):
        with pytest.raises(ParameterError):
            GridSpec(n_range=(4, 3), k_range=None, m_range=(2, 2))
        with pytest.raises(ParameterError):
            GridSpec(n_range=(3, 4), k_range=None, m_range=(5, 2))
        with pytest.raises(ParameterError):
            GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 2), jobs=0)
        with pytest.raises(ParameterError):
            GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 2), fmt="xml")

    @pytest.mark.parametrize(
        "primes,reason",
        [
            ((2, 4), "primes-not-prime"),
            ((), "primes-empty"),
            ((2.0,), "primes-not-int"),
            pytest.param(7, "primes-not-int", id="scalar-primes"),  # bare TypeError
        ],
    )
    def test_bad_primes_rejected_up_front(self, primes, reason):
        with pytest.raises(ParameterError) as exc:
            GridSpec(n_range=(3, 4), k_range=None, m_range=(2, 2), primes=primes)
        assert exc.value.reason == reason

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"jobs": 2.5}, "jobs-not-int"),  # islice(chunks, 5.0): ValueError
            ({"jobs": "2"}, "jobs-not-int"),  # min("2", 4): TypeError
            ({"jobs": True}, "jobs-not-int"),
            ({"n_range": (3, 5.0)}, "n-not-int"),  # range(3, 6.0): TypeError
            ({"k_range": (1, "2")}, "k-not-int"),
            ({"m_range": (False, 3)}, "m-not-int"),
        ],
    )
    def test_non_int_bounds_and_jobs_rejected(self, monkeypatch, inline_pool, changes, reason):
        # four usable CPUs, so that jobs = 2.5 reaches the pool path
        monkeypatch.setattr(report, "_usable_cpus", lambda: 4)
        kwargs = {"n_range": (3, 5), "k_range": None, "m_range": (2, 40), "jobs": 2, **changes}
        with pytest.raises(ParameterError) as exc:
            list(generate_table(GridSpec(**kwargs)))
        assert exc.value.reason == reason
        assert inline_pool["started"] == []

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"n_range": (3,)}, "n-range-not-pair"),  # rng[1]: IndexError
            ({"n_range": (3, 4, 5)}, "n-range-not-pair"),  # 5 was ignored
            ({"k_range": (1,)}, "k-range-not-pair"),
            ({"m_range": (2, 3, 4)}, "m-range-not-pair"),
            ({"m_range": ()}, "m-range-not-pair"),
            # len(3): a bare TypeError
            pytest.param({"n_range": 3}, "n-range-not-pair", id="scalar-n-range"),
            pytest.param({"k_range": 5}, "k-range-not-pair", id="scalar-k-range"),
        ],
    )
    def test_ranges_must_be_pairs(self, changes, reason):
        kwargs = {"n_range": (3, 5), "k_range": None, "m_range": (2, 4), **changes}
        with pytest.raises(ParameterError) as exc:
            GridSpec(**kwargs)
        assert exc.value.reason == reason

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_primes_are_checked_once_per_table(self, monkeypatch, inline_pool, jobs):
        # GridSpec checks --primes and keeps them sorted; rows take them as
        # checked and never prove them again
        monkeypatch.setattr(report, "_usable_cpus", lambda: 4)
        calls = []
        check = report._check_primes
        monkeypatch.setattr(report, "_check_primes", lambda ps: calls.append(ps) or check(ps))
        spec = GridSpec(n_range=(3, 9), k_range=None, m_range=(2, 40), primes=(5, 2, 5, 3),
                        fmt="json", jobs=jobs)
        assert spec.primes == (2, 3, 5)
        rows = list(generate_table(spec))
        assert calls == [(5, 2, 5, 3)]
        assert inline_pool["started"] == ([2] if jobs == 2 else [])
        points = list(report._grid_points(spec))
        assert len(rows) == len(points) == 1365
        for row, params in zip(rows, points):
            assert json.loads(row) == report_to_dict(compute_report(params, (3, 5, 2)))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the patched report function",
    )
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # n 3..200 at k = 1 is chunk 0 (n 3..66) and two worker chunks after
        # it; the rows for n >= 100 fail, and only a real worker computes them
        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        compute = report._compute_report

        def failing(params, cohomology):
            if params.n >= 100:
                raise ParameterError("too-large", f"n={params.n} in process {os.getpid()}")
            return compute(params, cohomology)

        monkeypatch.setattr(report, "_compute_report", failing)
        rows = []
        with pytest.raises(ParameterError) as exc:
            rows.extend(generate_table(GridSpec(n_range=(3, 200), k_range=(1, 1),
                                                m_range=(2, 2), jobs=2)))
        assert exc.value.reason == "too-large"
        n, pid = re.fullmatch(r"n=(\d+) in process (\d+)", str(exc.value)).groups()
        assert int(n) == 100 and int(pid) != os.getpid()
        # the header and chunk 0 reach the caller; no row of the worker chunk
        # of n 67..194 does, since rows come back a chunk at a time
        assert len(rows) == 1 + report._FIRST_ROWS
        assert rows[-1].startswith(b"66,1,2,")


class TestCli:
    def test_compute_json(self, capsys):
        assert main(["compute", "--n", "4", "--k", "2", "--m", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["torsion"] == {"orders": [2, 2, 2, 1], "height": 3}

    @pytest.mark.parametrize(
        "n, k, m, primes",
        [
            (4, 2, 2, None),
            (70, 66, 6, None),  # k > 64: slots wider than 8 bytes
            (41, 20, 6 * 1000000000039, "2,3,1000000000039"),
        ],
    )
    def test_compute_json_writes_the_rendered_bytes(self, capsysbinary, n, k, m, primes):
        # the CLI writes the dossier's pieces one by one, never the joined bytes
        argv = ["compute", "--n", str(n), "--k", str(k), "--m", str(m), "--format", "json"]
        assert main(argv + (["--primes", primes] if primes else [])) == 0
        parsed = None if primes is None else tuple(map(int, primes.split(",")))
        expected = render(compute_report(validate(n, k, m), parsed), "json")
        assert capsysbinary.readouterr().out == expected

    def test_compute_text_default(self, capsys):
        assert main(["compute", "--n", "4", "--k", "2", "--m", "2"]) == 0
        assert "frame quotient n=4 k=2 m=2" in capsys.readouterr().out

    @given(
        st.integers(2, 24).flatmap(lambda n: st.tuples(
            st.just(n),
            st.one_of(st.just(1), st.integers(1, n - 1)),
            st.integers(2, 120),
            st.one_of(st.none(), st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1)),
        ))
    )
    @example((9, 1, 12, None))  # k = 1 prints notes
    @example((9, 1, 12, [5, 2, 7]))  # COPRIME at 5 and 7
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_compute_text_equals_the_full_report_render(self, capsysbinary, point):
        # the text route builds no Poincare list; the full report's text
        # render is its oracle
        n, k, m, primes = point
        argv = ["compute", "--n", str(n), "--k", str(k), "--m", str(m), "--format", "text"]
        if primes is not None:
            argv += ["--primes", ",".join(map(str, primes))]
        assert main(argv) == 0
        expected = render(compute_report(validate(n, k, m), primes), "text")
        assert capsysbinary.readouterr().out == expected

    @pytest.mark.parametrize("n, k, m", [(140, 93, 30), (300, 150, 60)])
    def test_compute_text_expands_no_poincare_list(self, monkeypatch, capsysbinary, n, k, m):
        expected = render(compute_report(validate(n, k, m)), "text")

        def refused(*args):
            raise AssertionError("a text dossier expanded a Poincare list")

        monkeypatch.setattr(report, "_poincare_polynomials", refused)
        assert main(["compute", "--n", str(n), "--k", str(k), "--m", str(m)]) == 0
        assert capsysbinary.readouterr().out == expected

    def test_invalid_params_exit_2(self, capsys):
        assert main(["compute", "--n", "4", "--k", "4", "--m", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_primes_exit_2(self, capsys):
        assert main(["compute", "--n", "4", "--k", "2", "--m", "2", "--primes", "6"]) == 2

    @pytest.mark.parametrize(
        "exc, line", [(MemoryError(), "MemoryError"), (RuntimeError("disk on fire"), "disk on fire")]
    )
    def test_internal_error_names_what_failed(self, monkeypatch, capsys, exc, line):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_compute", failing)
        assert main(["compute", "--n", "4", "--k", "2", "--m", "2"]) == 1
        assert capsys.readouterr().err == f"internal error: {line}\n"

    def test_compute_past_the_interpreter_digit_cap(self, capsys):
        # Pontrjagin coefficients of n = 8808, k = 2 pass 4300 decimal digits,
        # the default int <-> str cap
        argv = ["compute", "--n", "8808", "--k", "2", "--m", "6"]
        assert main(argv) == 0
        assert "Pontrjagin j=4404: coefficient " in capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        computed = compute_report(validate(8808, 2, 6))
        assert report.report_from_dict(data) == computed
        terms = computed.char_classes.pontrjagin
        strings = [t["raw_coefficient"] for t in data["char_classes"]["pontrjagin"]]
        assert len(strings[-1]) > 4300
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            for i in [*range(0, len(terms), 97), len(terms) - 1]:
                assert strings[i] == str(terms[i].raw_coefficient)
        finally:
            sys.set_int_max_str_digits(old)

    def test_span_subcommand(self, capsys):
        assert main(["span", "--n", "4", "--k", "2", "--m", "2", "--ext-span", "13"]) == 0
        out = capsys.readouterr().out
        assert "span lower bound:        9" in out
        assert "stable span lower bound: 9" in out

    def test_span_ext_requires_m2(self, capsys):
        assert main(["span", "--n", "4", "--k", "2", "--m", "3", "--ext-span", "13"]) == 2

    def test_table_to_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["table", "--n", "3..4", "--m", "2..3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11

    def test_table_stdout_json(self, capsys):
        assert main(["table", "--n", "3..3", "--k", "auto", "--m", "2..2",
                     "--format", "json"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        json.loads(rows[0])

    def test_table_empty_range_exit_2(self, capsys):
        assert main(["table", "--n", "4..3", "--m", "2..2"]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_table_bad_primes_exit_2_before_any_output(self, jobs, capsys):
        argv = ["table", "--n", "3..30", "--m", "2..30", "--primes", "4", "--jobs", jobs]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().endswith("[primes-not-prime]")

    @pytest.mark.parametrize("grid", [["--n", "4..4"], ["--n", "3..200", "--k", "1..1"]])
    def test_pooled_table_too_large_m_exits_2(self, grid):
        # 2^89 - 1 is prime but beyond what is_prime can prove.  Every (n, k)
        # run holds every m, so a bad m is met in chunk 0, which the parent
        # computes before any pool starts: the error is raised at row 1 even
        # where n 3..200 at k = 1 fills four chunks.  An error raised in a
        # worker is test_worker_error_reaches_the_caller's
        m = str(2**89 - 1)
        argv = ["table", *grid, "--m", f"{m}..{m}", "--jobs", "2"]
        proc = subprocess.run([sys.executable, "-m", "stiefelq", *argv],
                              capture_output=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.strip().endswith(b"[too-large]")
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt, first", [("csv", b"h\nr1\n"), ("json", b"r1\n")])
    def test_table_flushes_the_first_data_row(self, monkeypatch, tmp_path, fmt, first):
        # the row after the first data row may start a pool: the first data
        # row is written out before the CLI asks for it
        out = tmp_path / "grid"
        seen = []

        def rows(spec):
            yield from [b"h", b"r1"] if fmt == "csv" else [b"r1"]
            seen.append(out.read_bytes())
            yield b"r2"

        monkeypatch.setattr(cli, "generate_table", rows)
        argv = ["table", "--n", "3..3", "--m", "2..2", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        assert seen == [first]
        assert out.read_bytes() == first + b"r2\n"

    def test_jobs_env(self, capsys, monkeypatch):
        monkeypatch.setenv("STIEFEL_JOBS", "2")
        assert main(["table", "--n", "3..3", "--m", "2..3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_table_into_closed_pipe_exits_quietly(self, jobs):
        # `stiefelq table ... | head -1`: the output (~440 kB) overflows the
        # pipe, so the table is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "stiefelq", "table", "--n", "3..30",
             "--m", "2..30", "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == CSV_HEADER.encode() + b"\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0
        assert err == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["span", "--n", "140", "--k", "70", "--m", "30"],
            ["compute", "--n", "12", "--k", "5", "--m", "6", "--format", "json"],
        ],
        ids=["span", "compute-json"],
    )
    def test_command_into_closed_pipe_exits_quietly(self, argv):
        # `stiefelq ... | true`: the read end is closed before the command
        # starts, so its first write fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "stiefelq", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    @pytest.mark.parametrize("target", ["missing/grid.csv", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_exits_2_before_any_row(self, tmp_path, monkeypatch, capsys, target):
        def no_rows(spec):
            raise AssertionError("rows computed before --out was opened")

        monkeypatch.setattr(cli, "generate_table", no_rows)
        path = str(tmp_path / target)
        assert main(["table", "--n", "3..4", "--m", "2..3", "--out", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path!r}: ")
        assert err.strip().endswith("[out-unwritable]")
        assert "internal error" not in err

    @pytest.mark.parametrize("extra", [[], ["--primes", "2305843009213693951"]])
    def test_compute_with_prime_2_61_minus_1_is_quick(self, extra):
        # trial division used to spend minutes on m = 2^61 - 1 (a prime)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stiefelq", "compute", "--n", "4", "--k", "2",
             "--m", "2305843009213693951", *extra],
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 2
        assert b"frame quotient n=4 k=2 m=2305843009213693951" in proc.stdout

    def test_unprovable_prime_exits_2(self):
        # 2^89 - 1 is prime but above psi_13, where the primality test is no proof
        m = str(2**89 - 1)
        for args in (["--m", m], ["--m", "2", "--primes", m]):
            proc = subprocess.run(
                [sys.executable, "-m", "stiefelq", "compute", "--n", "4", "--k", "2", *args],
                capture_output=True, timeout=60,
            )
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert b"too-large" in proc.stderr
            assert b"Traceback" not in proc.stderr

    def test_span_never_factors_m(self, capsys):
        assert main(["span", "--n", "4", "--k", "2", "--m", str(2**89 - 1)]) == 0
        assert "span lower bound:" in capsys.readouterr().out

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_zero_jobs_exit_2(self, capsys, monkeypatch, how):
        argv = ["table", "--n", "3..3", "--m", "2..2"]
        if how == "flag":
            argv += ["--jobs", "0"]
        else:
            monkeypatch.setenv("STIEFEL_JOBS", "0")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "[jobs-too-small]" in err
        assert "Traceback" not in err

    def test_bad_jobs_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("STIEFEL_JOBS", "many")
        assert main(["table", "--n", "3..3", "--m", "2..2"]) == 2


def _instances(obj):
    """Every dataclass instance inside ``obj``, ``obj`` included."""
    if dataclasses.is_dataclass(obj):
        yield obj
        for f in dataclasses.fields(obj):
            yield from _instances(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _instances(item)


class TestRecords:
    # m = 6 gives Stiefel-Whitney terms and a polynomial generator for
    # both primes, so the report holds an instance of every record class
    SAMPLES = {type(x): x for x in _instances(compute_report(validate(6, 3, 6)))}

    def test_walk_finds_every_record_class(self):
        assert set(_record_classes()) == set(self.SAMPLES)
        assert len(self.SAMPLES) == 11

    @pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
    def test_record_semantics(self, cls):
        obj = self.SAMPLES[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        values = [getattr(obj, name) for name in names]
        kwargs = dict(zip(names, values))
        assert dataclasses.is_dataclass(cls)
        assert list(inspect.signature(cls).parameters) == names
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(**kwargs, unknown=1)
        for name in (names[0], "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, values[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert replace(obj) == obj
        assert replace(obj, **{names[-1]: values[-1]}) == obj
        for twin in (cls(*values), cls(**kwargs), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is cls
            assert twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)
            assert vars(twin) == kwargs

    @pytest.mark.parametrize("build", [lambda: validate(3, 3, 2), lambda: ManifoldParams(3, 3, 2),
                                       lambda: replace(validate(4, 3, 2), n=3)],
                             ids=["validate", "positional", "replace"])
    def test_post_init_still_validates(self, build):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.reason == "k-not-below-n"

    @pytest.mark.parametrize(
        "default", [0, dataclasses.field(default_factory=list)], ids=["default", "default_factory"]
    )
    def test_defaulted_field_is_refused(self, default):
        with pytest.raises(TypeError, match=r"Probe: .* no default"):
            _record(type("Probe", (), {"__annotations__": {"x": "int"}, "x": default}))

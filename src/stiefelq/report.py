"""Report assembly, deterministic serialization, and grid tables.

Identical inputs give byte-identical output in every format, independent of
parallelism.  JSON uses a fixed key order and carries a ``schema_version``;
integers that can grow without bound (the raw characteristic-class
coefficients) are serialized as decimal strings so consumers never lose
precision to floating point.
"""

from __future__ import annotations

import json
import logging
import os
import reprlib
import sys
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, is_dataclass
from enum import EnumMeta
from functools import cache
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

from stiefelq.arith import _decimal_to_int, _int_to_decimal, factorize, is_prime
from stiefelq.charclass import CharClassReport, PontrjaginTerm, _char_class_report
from stiefelq.manifold import (
    BasicInvariants,
    ManifoldParams,
    ParameterError,
    _check_int,
    _record,
    basic_invariants,
    validate,
)
from stiefelq.modp import (
    RingPresentation,
    _case,
    _poincare_polynomials,
    _presentation,
    total_dimension,
)
from stiefelq.span import SpanReport, span_report
from stiefelq.torsion import TorsionProfile, torsion_profile

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
    "CohomologyEntry",
    "InvariantReport",
    "GridSpec",
    "default_primes",
    "compute_report",
    "render",
    "report_from_json",
    "generate_table",
    "render_table",
]

SCHEMA_VERSION = 1
CSV_HEADER = "n,k,m,dim,height,span_lower,span_upper,stably_parallelizable,parallelizable"

log = logging.getLogger(__name__)

# JSON of a bool
_BOOLS = {True: "true", False: "false"}

# Rows a pool worker takes at once: an early stop waits for at most one
# chunk per worker.  Chunk 0, which a pooled table computes in-process while
# its pool starts, is half as long.  At 128 rows the ``table_json_j2``
# benchmark (12 alternating 20 s pairs, 2 CPUs, Python 3.11) read the same
# first row and 1.3% fewer rows/s, both within the spread of the 64-row
# runs, and 1.0% more peak RSS, higher in 10 pairs and by more than it.
_CHUNK_ROWS = 128
_FIRST_ROWS = _CHUNK_ROWS // 2


@_record
class CohomologyEntry:
    p: int
    presentation: RingPresentation
    poincare: tuple[int, ...]
    total_dimension: int


@_record
class InvariantReport:
    params: ManifoldParams
    basic: BasicInvariants
    torsion: TorsionProfile
    cohomology: tuple[CohomologyEntry, ...]
    char_classes: CharClassReport
    span: SpanReport
    notes: tuple[str, ...]


def default_primes(m: int) -> tuple[int, ...]:
    """The primes dividing m, plus 2 (2 always sees the orientation double
    cover and the Stiefel-Whitney side).  Raises ``ParameterError`` with
    reason ``too-large`` when ``factorize`` cannot factor m exactly, and
    ``m-too-small`` for m < 1."""
    _check_int(m, "m")
    if m < 1:
        raise ParameterError("m-too-small", f"m must be >= 1, got {m}")
    return tuple(sorted({p for p, _ in factorize(m)} | {2}))


def _check_primes(primes: Iterable[int]) -> tuple[int, ...]:
    # is_prime raises ``too-large`` for a probable prime it cannot prove
    try:
        primes = tuple(primes)
    except TypeError:
        raise ParameterError(
            "primes-not-int", f"primes must be a collection of ints, got {type(primes).__name__} {primes!r}"
        ) from None
    if not primes:
        raise ParameterError("primes-empty", "the prime list must be nonempty")
    for p in primes:
        # exactly an int: 3.0 would be written as "p": 3.0, which the
        # loader refuses, and True would pass as 1
        if type(p) is not int:
            raise ParameterError(
                "primes-not-int", f"primes must be ints, got {type(p).__name__} {p!r}"
            )
        if p < 2 or not is_prime(p):
            raise ParameterError("primes-not-prime", f"{p} is not a prime")
    return tuple(sorted(set(primes)))


def compute_report(
    params: ManifoldParams, primes: Sequence[int] | None = None
) -> InvariantReport:
    """Everything the library knows about one (n, k, m), for the given primes
    (default: the primes dividing m, plus 2).  Presentations are listed with
    p ascending.  Each layer runs once: the torsion profile feeds the char
    classes, and those feed the span verdicts."""
    return _compute_report(params, _cohomology(params, _report_primes(params, primes)))


def _report_primes(params: ManifoldParams, primes: Sequence[int] | None) -> tuple[int, ...]:
    """The primes of a report of ``params``: ``primes`` checked, or the
    default ones of m."""
    return default_primes(params.m) if primes is None else _check_primes(primes)


def _cohomology(params: ManifoldParams, primes: tuple[int, ...]) -> tuple[CohomologyEntry, ...]:
    """The cohomology entries of a report, p ascending, from one Poincare
    expansion.  ``primes`` are proven already, by ``default_primes`` or
    ``_check_primes``."""
    presentations = [_presentation(params, p) for p in primes]
    polys = _poincare_polynomials(presentations, params.n, params.k)
    return tuple(
        CohomologyEntry(
            p=pres.p,
            presentation=pres,
            poincare=coeffs,
            total_dimension=total_dimension(pres, params.k),
        )
        for pres, coeffs in zip(presentations, polys)
    )


def _cohomology_texts(
    params: ManifoldParams,
    primes: tuple[int, ...],
    texts: dict[tuple[int, str], str],
    lists: dict[int | None, str],
) -> list[str]:
    """``_cohomology`` as the entries' compact JSON texts, sharing those of
    the rows before it of its (n, k): ``texts`` holds entry texts by (p, case
    value), and ``lists`` Poincare list texts by h.  m enters an entry only
    through its case, so an entry is fixed by (n, k, p, case): entries
    ``texts`` lacks are written once by ``_json_entry``.  Their Poincare
    lists depend on h (``deg2_truncation``) alone: those of the h values
    ``lists`` lacks come from one expansion."""
    n, k = params.n, params.k
    # the primes are proven already, so the key needs no primality test.
    # It holds the case's value, whose hash is C code, unlike an Enum
    # member's.
    keys = [(p, _case(params.m, p)._value_) for p in primes]
    missing = [key for key in keys if key not in texts]
    if missing:
        built = [_presentation(params, p) for p, _ in missing]
        new = {pres.deg2_truncation: pres for pres in built if pres.deg2_truncation not in lists}
        if new:
            for h, coeffs in zip(new, _poincare_polynomials(list(new.values()), n, k)):
                lists[h] = _json_ints(coeffs, _COMPACT.lists[3][1])
        for key, pres in zip(missing, built):
            entry = _json_entry(pres, lists[pres.deg2_truncation], total_dimension(pres, k), _COMPACT)
            texts[key] = "".join(entry)
    return [texts[key] for key in keys]


def _compute_report(
    params: ManifoldParams, cohomology: tuple[CohomologyEntry, ...]
) -> InvariantReport:
    notes: tuple[str, ...] = ()
    if params.k == 1:
        notes = (
            "k = 1: mod-p ring presentations extrapolated from the k >= 2 "
            "truncation formulas (they agree with classical lens-space "
            "cohomology)",
            "k = 1: the span = stable-span criteria make no statement",
        )
    # the profile is built here from params, so the core skips the check
    # that a profile of another (n, k, m) gets
    torsion = torsion_profile(params)
    char_classes = _char_class_report(params, torsion)
    return InvariantReport(
        params=params,
        basic=basic_invariants(params),
        torsion=torsion,
        cohomology=cohomology,
        char_classes=char_classes,
        span=span_report(params, char_classes=char_classes),
        notes=notes,
    )


# --- serialization -----------------------------------------------------------


def report_to_dict(report: InvariantReport) -> dict:
    """The JSON schema of a report as plain dicts, lists and scalars.  No
    writer goes through it, so the standard library's dumps of it check the
    JSON that ``render`` and table rows write."""
    p, b, t, c, s = report.params, report.basic, report.torsion, report.char_classes, report.span
    cohomology = []
    for e in report.cohomology:
        pres, g = e.presentation, e.presentation.poly_generator
        cohomology.append({
            "p": pres.p, "case": pres.case.value,
            "poly_generator": None if g is None else {"degree": g.degree, "truncation": g.truncation},
            "exterior_degrees": list(pres.exterior_degrees), "square_rule": pres.square_rule.value,
            "deg2_truncation": pres.deg2_truncation, "rendering": pres.render(),
            "poincare": list(e.poincare), "total_dimension": e.total_dimension,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": p.n, "k": p.k, "m": p.m},
        "basic": {
            "dimension": b.dimension, "pi1_order": b.pi1_order,
            "euler_characteristic": b.euler_characteristic, "orientable": b.orientable,
            "picard_order": b.picard_order,
            "almost_complex_guaranteed": b.almost_complex_guaranteed,
            "complex_structure_guaranteed": b.complex_structure_guaranteed,
        },
        "torsion": {"orders": list(t.orders), "height": t.height},
        "cohomology": cohomology,
        "char_classes": {
            "pontrjagin": [
                {"j": x.j, "raw_coefficient": _int_to_decimal(x.raw_coefficient),
                 "modulus": x.modulus, "reduced": x.reduced, "is_zero": x.is_zero}
                for x in c.pontrjagin
            ],
            "stiefel_whitney": [{"degree": x.degree, "present": x.present} for x in c.stiefel_whitney],
            "all_pontrjagin_vanish": c.all_pontrjagin_vanish,
            "all_sw_vanish": c.all_sw_vanish,
        },
        "span": {
            "span_lower": s.span_lower, "span_upper": s.span_upper,
            "stable_span_lower": s.stable_span_lower,
            "span_eq_stable_guaranteed": s.span_eq_stable_guaranteed,
            "parallelizable": s.parallelizable.value,
            "stably_parallelizable": s.stably_parallelizable.value,
            "provenance": list(s.provenance),
        },
        "notes": list(report.notes),
    }


_KINDS = {bool: "a bool", dict: "an object", int: "an int", list: "a list", str: "a str"}


def _typed(value: Any, name: str, kind: type) -> Any:
    # an int must be exactly an int: a bool is an int too, and the JSON
    # writer prints exact ints only through repr
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


# Two schema facts that the record types do not show.  A cohomology entry's
# object also holds its presentation's fields, and ``rendering``, a one-line
# form for people that is not read back; a report's object also holds
# ``schema_version``.  ``raw_coefficient`` is a decimal string, read through
# ``_decimal_to_int``.
_INLINE = {CohomologyEntry: "presentation"}
_EXTRA_KEYS = {CohomologyEntry: {"rendering"}, InvariantReport: {"schema_version"}}
_DECIMALS = {PontrjaginTerm: ("raw_coefficient",)}


@cache
def _layout(cls: type) -> tuple[dict[str, Any], frozenset[str]]:
    """The resolved type of each field of the record ``cls``, by name
    (``_decimal_to_int`` for a decimal string), and the keys its object may
    hold."""
    types = get_type_hints(cls) | dict.fromkeys(_DECIMALS.get(cls, ()), _decimal_to_int)
    keys = types.keys() - {_INLINE.get(cls)} | _EXTRA_KEYS.get(cls, set())
    if cls in _INLINE:
        keys |= _layout(types[_INLINE[cls]])[1]
    return types, frozenset(keys)


def _read(kind: Any, value: Any, path: str) -> Any:
    """The ``kind`` that the JSON ``value`` at ``path`` holds ("" for the
    top level).  An int, bool or str must be exactly one; ``X | None`` is
    null or an X; ``tuple[X, ...]`` is a list of X; an Enum is one of its
    values; a record is an object that holds a key for each field, read by
    the field's type, and no key but those and the extras above.  Raises
    ``ValueError`` naming the path of a value that does not fit, and
    ``TypeError`` naming a type with no rule here."""
    if kind is int or kind is bool or kind is str:
        return _typed(value, path, kind)
    if is_dataclass(kind):
        name = path or "report"
        obj = _typed(value, name, dict)
        types, keys = _layout(kind)
        unknown = obj.keys() - keys
        if unknown:
            raise ValueError(f"{name} has unknown keys {sorted(unknown)}")
        where = path and path + "."
        inline = _INLINE.get(kind)
        args = []
        for field, hint in types.items():
            if field == inline:
                # its fields sit in this object, whose keys are checked above
                own = _layout(hint)[1]
                args.append(_read(hint, {k: v for k, v in obj.items() if k in own}, path))
            elif field not in obj:
                raise ValueError(f"{where}{field} is missing")
            else:
                args.append(_read(hint, obj[field], where + field))
        return kind(*args)
    if isinstance(kind, EnumMeta):
        try:
            return kind(value)
        except ValueError:
            values = [member.value for member in kind]
            raise ValueError(f"{path} must be one of {values}, got {reprlib.repr(value)}") from None
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        items = _typed(value, path, list)
        if args[0] is int:
            # one check per distinct type, not per entry: Poincare lists run long
            bad = set(map(type, items)) - {int}
            if bad:
                raise ValueError(f"{path} entries must be ints, got {sorted(t.__name__ for t in bad)}")
            return tuple(items)
        return tuple([_read(args[0], item, f"{path}[{i}]") for i, item in enumerate(items)])
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        return None if value is None else _read(args[args[0] is type(None)], value, path)
    if kind is _decimal_to_int:
        return _decimal_to_int(_typed(value, path, str))
    raise TypeError(f"no loader rule for {kind!r} at {path or 'report'}")


def report_from_dict(data: dict) -> InvariantReport:
    """The report that ``report_to_dict`` turned into ``data``, each record
    read by the types of its fields (see ``_read``).  Raises ``ValueError``
    naming the path for a missing field, an unknown key in any object (list
    items included), a value of another JSON type than its field's (an exact
    int, an exact bool, a string, a list, an object, or null where the type
    allows it), an enum field that holds none of its values, a
    ``raw_coefficient`` that is no decimal string, and a ``schema_version``
    that is not exactly the int 1."""
    data = _typed(data, "report", dict)
    if "schema_version" not in data:
        raise ValueError("schema_version is missing")
    # exactly the int: True and 1.0 compare equal to 1
    if _typed(data["schema_version"], "schema_version", int) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version: {data['schema_version']!r}")
    return _read(InvariantReport, data, "")


def report_from_json(text: str | bytes) -> InvariantReport:
    """``report_from_dict`` of the JSON ``text``.  Raises ``ValueError`` for
    text that is not JSON, is nested too deeply for ``json`` to parse, or is
    no str, bytes or bytearray."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValueError(f"JSON text must be str or bytes, got {type(text).__name__}")
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply to parse") from exc
    return report_from_dict(data)


def _csv_row(report: InvariantReport) -> str:
    p, s = report.params, report.span
    return (
        f"{p.n},{p.k},{p.m},{report.basic.dimension},{report.torsion.height},"
        f"{s.span_lower},{s.span_upper},{s.stably_parallelizable.value},"
        f"{s.parallelizable.value}"
    )


def _text_dossier(
    report: InvariantReport, cohomology: Iterable[tuple[int, RingPresentation, int]]
) -> str:
    """The text dossier of ``report``, whose mod-p section lists
    ``cohomology``: p, presentation and total dimension of each entry.  It
    prints no Poincare list, so ``_compute_text`` writes it from a report
    without cohomology entries, and ``render`` from the entries of a full
    one."""
    p, b, s = report.params, report.basic, report.span
    yesno = {True: "yes", False: "no"}
    lines = [
        f"frame quotient n={p.n} k={p.k} m={p.m}",
        f"  dimension                 {b.dimension}",
        f"  fundamental group         cyclic of order {b.pi1_order}",
        f"  Euler characteristic      {b.euler_characteristic}",
        f"  orientable                {yesno[b.orientable]}",
        f"  Picard group              cyclic of order {b.picard_order}",
        f"  almost complex guaranteed {yesno[b.almost_complex_guaranteed]}",
        f"  complex guaranteed        {yesno[b.complex_structure_guaranteed]}",
        "",
        "torsion of the degree-2 class",
        f"  orders of powers r=1..{p.n}: " + ", ".join(map(str, report.torsion.orders)),
        f"  height: {report.torsion.height}",
        "  free exterior generators in odd degrees: "
        + ", ".join(map(str, range(2 * p.n - 2 * p.k + 1, 2 * p.n, 2))),
        "",
        "mod-p cohomology",
    ]
    for prime, pres, total in cohomology:
        lines.append(f"  p={prime}  case {pres.case.value}")
        lines.append(f"       {pres.render()}")
        lines.append(f"       total dimension {total}")
    lines.append("")
    lines.append("characteristic classes")
    for t in report.char_classes.pontrjagin:
        state = "zero" if t.is_zero else "NONZERO"
        lines.append(
            f"  Pontrjagin j={t.j}: coefficient {_int_to_decimal(t.raw_coefficient)} "
            f"= {t.reduced} (mod {t.modulus}) -> {state}"
        )
    if report.char_classes.stiefel_whitney:
        for t in report.char_classes.stiefel_whitney:
            state = "PRESENT" if t.present else "absent"
            lines.append(f"  Stiefel-Whitney degree {t.degree}: {state}")
    else:
        lines.append("  Stiefel-Whitney classes: none (total class 1)")
    lines.append(
        f"  all Pontrjagin vanish: {yesno[report.char_classes.all_pontrjagin_vanish]}"
    )
    lines.append(f"  all Stiefel-Whitney vanish: {yesno[report.char_classes.all_sw_vanish]}")
    lines.append("")
    lines.append("span")
    lines.append(f"  lower bound             {s.span_lower}")
    lines.append(f"  upper bound             {s.span_upper}")
    lines.append(f"  stable span lower bound {s.stable_span_lower}")
    lines.append(f"  span = stable span guaranteed: {yesno[s.span_eq_stable_guaranteed]}")
    lines.append(f"  parallelizable:         {s.parallelizable.value}")
    lines.append(f"  stably parallelizable:  {s.stably_parallelizable.value}")
    lines.append("  provenance:")
    for line in s.provenance:
        lines.append(f"    - {line}")
    if report.notes:
        lines.append("")
        lines.append("notes")
        for note in report.notes:
            lines.append(f"  - {note}")
    lines.append("")
    return "\n".join(lines)


# --- JSON --------------------------------------------------------------------

# The opening, item separator and closing of an empty list
_EMPTY = ("[", "", "]")


class _Layout:
    """The layout of ``json.dumps`` that its keyword arguments select, as
    the texts between the values of each template: the dump of the
    template's skeleton, indented as an item at the depth the template
    writes, cut at each hole.  A text is all that runs from one value to the
    next: brackets, commas, newlines and indents, a key and its separator."""

    def __init__(self, **dumps_args: Any) -> None:
        def runs(skeleton: object, depth: int) -> tuple[str, ...]:
            text = json.dumps(skeleton, **dumps_args).replace("\n", "\n" + "  " * depth)
            return tuple(text.split(json.dumps(_)))

        _ = "\0"  # a value
        self.report = runs({
            "schema_version": _, "params": {"n": _, "k": _, "m": _},
            "basic": {"dimension": _, "pi1_order": _, "euler_characteristic": _, "orientable": _,
                      "picard_order": _, "almost_complex_guaranteed": _,
                      "complex_structure_guaranteed": _},
            "torsion": {"orders": _, "height": _}, "cohomology": _,
            "char_classes": {"pontrjagin": _, "stiefel_whitney": _, "all_pontrjagin_vanish": _,
                             "all_sw_vanish": _},
            "span": {"span_lower": _, "span_upper": _, "stable_span_lower": _,
                     "span_eq_stable_guaranteed": _, "parallelizable": _,
                     "stably_parallelizable": _, "provenance": _},
            "notes": _,
        }, 0)
        self.entry = runs({
            "p": _, "case": _, "poly_generator": _, "exterior_degrees": _, "square_rule": _,
            "deg2_truncation": _, "rendering": _, "poincare": _, "total_dimension": _,
        }, 2)
        self.poly_generator = runs({"degree": _, "truncation": _}, 3)
        self.pontrjagin = runs({"j": _, "raw_coefficient": _, "modulus": _, "reduced": _,
                                "is_zero": _}, 3)
        self.stiefel_whitney = runs({"degree": _, "present": _}, 3)
        # the opening, item separator and closing of a nonempty list, by depth
        self.lists = [runs([_, _], depth) for depth in range(4)]


_INDENTED = _Layout(indent=2)
_COMPACT = _Layout(separators=(",", ":"))


def _json_ints(values: Sequence[int], sep: str) -> str:
    """The exact ints ``values`` through ``repr``, joined by ``sep``.  When
    the list reads the same backwards (every computed Poincare list does, by
    Poincare duality; a loaded one is checked), only its first half is
    converted, and the rest is the same strings in mirror order."""
    size = len(values)
    rest = size // 2  # the items after the middle
    if values[:rest] != values[: size - rest - 1 : -1]:
        return sep.join(map(repr, values))
    half = list(map(repr, values[: size - rest]))
    if not rest:
        return sep.join(half)
    return f"{sep.join(half)}{sep}{sep.join(half[rest - 1 :: -1])}"


# The templates name each text after the key whose value follows it.  Exact
# ints go through ``repr``, ``raw_coefficient`` through ``_int_to_decimal``,
# strings through ``encode_basestring_ascii`` (enum values need no escapes)
# and bools through ``_BOOLS``.


def _json_entry(
    pres: RingPresentation, coefficients: str, total: int, layout: _Layout
) -> tuple[str, str, str]:
    """A cohomology entry: the text before the coefficients of its Poincare
    list, ``coefficients`` (from ``_json_ints``) as they are, and the text
    after them."""
    p, case, poly_generator, exterior_degrees, square_rule, deg2_truncation, rendering, \
        poincare, total_dimension, end = layout.entry
    degree, truncation, pg_end = layout.poly_generator
    g, h, ext = pres.poly_generator, pres.deg2_truncation, pres.exterior_degrees
    pg = "null" if g is None else f"{degree}{g.degree!r}{truncation}{g.truncation!r}{pg_end}"
    ext_open, ext_sep, ext_close = layout.lists[3] if ext else _EMPTY
    opening, _, closing = layout.lists[3] if coefficients else _EMPTY
    return (
        f'{p}{pres.p!r}{case}"{pres.case._value_}"{poly_generator}{pg}'
        f"{exterior_degrees}{ext_open}{ext_sep.join(map(repr, ext))}{ext_close}"
        f'{square_rule}"{pres.square_rule._value_}"'
        f'{deg2_truncation}{"null" if h is None else repr(h)}'
        f"{rendering}{encode_basestring_ascii(pres.render())}{poincare}{opening}",
        coefficients,
        f"{closing}{total_dimension}{total!r}{end}",
    )


def _term_heads(terms: Sequence[PontrjaginTerm], layout: _Layout) -> list[str]:
    """The text of each Pontrjagin term up to its modulus.  It is fixed by j
    and nk, so the rows of one (n, k) share it."""
    j, raw_coefficient, modulus = layout.pontrjagin[:3]
    return [
        f'{j}{x.j!r}{raw_coefficient}"{_int_to_decimal(x.raw_coefficient)}"{modulus}' for x in terms
    ]


def _json_report(report: InvariantReport, layout: _Layout, heads: list[str]) -> tuple[str, str]:
    """A report: the text before its cohomology list and the text after it.
    ``heads`` are its Pontrjagin terms' heads (``_term_heads``)."""
    schema_version, n, k, m, dimension, pi1_order, euler_characteristic, orientable, \
        picard_order, almost_complex_guaranteed, complex_structure_guaranteed, orders, \
        height, cohomology, pontrjagin, stiefel_whitney, all_pontrjagin_vanish, all_sw_vanish, \
        span_lower, span_upper, stable_span_lower, span_eq_stable_guaranteed, parallelizable, \
        stably_parallelizable, provenance, notes, end = layout.report
    reduced, is_zero, term_end = layout.pontrjagin[3:]
    degree, present, sw_end = layout.stiefel_whitney
    p, b, o, c, s = report.params, report.basic, report.torsion, report.char_classes, report.span
    tf = _BOOLS
    o_open, o_sep, o_close = layout.lists[2] if o.orders else _EMPTY
    terms_open, terms_sep, terms_close = layout.lists[2] if c.pontrjagin else _EMPTY
    sw_open, sw_sep, sw_close = layout.lists[2] if c.stiefel_whitney else _EMPTY
    pr_open, pr_sep, pr_close = layout.lists[2] if s.provenance else _EMPTY
    notes_open, notes_sep, notes_close = layout.lists[1] if report.notes else _EMPTY
    terms = terms_sep.join([
        f"{head}{x.modulus!r}{reduced}{x.reduced!r}{is_zero}{tf[x.is_zero]}{term_end}"
        for head, x in zip(heads, c.pontrjagin)])
    sw_terms = sw_sep.join([
        f"{degree}{x.degree!r}{present}{tf[x.present]}{sw_end}" for x in c.stiefel_whitney])
    head = (
        f"{schema_version}{SCHEMA_VERSION}{n}{p.n!r}{k}{p.k!r}{m}{p.m!r}"
        f"{dimension}{b.dimension!r}{pi1_order}{b.pi1_order!r}"
        f"{euler_characteristic}{b.euler_characteristic!r}{orientable}{tf[b.orientable]}"
        f"{picard_order}{b.picard_order!r}"
        f"{almost_complex_guaranteed}{tf[b.almost_complex_guaranteed]}"
        f"{complex_structure_guaranteed}{tf[b.complex_structure_guaranteed]}"
        f"{orders}{o_open}{o_sep.join(map(repr, o.orders))}{o_close}{height}{o.height!r}{cohomology}"
    )
    tail = (
        f"{pontrjagin}{terms_open}{terms}{terms_close}{stiefel_whitney}{sw_open}{sw_terms}{sw_close}"
        f"{all_pontrjagin_vanish}{tf[c.all_pontrjagin_vanish]}{all_sw_vanish}{tf[c.all_sw_vanish]}"
        f"{span_lower}{s.span_lower!r}{span_upper}{s.span_upper!r}"
        f"{stable_span_lower}{s.stable_span_lower!r}"
        f"{span_eq_stable_guaranteed}{tf[s.span_eq_stable_guaranteed]}"
        f'{parallelizable}"{s.parallelizable._value_}"'
        f'{stably_parallelizable}"{s.stably_parallelizable._value_}"'
        f"{provenance}{pr_open}{pr_sep.join(map(encode_basestring_ascii, s.provenance))}{pr_close}"
        f"{notes}{notes_open}{notes_sep.join(map(encode_basestring_ascii, report.notes))}"
        f"{notes_close}{end}"
    )
    return head, tail


def _json_dossier(report: InvariantReport) -> list[str]:
    """The pieces of ``json.dumps(report_to_dict(report), indent=2) + "\\n"``,
    byte for byte: the templates of table rows, in the indented layout.
    Each Poincare list's coefficients are one piece, not copied: a large
    report's lists are most of its bytes."""
    heads = _term_heads(report.char_classes.pontrjagin, _INDENTED)
    head, tail = _json_report(report, _INDENTED, heads)
    opening, sep, closing = _INDENTED.lists[1] if report.cohomology else _EMPTY
    out = [head, opening]
    for i, e in enumerate(report.cohomology):
        coefficients = _json_ints(e.poincare, _INDENTED.lists[3][1])
        out += sep if i else "", *_json_entry(e.presentation, coefficients, e.total_dimension, _INDENTED)
    out += closing, tail, "\n"
    return out


def render(report: InvariantReport, fmt: str) -> bytes:
    """Serialize a report: ``json`` (indented, fixed key order), ``csv_row``
    (one header-less line) or ``text`` (human-readable dossier).  JSON is the
    bytes of ``json.dumps(report_to_dict(report), indent=2)`` plus a newline,
    written by the templates of table rows in the indented layout (see
    ``_json_dossier``), joined once and encoded once."""
    if fmt == "json":
        return "".join(_json_dossier(report)).encode()
    if fmt == "csv_row":
        return _csv_row(report).encode()
    if fmt == "text":
        entries = [(e.p, e.presentation, e.total_dimension) for e in report.cohomology]
        return _text_dossier(report, entries).encode()
    raise ParameterError("format-unknown", f"unknown format {fmt!r}")


def _compute_text(params: ManifoldParams, primes: Sequence[int] | None) -> bytes:
    """``render(compute_report(params, primes), "text")``, byte for byte,
    without the Poincare expansion: a text dossier prints each cohomology
    entry's presentation and total dimension, never its Poincare list, so
    only those are built.  The report written holds no cohomology entries
    and goes no further than the writer."""
    entries = []
    for p in _report_primes(params, primes):
        pres = _presentation(params, p)
        entries.append((p, pres, total_dimension(pres, params.k)))
    return _text_dossier(_compute_report(params, ()), entries).encode()


# --- tables ------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (n, k, m) grid; k_range None means 1..n-1 for each n.

    Grid points that fail validation are skipped with a logged note; the
    ranges themselves must be nonempty pairs of exact int bounds, and
    ``jobs`` an exact int.  ``primes`` is checked here, once, and kept
    sorted without repeats.
    """

    n_range: tuple[int, int]
    k_range: tuple[int, int] | None
    m_range: tuple[int, int]
    primes: tuple[int, ...] | None = None
    fmt: str = "csv"
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, rng in (("n", self.n_range), ("m", self.m_range), ("k", self.k_range)):
            if rng is None:
                continue
            if not isinstance(rng, Sequence) or len(rng) != 2:
                raise ParameterError(
                    f"{name}-range-not-pair", f"{name} range must have two bounds, got {rng!r}"
                )
            if not all(type(x) is int for x in rng):
                raise ParameterError(f"{name}-not-int", f"{name} range bounds must be ints, got {rng!r}")
            if rng[0] > rng[1]:
                raise ParameterError(
                    f"{name}-range-empty", f"empty {name} range {rng[0]}..{rng[1]}"
                )
        if self.fmt not in ("csv", "json"):
            raise ParameterError("format-unknown", f"table format must be csv or json, got {self.fmt!r}")
        if type(self.jobs) is not int:
            raise ParameterError("jobs-not-int", f"jobs must be an int, got {self.jobs!r}")
        if self.jobs < 1:
            raise ParameterError("jobs-too-small", f"jobs must be >= 1, got {self.jobs}")
        if self.primes is not None:
            # before any row, in this process; rows skip the check
            object.__setattr__(self, "primes", _check_primes(self.primes))


def _grid_points(spec: GridSpec) -> Iterator[ManifoldParams]:
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        ks: Iterable[int]
        if spec.k_range is None:
            ks = range(1, n)
        else:
            ks = range(spec.k_range[0], spec.k_range[1] + 1)
        for k in ks:
            for m in range(spec.m_range[0], spec.m_range[1] + 1):
                try:
                    params = validate(n, k, m)
                except ParameterError as exc:
                    log.warning("skipping grid point (n=%d, k=%d, m=%d): %s", n, k, m, exc)
                    continue
                yield params


def _chunk_rows(
    points: Iterable[ManifoldParams], primes: tuple[int, ...] | None, fmt: str
) -> Iterator[bytes]:
    """The rows of one chunk of a table, in order, each computed when it is
    asked for.  What the rows share lives in locals and goes with the
    chunk: the default primes of each m, and, across each run of rows of one
    (n, k), the compact JSON texts of its cohomology entries and Poincare
    lists (see ``_cohomology_texts``) and its Pontrjagin term heads."""
    primes_of: dict[int, tuple[int, ...]] = {}
    opening, sep, closing = _COMPACT.lists[1]
    for _, run in groupby(points, attrgetter("n", "k")):
        texts: dict[tuple[int, str], str] = {}
        lists: dict[int | None, str] = {}
        heads = None
        for params in run:
            m = params.m
            ps = primes or primes_of.get(m) or primes_of.setdefault(m, default_primes(m))
            if fmt == "csv":
                # CSV rows print no cohomology: they share only the primes
                yield render(_compute_report(params, _cohomology(params, ps)), "csv_row")
                continue
            # one compact JSON object per row
            report = _compute_report(params, ())
            if heads is None:
                heads = _term_heads(report.char_classes.pontrjagin, _COMPACT)
            head, tail = _json_report(report, _COMPACT, heads)
            cohomology = sep.join(_cohomology_texts(params, ps, texts, lists))
            yield f"{head}{opening}{cohomology}{closing}{tail}".encode()


def _table_rows(
    chunk: list[ManifoldParams], primes: tuple[int, ...] | None, fmt: str
) -> list[bytes]:
    """The rows of one worker chunk as one list, which the worker can send
    back, unlike a generator."""
    return list(_chunk_rows(chunk, primes, fmt))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_context() -> Any:
    """How a table's workers start.  Outside macOS: fork where the platform
    offers it while the caller runs a single thread, else forkserver where
    offered.  Everywhere else the platform's default.  Row 2 of a pooled
    table pays the pool's start-up, which on Python 3.11 (2 CPUs) took
    12.0-18.5 ms with fork, 23.4-25.7 ms with spawn and 62.4-67.2 ms with
    forkserver, Linux's default from Python 3.14; the rows are the same
    bytes under each.  A forked child of a threaded process may inherit a
    lock that another thread held (Python 3.12 and later warn), and macOS
    offers fork but its system libraries make it unsafe there."""
    import multiprocessing
    import threading

    methods = multiprocessing.get_all_start_methods()
    if sys.platform != "darwin":
        if "fork" in methods and threading.active_count() == 1:
            return multiprocessing.get_context("fork")
        if "forkserver" in methods:
            return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


def generate_table(spec: GridSpec) -> Iterator[bytes]:
    """Yield rendered rows (no trailing newlines) in lexicographic (n, k, m)
    order; CSV starts with the header row.  The output is byte-identical for
    any ``jobs`` value: workers only compute, rows come back in grid order.

    The grid is walked lazily, so the first row never waits for the rest of
    it, and is cut into chunk 0, of ``_FIRST_ROWS`` = 64 rows, then chunks
    of ``_CHUNK_ROWS`` = 128 rows.  Each chunk's rows come from one
    ``_chunk_rows``, which shares work between them, whichever process
    computes them.  With jobs = 1 or one usable CPU every chunk is computed
    in-process, each walked point by point.  Otherwise chunk 0 is computed
    in-process too, and its first row is yielded once one grid point is
    validated, before any pool exists: a reader that stops there starts no
    process and never imports ``concurrent.futures`` or ``multiprocessing``.
    The second row asks for the rest of chunk 0's grid points, then starts
    the pool, with the start method ``_pool_context`` picks, so that row
    pays its start-up; the workers take the later chunks while the rest of
    chunk 0 is yielded.  At most two chunks per worker are in flight: one
    more is submitted each time a worker chunk's rows have been yielded, and
    an early stop waits for at most the one chunk each worker is computing.
    At most min(jobs, usable CPUs, worker chunks) workers are started; with
    fewer than two, the rest of the grid is computed in-process too."""
    if spec.fmt == "csv":
        yield CSV_HEADER.encode()
    points = _grid_points(spec)
    workers = min(spec.jobs, _usable_cpus())
    if workers < 2:
        # each chunk is walked from its first point on as its rows are asked for
        size = _FIRST_ROWS
        for params in points:
            chunk = chain((params,), islice(points, size - 1))
            yield from _chunk_rows(chunk, spec.primes, spec.fmt)
            size = _CHUNK_ROWS
        return
    # chunk 0 reads ``rest`` only after its first row, and ``rest`` is filled
    # before any worker chunk is cut from the grid, so rows keep grid order
    rest: list[ManifoldParams] = []
    first = _chunk_rows(chain(islice(points, 1), rest), spec.primes, spec.fmt)
    yield from islice(first, 1)
    rest += islice(points, _FIRST_ROWS - 1)
    chunks = iter(lambda: list(islice(points, _CHUNK_ROWS)), [])
    window = list(islice(chunks, 2 * workers))
    workers = min(workers, len(window))
    if workers < 2:
        # the grid ends within one worker chunk
        yield from first
        for chunk in window:
            yield from _chunk_rows(chunk, spec.primes, spec.fmt)
        return
    # imported here, so commands that start no pool never load it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
    try:
        pending = deque(pool.submit(_table_rows, c, spec.primes, spec.fmt) for c in window)
        yield from first
        while pending:
            yield from pending.popleft().result()
            for chunk in islice(chunks, 1):
                pending.append(pool.submit(_table_rows, chunk, spec.primes, spec.fmt))
    finally:
        # A consumer that stops early (``table | head``) must not wait for
        # the rows nobody will read.
        pool.shutdown(cancel_futures=True)


def render_table(spec: GridSpec) -> bytes:
    return b"".join(row + b"\n" for row in generate_table(spec))

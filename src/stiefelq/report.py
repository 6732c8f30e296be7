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
import re
from collections import deque
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from stiefelq.arith import _decimal_to_int, _int_to_decimal, factorize, is_prime
from stiefelq.charclass import (
    CharClassReport,
    PontrjaginTerm,
    StiefelWhitneyTerm,
    char_class_report,
)
from stiefelq.manifold import (
    BasicInvariants,
    ManifoldParams,
    ParameterError,
    basic_invariants,
    validate,
)
from stiefelq.modp import (
    CohomologyCase,
    PolyGenerator,
    RingPresentation,
    SquareRule,
    _case,
    _palindrome,
    _poincare_polynomials,
    presentation,
    total_dimension,
)
from stiefelq.span import SpanReport, TriState, span_report
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

_D = TypeVar("_D")

# JSON of a bool, for table rows
_BOOLS = {True: "true", False: "false"}

# Rows a pool worker takes at once, and the rows of chunk 0, which a pooled
# table computes in-process: an early stop waits for at most one chunk per
# worker.
_CHUNK_CAP = 64


@dataclass(frozen=True)
class CohomologyEntry:
    p: int
    presentation: RingPresentation
    poincare: tuple[int, ...]
    total_dimension: int


@dataclass(frozen=True)
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
    reason ``too-large`` when ``factorize`` cannot factor m exactly."""
    return tuple(sorted({p for p, _ in factorize(m)} | {2}))


def _check_primes(primes: Sequence[int]) -> tuple[int, ...]:
    # is_prime raises ``too-large`` for a probable prime it cannot prove
    if not primes:
        raise ParameterError("primes-empty", "the prime list must be nonempty")
    for p in primes:
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
    checked = None if primes is None else _check_primes(primes)
    return _compute_report(params, _cohomology(params, checked))


def _cohomology(
    params: ManifoldParams, primes: tuple[int, ...] | None
) -> tuple[CohomologyEntry, ...]:
    """The cohomology entries of a report, p ascending, from one Poincare
    expansion."""
    # ``primes`` is None or already through ``_check_primes``
    ps = default_primes(params.m) if primes is None else primes
    presentations = [presentation(params, p) for p in ps]
    polys = _poincare_polynomials(presentations, params.n, params.k)
    return tuple(
        CohomologyEntry(
            p=pres.p,
            presentation=pres,
            poincare=tuple(coeffs),
            total_dimension=total_dimension(pres, params.k),
        )
        for pres, coeffs in zip(presentations, polys)
    )


class _Memo:
    """The compact JSON texts of one (n, k)'s cohomology entries, keyed by
    (p, case value), and of their Poincare lists, keyed by h, across m."""

    __slots__ = ("n_k", "texts", "poincare")

    def __init__(self) -> None:
        self.n_k: tuple[int, int] | None = None
        self.texts: dict[tuple[int, str], str] = {}
        self.poincare: dict[int | None, str] = {}


def _cohomology_texts(
    params: ManifoldParams, primes: tuple[int, ...] | None, memo: _Memo
) -> list[str]:
    """``_cohomology`` as the entries' compact JSON texts, through ``memo``.
    m enters an entry only through its case, so an entry is fixed by (n, k,
    p, case): entries the memo lacks are written once from one template.
    Their Poincare lists depend on h (``deg2_truncation``) alone: those of
    the h values the memo lacks come from one expansion."""
    n, k = params.n, params.k
    if memo.n_k != (n, k):
        memo.n_k, memo.texts, memo.poincare = (n, k), {}, {}
    texts, lists = memo.texts, memo.poincare
    # the primes are primes already, so the key needs no primality test.
    # It holds the case's value, whose hash is C code, unlike an Enum
    # member's.
    ps = default_primes(params.m) if primes is None else primes
    keys = [(p, _case(params.m, p)._value_) for p in ps]
    missing = [key for key in keys if key not in texts]
    if missing:
        built = [presentation(params, p) for p, _ in missing]
        new = {pres.deg2_truncation: pres for pres in built if pres.deg2_truncation not in lists}
        if new:
            # a computed list is a palindrome: only its first half is converted
            length = k * (2 * n - k) + 1
            for h, coeffs in zip(new, _poincare_polynomials(list(new.values()), n, k)):
                half = list(map(repr, coeffs[: (length + 1) // 2]))
                lists[h] = ",".join(_palindrome(length, half))
        for key, pres in zip(missing, built):
            g, h = pres.poly_generator, pres.deg2_truncation
            pg = "null" if g is None else f'{{"degree":{g.degree!r},"truncation":{g.truncation!r}}}'
            texts[key] = (
                f'{{"p":{pres.p!r},"case":"{key[1]}","poly_generator":{pg},"exterior_degrees":'
                f'[{",".join(map(repr, pres.exterior_degrees))}],"square_rule":'
                f'"{pres.square_rule._value_}","deg2_truncation":'
                f'{"null" if h is None else repr(h)},"rendering":'
                f'{encode_basestring_ascii(pres.render())},"poincare":[{lists[h]}],'
                f'"total_dimension":{total_dimension(pres, k)!r}}}'
            )
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
    torsion = torsion_profile(params)
    char_classes = char_class_report(params, torsion)
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


def _presentation_dict(pres: RingPresentation) -> dict:
    pg = pres.poly_generator
    return {
        "p": pres.p,
        "case": pres.case.value,
        "poly_generator": None
        if pg is None
        else {"degree": pg.degree, "truncation": pg.truncation},
        "exterior_degrees": list(pres.exterior_degrees),
        "square_rule": pres.square_rule.value,
        "deg2_truncation": pres.deg2_truncation,
        "rendering": pres.render(),
    }


def _entry_dict(entry: CohomologyEntry) -> dict:
    return {
        **_presentation_dict(entry.presentation),
        "poincare": entry.poincare,
        "total_dimension": entry.total_dimension,
    }


def report_to_dict(report: InvariantReport) -> dict:
    """The JSON schema of a report as plain dicts, lists and scalars."""
    data = _report_dict(report)
    for e in data["cohomology"]:
        e["poincare"] = list(e["poincare"])
    return data


def _report_dict(report: InvariantReport) -> dict:
    """``report_to_dict`` with each Poincare polynomial left as the report's
    own tuple, not copied; ``json`` writes a tuple exactly as a list."""
    p, b, s = report.params, report.basic, report.span
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": p.n, "k": p.k, "m": p.m},
        "basic": {
            "dimension": b.dimension,
            "pi1_order": b.pi1_order,
            "euler_characteristic": b.euler_characteristic,
            "orientable": b.orientable,
            "picard_order": b.picard_order,
            "almost_complex_guaranteed": b.almost_complex_guaranteed,
            "complex_structure_guaranteed": b.complex_structure_guaranteed,
        },
        "torsion": {
            "orders": list(report.torsion.orders),
            "height": report.torsion.height,
        },
        "cohomology": [_entry_dict(e) for e in report.cohomology],
        "char_classes": {
            "pontrjagin": [
                {
                    "j": t.j,
                    "raw_coefficient": _int_to_decimal(t.raw_coefficient),
                    "modulus": t.modulus,
                    "reduced": t.reduced,
                    "is_zero": t.is_zero,
                }
                for t in report.char_classes.pontrjagin
            ],
            "stiefel_whitney": [
                {"degree": t.degree, "present": t.present}
                for t in report.char_classes.stiefel_whitney
            ],
            "all_pontrjagin_vanish": report.char_classes.all_pontrjagin_vanish,
            "all_sw_vanish": report.char_classes.all_sw_vanish,
        },
        "span": {
            "span_lower": s.span_lower,
            "span_upper": s.span_upper,
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


def _ints(value: Any, name: str) -> tuple[int, ...]:
    """The list ``value`` as a tuple, every entry an exact int."""
    # one check per distinct type, not per entry: Poincare lists run long
    bad = set(map(type, _typed(value, name, list))) - {int}
    if bad:
        raise ValueError(f"{name} entries must be ints, got {sorted(t.__name__ for t in bad)}")
    return tuple(value)


def _strs(value: Any, name: str) -> tuple[str, ...]:
    """The list ``value`` as a tuple, every entry a str."""
    items = enumerate(_typed(value, name, list))
    return tuple(_typed(item, f"{name}[{i}]", str) for i, item in items)


def _field(obj: dict, where: str, key: str, kind: type = object) -> Any:
    """``obj[key]``, a ``kind``; ``where`` is the path to ``obj`` with a
    trailing dot, empty at the top level."""
    if key not in obj:
        raise ValueError(f"{where}{key} is missing")
    return _typed(obj[key], where + key, kind)


def _items(obj: dict, where: str, key: str) -> Iterator[tuple[str, dict]]:
    """(path, item) for each item of the list ``obj[key]``, every item an
    object."""
    for i, item in enumerate(_field(obj, where, key, list)):
        path = f"{where}{key}[{i}]"
        yield path + ".", _typed(item, path, dict)


def _known(obj: dict, name: str, keys: Iterable[str]) -> dict:
    """``obj``, which holds no keys but ``keys``."""
    unknown = obj.keys() - set(keys)
    if unknown:
        raise ValueError(f"{name} has unknown keys {sorted(unknown)}")
    return obj


# How a loaded field is checked, by its annotation: (value, path) -> value.
# Bools must be exact bools, since the text dossier prints them through a
# {True, False} lookup.  Fields of other annotations are taken as they are,
# or given by the caller; an annotation that names int or bool and has no
# check here is refused by _kinds, so no such field loads unchecked.
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "bool": partial(_typed, kind=bool),
    "int": partial(_typed, kind=int),
    "int | None": lambda value, name: value if value is None else _typed(value, name, int),
    "tuple[int, ...]": _ints,
    "tuple[str, ...]": _strs,
}


@cache
def _kinds(cls: type) -> tuple[tuple[str, Callable[[Any, str], Any] | None], ...]:
    kinds = []
    for f in fields(cls):
        read = _READERS.get(f.type)
        if read is None and re.search(r"\b(?:int|bool)\b", str(f.type)):
            raise TypeError(f"{cls.__name__}.{f.name}: no loader check for {f.type!r}")
        kinds.append((f.name, read))
    return tuple(kinds)


def _flat(cls: type[_D], obj: dict, where: str, **given: Any) -> _D:
    """The dataclass ``cls`` with the fields not in ``given`` read from the
    same keys of ``obj``."""
    for name, read in _kinds(cls):
        if name not in given:
            value = _field(obj, where, name)
            given[name] = value if read is None else read(value, where + name)
    return cls(**given)


def report_from_dict(data: dict) -> InvariantReport:
    """The report that ``report_to_dict`` turned into ``data``.  Raises
    ``ValueError`` naming the field for a missing field, an unknown
    ``params`` or ``poly_generator`` key, or a value that is not the object,
    list, exact bool, exact int (or null, for ``deg2_truncation``), list of
    exact ints, list of strings or decimal string the schema puts there."""
    data = _typed(data, "report", dict)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version: {data.get('schema_version')!r}")
    p = _known(_field(data, "", "params", dict), "params", ("n", "k", "m"))
    params = validate(*(_field(p, "params.", key) for key in ("n", "k", "m")))
    torsion = _flat(TorsionProfile, _field(data, "", "torsion", dict), "torsion.")
    cohomology = []
    for where, e in _items(data, "", "cohomology"):
        pg = _field(e, where, "poly_generator")
        if pg is not None:
            name = where + "poly_generator"
            _known(_typed(pg, name, dict), name, ("degree", "truncation"))
            pg = _flat(PolyGenerator, pg, name + ".")
        pres = _flat(
            RingPresentation,
            e,
            where,
            case=CohomologyCase(_field(e, where, "case")),
            poly_generator=pg,
            square_rule=SquareRule(_field(e, where, "square_rule")),
        )
        cohomology.append(_flat(CohomologyEntry, e, where, presentation=pres))
    c = _field(data, "", "char_classes", dict)
    char = _flat(
        CharClassReport,
        c,
        "char_classes.",
        pontrjagin=tuple(
            _flat(
                PontrjaginTerm,
                t,
                where,
                raw_coefficient=_decimal_to_int(_field(t, where, "raw_coefficient", str)),
            )
            for where, t in _items(c, "char_classes.", "pontrjagin")
        ),
        stiefel_whitney=tuple(
            _flat(StiefelWhitneyTerm, t, where)
            for where, t in _items(c, "char_classes.", "stiefel_whitney")
        ),
    )
    s = _field(data, "", "span", dict)
    span = _flat(
        SpanReport,
        s,
        "span.",
        parallelizable=TriState(_field(s, "span.", "parallelizable")),
        stably_parallelizable=TriState(_field(s, "span.", "stably_parallelizable")),
    )
    basic = _flat(BasicInvariants, _field(data, "", "basic", dict), "basic.")
    # the one field left, ``notes``, is read by its annotation
    return _flat(InvariantReport, data, "", params=params, basic=basic, torsion=torsion,
                 cohomology=tuple(cohomology), char_classes=char, span=span)


def report_from_json(text: str | bytes) -> InvariantReport:
    return report_from_dict(json.loads(text))


def _csv_row(report: InvariantReport) -> str:
    p, s = report.params, report.span
    return (
        f"{p.n},{p.k},{p.m},{report.basic.dimension},{report.torsion.height},"
        f"{s.span_lower},{s.span_upper},{s.stably_parallelizable.value},"
        f"{s.parallelizable.value}"
    )


def _text_dossier(report: InvariantReport) -> str:
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
        f"  orders of powers r=1..{p.n}: "
        + ", ".join(str(o) for o in report.torsion.orders),
        f"  height: {report.torsion.height}",
        "  free exterior generators in odd degrees: "
        + ", ".join(str(d) for d in range(2 * p.n - 2 * p.k + 1, 2 * p.n, 2)),
        "",
        "mod-p cohomology",
    ]
    for e in report.cohomology:
        lines.append(f"  p={e.p}  case {e.presentation.case.value}")
        lines.append(f"       {e.presentation.render()}")
        lines.append(f"       total dimension {e.total_dimension}")
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


def _json_write(value: object, indent: str, out: list[str], int_lists: set[int]) -> None:
    """Append ``json.dumps(value, indent=2)`` to ``out`` in pieces, for a value
    that starts on a line indented by ``indent`` (a newline, then spaces).

    Strings go through the C escaper that ``json.dumps`` uses for
    ``ensure_ascii``; exact ints through ``repr``; ``True``, ``False`` and
    ``None`` are literals; any other scalar goes through ``json.dumps``.  A
    list whose ``id`` is in ``int_lists`` holds exact ints only and is joined
    in one step.  When it reads the same backwards, only its first half is
    converted; the check is made, never assumed, since a loaded list need
    not be a palindrome."""
    if type(value) is int:
        out.append(repr(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _json_write(item, inner, out, int_lists)
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if id(value) in int_lists:
            if value == value[::-1]:
                half = list(map(repr, value[: (len(value) + 1) // 2]))
                strs = _palindrome(len(value), half)
            else:
                strs = map(repr, value)
            out += "[" + inner, ("," + inner).join(strs), indent + "]"
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _json_write(item, inner, out, int_lists)
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        out.append(json.dumps(value))


def _json_dossier(report: InvariantReport) -> list[str]:
    """The pieces of ``json.dumps(report_to_dict(report), indent=2) + "\\n"``,
    byte for byte, from one pass of ``_json_write``.  The Poincare lists
    hold exact ints (computed ones by construction, loaded ones checked by
    ``report_from_dict``), and every computed one reads the same backwards
    by Poincare duality, so only its first half is converted."""
    data = _report_dict(report)
    out: list[str] = []
    _json_write(data, "\n", out, {id(e["poincare"]) for e in data["cohomology"]})
    out.append("\n")
    return out


def render(report: InvariantReport, fmt: str) -> bytes:
    """Serialize a report: ``json`` (indented, fixed key order), ``csv_row``
    (one header-less line) or ``text`` (human-readable dossier).  JSON is the
    bytes of ``json.dumps(report_to_dict(report), indent=2)`` plus a newline,
    written in pieces, joined once and encoded once."""
    if fmt == "json":
        return "".join(_json_dossier(report)).encode()
    if fmt == "csv_row":
        return _csv_row(report).encode()
    if fmt == "text":
        return _text_dossier(report).encode()
    raise ParameterError("format-unknown", f"unknown format {fmt!r}")


# --- tables ------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (n, k, m) grid; k_range None means 1..n-1 for each n.

    Grid points that fail validation are skipped with a logged note; the
    ranges themselves must be nonempty.  ``primes`` is checked here, once,
    and kept sorted without repeats.
    """

    n_range: tuple[int, int]
    k_range: tuple[int, int] | None
    m_range: tuple[int, int]
    primes: tuple[int, ...] | None = None
    fmt: str = "csv"
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, rng in (("n", self.n_range), ("m", self.m_range), ("k", self.k_range)):
            if rng is not None and rng[0] > rng[1]:
                raise ParameterError(
                    f"{name}-range-empty", f"empty {name} range {rng[0]}..{rng[1]}"
                )
        if self.fmt not in ("csv", "json"):
            raise ParameterError("format-unknown", f"table format must be csv or json, got {self.fmt!r}")
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


def _json_row(report: InvariantReport, texts: Iterable[str]) -> bytes:
    """``json.dumps(report_to_dict(report), separators=(",", ":"))``, encoded,
    with ``texts``, compact entries, as the cohomology ``report`` lacks.  One
    template per section: exact ints through ``repr``, ``raw_coefficient``
    through ``_int_to_decimal``, strings through ``encode_basestring_ascii``."""
    p, b, t, c, s = report.params, report.basic, report.torsion, report.char_classes, report.span
    tf = _BOOLS
    pontrjagin = ",".join([
        f'{{"j":{x.j!r},"raw_coefficient":"{_int_to_decimal(x.raw_coefficient)}","modulus":'
        f'{x.modulus!r},"reduced":{x.reduced!r},"is_zero":{tf[x.is_zero]}}}' for x in c.pontrjagin])
    sw = ",".join([f'{{"degree":{x.degree!r},"present":{tf[x.present]}}}' for x in c.stiefel_whitney])
    return (
        f'{{"schema_version":{SCHEMA_VERSION},"params":{{"n":{p.n!r},"k":{p.k!r},"m":{p.m!r}}},'
        f'"basic":{{"dimension":{b.dimension!r},"pi1_order":{b.pi1_order!r},'
        f'"euler_characteristic":{b.euler_characteristic!r},"orientable":{tf[b.orientable]},'
        f'"picard_order":{b.picard_order!r},'
        f'"almost_complex_guaranteed":{tf[b.almost_complex_guaranteed]},'
        f'"complex_structure_guaranteed":{tf[b.complex_structure_guaranteed]}}},'
        f'"torsion":{{"orders":[{",".join(map(repr, t.orders))}],"height":{t.height!r}}},'
        f'"cohomology":[{",".join(texts)}],'
        f'"char_classes":{{"pontrjagin":[{pontrjagin}],"stiefel_whitney":[{sw}],'
        f'"all_pontrjagin_vanish":{tf[c.all_pontrjagin_vanish]},'
        f'"all_sw_vanish":{tf[c.all_sw_vanish]}}},'
        f'"span":{{"span_lower":{s.span_lower!r},"span_upper":{s.span_upper!r},'
        f'"stable_span_lower":{s.stable_span_lower!r},'
        f'"span_eq_stable_guaranteed":{tf[s.span_eq_stable_guaranteed]},'
        f'"parallelizable":"{s.parallelizable._value_}",'
        f'"stably_parallelizable":"{s.stably_parallelizable._value_}",'
        f'"provenance":[{",".join(map(encode_basestring_ascii, s.provenance))}]}},'
        f'"notes":[{",".join(map(encode_basestring_ascii, report.notes))}]}}'
    ).encode()


def _table_row(
    params: ManifoldParams, primes: tuple[int, ...] | None, fmt: str, memo: _Memo
) -> bytes:
    if fmt == "csv":
        # CSV rows print no cohomology: they take no memo
        return render(_compute_report(params, _cohomology(params, primes)), "csv_row")
    # one compact JSON object per row
    return _json_row(_compute_report(params, ()), _cohomology_texts(params, primes, memo))


def _rows(
    points: Iterable[ManifoldParams], primes: tuple[int, ...] | None, fmt: str
) -> Iterator[bytes]:
    """The rows of ``points``, in order.  JSON rows share their cohomology
    through one memo per ``_CHUNK_CAP`` rows, the chunks a pool worker
    takes, so a memo holds at most that many rows' entries."""
    for i, params in enumerate(points):
        if i % _CHUNK_CAP == 0:
            memo = _Memo()
        yield _table_row(params, primes, fmt, memo)


def _table_rows(
    chunk: list[ManifoldParams], primes: tuple[int, ...] | None, fmt: str
) -> list[bytes]:
    return list(_rows(chunk, primes, fmt))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate_table(spec: GridSpec) -> Iterator[bytes]:
    """Yield rendered rows (no trailing newlines) in lexicographic (n, k, m)
    order; CSV starts with the header row.  The output is byte-identical for
    any ``jobs`` value: workers only compute, rows come back in grid order.

    The grid is walked lazily, so the first row never waits for the rest of
    it.  With jobs = 1 or one usable CPU, rows are computed in-process.
    Otherwise the grid is cut into chunks of ``_CHUNK_CAP`` rows.  Chunk 0
    is computed in-process, and its first row is yielded before any pool
    exists: a reader that stops there starts no process and never imports
    ``concurrent.futures``.  The pool starts when the second row is asked
    for, so that row pays its start-up, and its workers take the chunks
    after chunk 0 while the rest of chunk 0 is yielded.  At most two chunks per worker are in flight: one
    more is submitted each time a worker chunk's rows have been yielded.  At
    most min(jobs, usable CPUs, chunks after chunk 0) workers are started;
    with fewer than two, the rest of the grid is computed in-process too.
    JSON rows of one (n, k) share their cohomology entries within each
    chunk of ``_CHUNK_CAP`` rows (see ``_rows``)."""
    if spec.fmt == "csv":
        yield CSV_HEADER.encode()
    points = _grid_points(spec)
    workers = min(spec.jobs, _usable_cpus())
    if workers < 2:
        yield from _rows(points, spec.primes, spec.fmt)
        return
    chunks = iter(lambda: list(islice(points, _CHUNK_CAP)), [])
    first = _rows(next(chunks, []), spec.primes, spec.fmt)
    yield from islice(first, 1)
    window = list(islice(chunks, 2 * workers))
    workers = min(workers, len(window))
    if workers < 2:
        # rows follow chunk 0 only when it is full, so the memos start at the
        # same rows as in one walk of the grid
        yield from chain(first, _rows(chain(*window, points), spec.primes, spec.fmt))
        return
    # imported here, so commands that start no pool never load it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
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

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import inspect
import types
import typing
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stiefelq
from stiefelq import cli
from stiefelq.manifold import ParameterError, validate


def test_all_lists_every_public_name():
    # every public function, class and constant the package binds, and no
    # submodule, is in __all__, once
    public = {
        name
        for name, value in vars(stiefelq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(stiefelq.__all__) == public
    assert len(stiefelq.__all__) == len(public)


# --- the contract of the public surface ---------------------------------------
#
# Every callable in ``__all__`` either answers with its documented type or
# raises ``ParameterError``; a plain ``ValueError`` only where its docstring
# (or, for an enum, the enum protocol) says so.  Record arguments are valid
# records of small (n, k, m), possibly of another (n, k, m) than the rest of
# the call: a non-record where a record belongs is outside the contract.
# Scalars are small ints or hostile values.

_SMALL_INTS = st.integers(-3, 40)
_HOSTILE = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.lists(_SMALL_INTS, max_size=3),
    st.lists(_SMALL_INTS, max_size=3).map(tuple),
)
_RANGES = st.tuples(_SMALL_INTS, _SMALL_INTS) | st.lists(_SMALL_INTS, min_size=2, max_size=2)

# valid-looking values of a scalar parameter, by name; any other scalar
# parameter draws small ints
_VALID = {
    "fmt": st.sampled_from(["json", "text", "csv_row", "csv"]),
    "primes": st.lists(st.sampled_from([2, 3, 5, 7, 4, 1]), max_size=3).map(tuple),
    "n_range": _RANGES,
    "k_range": _RANGES,
    "m_range": _RANGES,
    "jobs": st.integers(0, 2),
    "reason": st.text(max_size=5),
    "message": st.text(max_size=5),
}


@st.composite
def _small_params(draw):
    n = draw(st.integers(2, 8))
    return validate(n, draw(st.integers(1, n - 1)), draw(st.integers(2, 24)))


_REPORTS = st.builds(stiefelq.compute_report, _small_params())
_SAMPLE = stiefelq.compute_report(validate(9, 4, 6), (2, 3))  # every record class

# grids small enough for one chunk's worth of rows, so no pool starts
_SPECS = st.builds(
    stiefelq.GridSpec,
    n_range=st.integers(2, 4).map(lambda lo: (lo, lo + 2)),
    k_range=st.none() | st.just((1, 2)),
    m_range=st.integers(2, 5).map(lambda lo: (lo, lo + 3)),
    primes=st.none() | st.just((2, 3)),
    fmt=st.sampled_from(["csv", "json"]),
    jobs=st.integers(1, 2),
)

_RECORDS = {
    stiefelq.ManifoldParams: _small_params(),
    stiefelq.InvariantReport: _REPORTS,
    stiefelq.BasicInvariants: _REPORTS.map(attrgetter("basic")),
    stiefelq.TorsionProfile: _REPORTS.map(attrgetter("torsion")),
    stiefelq.CohomologyEntry: _REPORTS.map(lambda r: r.cohomology[-1]),
    stiefelq.RingPresentation: _REPORTS.map(lambda r: r.cohomology[-1].presentation),
    stiefelq.PolyGenerator: st.just(_SAMPLE.cohomology[0].presentation.poly_generator),
    stiefelq.CharClassReport: _REPORTS.map(attrgetter("char_classes")),
    stiefelq.PontrjaginTerm: _REPORTS.map(lambda r: r.char_classes.pontrjagin[0]),
    stiefelq.StiefelWhitneyTerm: st.sampled_from(_SAMPLE.char_classes.stiefel_whitney),
    stiefelq.SpanReport: _REPORTS.map(attrgetter("span")),
    stiefelq.GridSpec: _SPECS,
}


def _record_of(hint) -> type | None:
    """The record class a parameter's annotation asks for, looking through
    ``X | None`` and ``tuple[X, ...]``."""
    if hint in _RECORDS:
        return hint
    for arg in typing.get_args(hint):
        if arg in _RECORDS:
            return arg
    return None


def _argument(name: str, hint):
    record = _record_of(hint)
    if record is None:
        return _VALID.get(name, _SMALL_INTS) | _HOSTILE
    values = _RECORDS[record]
    if typing.get_origin(hint) is tuple:
        values = st.lists(values, max_size=2).map(tuple)
    if type(None) in typing.get_args(hint):
        values = st.none() | values
    return values


def _callables():
    for name in stiefelq.__all__:
        obj = getattr(stiefelq, name)
        if callable(obj):
            yield pytest.param(obj, id=name)


def _hints(fn) -> dict:
    """The annotations of ``fn``'s parameters: a record's are its fields'."""
    if dataclasses.is_dataclass(fn):
        return typing.get_type_hints(fn)
    return typing.get_type_hints(fn.__init__ if isinstance(fn, type) else fn)


def _arguments(fn) -> st.SearchStrategy:
    if isinstance(fn, enum.EnumMeta):
        return st.tuples(st.sampled_from([c.value for c in fn]) | _HOSTILE)
    params = inspect.signature(fn).parameters
    hints = _hints(fn)
    return st.tuples(*(_argument(name, hints[name]) for name in params))


def _answer_type(fn) -> type:
    if isinstance(fn, type):
        return fn
    hint = typing.get_type_hints(fn)["return"]
    return typing.get_origin(hint) or hint


# callables whose docstring documents a ValueError that is no ParameterError
_DOCUMENTED_VALUE_ERRORS = {stiefelq.report_from_json}


def test_the_contract_can_draw_every_parameter():
    # every parameter of every public callable but an enum is annotated, so
    # ``_arguments`` draws it as a record or a scalar
    for param in _callables():
        (fn,) = param.values
        if not isinstance(fn, enum.EnumMeta):
            assert set(inspect.signature(fn).parameters) <= set(_hints(fn)), fn


@pytest.mark.parametrize("fn", _callables())
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_public_callables_answer_or_refuse(fn, data):
    args = data.draw(_arguments(fn))
    try:
        answer = fn(*args)
        if isinstance(answer, collections.abc.Iterator):
            rows = list(answer)
            assert all(type(row) is bytes for row in rows)
    except ParameterError:
        return
    except ValueError:
        assert fn in _DOCUMENTED_VALUE_ERRORS or isinstance(fn, enum.EnumMeta), fn
        return
    assert isinstance(answer, _answer_type(fn))


_TOKENS = st.sampled_from([
    "compute", "table", "span", "--n", "--k", "--m", "--primes", "--format", "--jobs",
    "--ext-span", "--out", "--help", "-h", "auto", "json", "text", "csv", "csv_row",
    "-2", "-1", "0", "1", "2", "3", "4", "5", "6", "12", "1.5", "True", "0x3", "1_0",
    "2..4", "3..5", "5..3", "4..4", "0..3", "-2..2", "1..2", "3..", "..", "2..3..4",
    "2,3", "2,4", "3,2,3", ",", "2,,5", "x", "",
    # files: one to write, one that cannot be opened for writing
    "OUT", "DIR",
])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.lists(_TOKENS | st.text(max_size=3), max_size=9))
def test_cli_exits_0_or_2_on_any_tokens(argv, capsys, monkeypatch, tmp_path):
    # ranges reach at most 6, so no table is large enough to start a pool
    monkeypatch.delenv("STIEFEL_JOBS", raising=False)
    paths = {"OUT": str(tmp_path / "grid"), "DIR": str(tmp_path)}
    argv = [paths.get(token, token) for token in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 2), (argv, err)
    assert "internal error" not in err

"""Parameter validation and elementary invariants of the frame quotients.

The space under study is the quotient of the complex Stiefel manifold of
unitary k-frames in C^n by the scalar action of the m-th roots of unity.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import TypeVar

__all__ = [
    "ParameterError",
    "ManifoldParams",
    "BasicInvariants",
    "validate",
    "basic_invariants",
]


class ParameterError(ValueError):
    """A rejected user input; ``reason`` is a stable machine-readable code."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # the default rebuilds from ``args`` (the message) alone, so an error
        # raised in a pool worker could not be unpickled in the caller
        return type(self), (self.reason, *self.args)


_T = TypeVar("_T")


def _record(cls: type[_T]) -> type[_T]:
    """``dataclass(frozen=True)`` with a faster ``__init__``.

    The frozen dataclass ``__init__`` stores each field through
    ``object.__setattr__``, since the class's own ``__setattr__`` refuses
    every write; for the small records built once per item or per term that
    is most of their cost.  The ``__init__`` compiled here takes the same
    parameters, writes them into the instance dict and then calls
    ``__post_init__`` when the class has one; everything else is the
    dataclass's own.  Every field must be a positional ``__init__``
    parameter without a default, so the two signatures cannot drift apart.
    """
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls)]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if [p.name for p in params] != names or any(
        p.default is not p.empty or p.kind is not p.POSITIONAL_OR_KEYWORD for p in params
    ):
        raise TypeError(
            f"{cls.__name__}: a record's fields must all be positional, with no default"
        )
    lines = [f"def __init__(self, {', '.join(names)}):", "    __dict__ = self.__dict__"]
    # no dataclass field can be called __dict__, so the local shadows none
    lines += [f"    __dict__[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace: dict = {}
    exec("\n".join(lines), {}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


def _check_int(value: object, name: str) -> None:
    """Raise ``ParameterError`` with reason ``<name>-not-int`` unless
    ``value`` is exactly an int: a bool, or a float equal to an int, is
    refused."""
    if type(value) is not int:
        raise ParameterError(
            f"{name}-not-int", f"{name} must be an int, got {type(value).__name__} {value!r}"
        )


def _check_k(n: int, k: int) -> None:
    """Raise ``ParameterError`` with reason ``k-too-small`` or
    ``k-not-below-n`` unless the ints n and k have 1 <= k < n."""
    if k < 1:
        raise ParameterError("k-too-small", f"k must be >= 1, got {k}")
    if k >= n:
        raise ParameterError("k-not-below-n", f"k must be < n, got k={k}, n={n}")


@_record
class ManifoldParams:
    """The defining triple: k-frames in C^n modulo m-th roots of unity.

    Requires integers 1 <= k < n and m >= 2.  k = n (the full unitary group
    quotient) and m = 1 (no quotient) are rejected rather than special-cased:
    the closed forms implemented downstream are derived for this range only.
    """

    n: int
    k: int
    m: int

    def __post_init__(self) -> None:
        # Exact type test: it turns away bool (True is no frame count) and
        # costs little, since tables validate every grid point.
        if not type(self.n) is type(self.k) is type(self.m) is int:
            name = next(x for x in "nkm" if type(getattr(self, x)) is not int)
            value = getattr(self, name)
            raise ParameterError(
                f"{name}-not-int",
                f"{name} must be an int, got {type(value).__name__} {value!r}",
            )
        _check_k(self.n, self.k)
        if self.m < 2:
            raise ParameterError("m-too-small", f"m must be >= 2, got {self.m}")

    @property
    def dimension(self) -> int:
        return self.k * (2 * self.n - self.k)


def validate(n: int, k: int, m: int) -> ManifoldParams:
    """Check that n, k and m are ints (not bools) with 1 <= k < n and m >= 2,
    and return the validated triple."""
    return ManifoldParams(n, k, m)


@_record
class BasicInvariants:
    dimension: int
    pi1_order: int
    euler_characteristic: int
    orientable: bool
    picard_order: int
    almost_complex_guaranteed: bool
    complex_structure_guaranteed: bool


def basic_invariants(params: ManifoldParams) -> BasicInvariants:
    """Dimension, fundamental group, orientability, Picard group, and the
    complex-structure flags.

    The projection from the frame manifold is an m-fold covering, so the
    fundamental group is cyclic of order m and the Euler characteristic is 0;
    the group of isomorphism classes of complex line bundles is cyclic of
    order m, generated by the line bundle of the covering character.  The
    quotient carries an almost complex structure whenever k is even, and an
    integrable complex structure when additionally m divides n.  False means
    "not guaranteed by the implemented criteria", never "does not exist".
    """
    return BasicInvariants(
        dimension=params.dimension,
        pi1_order=params.m,
        euler_characteristic=0,
        orientable=True,
        picard_order=params.m,
        almost_complex_guaranteed=params.k % 2 == 0,
        complex_structure_guaranteed=params.k % 2 == 0 and params.n % params.m == 0,
    )

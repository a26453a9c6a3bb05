"""Scalar arithmetic shared by every evaluator in the package.

Three backends behind one small ring interface: exact rationals
(:class:`fractions.Fraction`, with plain ``int`` accepted as an integer
rational), IEEE-754 binary64 (Python ``float``), and symbolic term sums
(:class:`~vclde.symbolic.TermSum`).  Backends never coerce into each other:
:func:`rows_backend` raises :class:`BackendMismatchError` wherever values
from different backends meet.

A float64 query loads neither ``fractions`` nor ``decimal``: they are
imported where a rational is parsed, built, normalized or printed.  The
symbolic backend lives in :mod:`vclde.symbolic`, which only symbolic
queries and the verification commands load; its names are reached here on
first access (PEP 562), as ``scalar.TermSum`` and so on.

All values are immutable after construction and safe to share between
threads.  :class:`Frozen` is the base of the package's other immutable value
classes.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterable, Union

RATIONAL = "rational"
FLOAT64 = "float64"
SYMBOLIC = "symbolic"
BACKENDS = (RATIONAL, FLOAT64, SYMBOLIC)


class BackendMismatchError(TypeError):
    """Raised when an operation would mix scalar backends."""


class Frozen:
    """Base of the immutable value classes.  A subclass lists its fields in
    ``__slots__`` and sets each once, while the object is built, through
    :meth:`_set`; later assignment or deletion raises AttributeError.
    Equality, hashing and repr go by the field values."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        names = type(self).__slots__
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"{type(self).__name__}({body})"


Scalar = Union["Fraction", int, float, "TermSum"]

_SYMBOLIC_NAMES = frozenset(("TermSum", "h_sym", "phi_sym", "y_sym", "v_sym",
                             "term_sum_json_chunks", "term_sum_to_json"))


def __getattr__(name: str):
    if name in _SYMBOLIC_NAMES:
        from . import symbolic

        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The backend of each exact scalar type.  Fraction and TermSum enter when
# first met: neither can exist before its module is loaded, and a query that
# never meets one does not load it.
_BACKEND_OF_TYPE = {int: RATIONAL, float: FLOAT64}
_LOADED_LATER = (("fractions", "Fraction", RATIONAL),
                 (f"{__package__}.symbolic", "TermSum", SYMBOLIC))


def _exact_backend(cls: type) -> str | None:
    """The backend of values of exact type ``cls``; None for bool, for
    subclasses and for non-scalar types."""
    backend = _BACKEND_OF_TYPE.get(cls)
    if backend is None:
        for module, name, tag in _LOADED_LATER:
            if cls is getattr(sys.modules.get(module), name, None):
                backend = _BACKEND_OF_TYPE[cls] = tag
    return backend


def backend_of(value: Scalar) -> str:
    """Backend tag of a scalar value; rejects non-scalar inputs."""
    backend = _exact_backend(type(value))
    if backend is not None:
        return backend
    if isinstance(value, bool):
        raise BackendMismatchError("bool is not a scalar")
    if isinstance(value, int):
        return RATIONAL
    if isinstance(value, float):
        return FLOAT64
    for module, name, tag in _LOADED_LATER:
        cls = getattr(sys.modules.get(module), name, None)
        if cls is not None and isinstance(value, cls):
            return tag
    raise BackendMismatchError(f"not a scalar: {value!r}")


def rows_backend(rows: Iterable[Iterable[Scalar]], default: str | None = None) -> str | None:
    """The one backend shared by the values of ``rows``, or ``default`` when
    there are none; mixing backends is an error.  When their exact types all
    map to one backend they are read in one pass and not held; anything else
    (bool, subclasses, strays, mixtures) takes a second pass, which raises at
    the first offender, so ``rows`` and each row must be iterable twice."""
    tags = set(map(_exact_backend, set(map(type, itertools.chain.from_iterable(rows)))))
    if len(tags) == 1 and None not in tags:
        return tags.pop()
    found: str | None = None
    for v in itertools.chain.from_iterable(rows):
        b = backend_of(v)
        if found is None:
            found = b
        elif found != b:
            raise BackendMismatchError(f"backend mismatch: {found} vs {b}")
    return default if found is None else found


def sum_terms(terms: Iterable[Scalar]) -> Scalar | None:
    """Sum of ``terms``, or None when there are none.  Rationals and floats
    are added left to right, holding one term at a time; term sums are
    merged by :meth:`~vclde.symbolic.TermSum.sum`, in linear time."""
    terms = iter(terms)
    total = next(terms, None)
    if total is not None and backend_of(total) == SYMBOLIC:
        from .symbolic import TermSum

        return TermSum.sum(itertools.chain((total,), terms))
    for term in terms:
        total = total + term
    return total


def check_backend(rows: Iterable[Iterable[Scalar]], backend: str) -> None:
    """Raise :class:`BackendMismatchError` unless every value of ``rows``
    is of ``backend``; ``rows`` and each row must be iterable twice."""
    found = rows_backend(rows, backend)
    if found != backend:
        raise BackendMismatchError(f"backend mismatch: {backend} vs {found}")


def zero(backend: str) -> Scalar:
    if backend == RATIONAL:
        from fractions import Fraction

        return Fraction(0)
    if backend == FLOAT64:
        return 0.0
    if backend == SYMBOLIC:
        from .symbolic import TermSum

        return TermSum()
    raise ValueError(f"unknown backend: {backend!r}")


def one(backend: str) -> Scalar:
    if backend == RATIONAL:
        from fractions import Fraction

        return Fraction(1)
    if backend == FLOAT64:
        return 1.0
    if backend == SYMBOLIC:
        from .symbolic import TermSum

        return TermSum.constant(1)
    raise ValueError(f"unknown backend: {backend!r}")


def _int_str(n: int) -> str:
    # Decimal converts an int exactly and is not bound by CPython's
    # int-to-str digit limit, which exact answers routinely pass.
    from decimal import Decimal

    return str(Decimal(n))


def format_rational(value: Union["Fraction", int]) -> str:
    """Render a rational as "num/den", or plain "num" when integral, at any
    number of digits."""
    from fractions import Fraction

    f = Fraction(value)
    if f.denominator == 1:
        return _int_str(f.numerator)
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


def parse_rational(text: Union[str, int]) -> "Fraction":
    """Parse an integer, or a string "n", "n/d" or a decimal such as
    "-1.25e-3" as Fraction reads it, exactly.  A string whose numerator or
    denominator is written with more than sys.get_int_max_str_digits()
    digits, an exponent counting as its zeros, is refused before any big
    integer is built."""
    from fractions import Fraction

    if isinstance(text, bool):
        raise ValueError("bool is not a rational")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational values must be strings or integers, got {repr(text)[:40]}")
    # the interpreter's int digit limit, 4300 by default (0: none); without
    # an exponent no numerator or denominator has more digits than the text
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit and (len(text) > limit or "e" in text or "E" in text):
        body, _, divisor = text.lower().replace("_", "").partition("/")
        mantissa, _, exponent = body.partition("e")
        whole, _, fraction = mantissa.strip(" +-").partition(".")
        try:
            shift = int(exponent or 0) - len(fraction)
        except ValueError:
            shift = 0  # no rational: Fraction says so below
        if max(len(whole + fraction) + shift, 1 - shift, len(divisor.strip())) > limit:
            raise ValueError(f"{text[:40]!r} has more than {limit} digits in its "
                             "numerator or denominator")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text[:40]!r}") from None


def scalar_to_json(value: Scalar):
    kind = backend_of(value)
    if kind == RATIONAL:
        return format_rational(value)
    if kind == FLOAT64:
        return value
    from .symbolic import term_sum_to_json

    return term_sum_to_json(value)


def scalar_from_json(obj, arith: str) -> Scalar:
    """Parse one scalar from a JSON payload under the given arithmetic mode."""
    if arith == RATIONAL:
        if isinstance(obj, float):
            raise ValueError(
                f"rational mode requires 'num/den' strings or integers, got {obj!r}"
            )
        return parse_rational(obj)
    if arith == FLOAT64:
        if type(obj) is float and math.isfinite(obj):
            return obj
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ValueError(f"float64 mode requires JSON numbers, got {repr(obj)[:40]}")
        try:
            value = float(obj)
        except OverflowError:
            raise ValueError("integer too large for float64") from None
        if not math.isfinite(value):
            raise ValueError(f"float64 values must be finite, got {obj!r}")
        return value
    raise ValueError(f"no file scalars in arithmetic mode {arith!r}")


def render_scalar(value: Scalar) -> str:
    """Human-readable rendering used by the CLI's --pretty output."""
    kind = backend_of(value)
    if kind == RATIONAL:
        return format_rational(value)
    if kind == FLOAT64:
        return repr(value)
    return str(value)


def integer_step(row, head=None):
    """(row L, L, head L): a rational row and an extra entry ``head`` (None
    if there is none) scaled to integers by the lcm L of their
    denominators.  The one row-to-integer scaling of the package: the
    banded chain, the period skip and the verification expansions use it
    to run on integers over one denominator."""
    dens = [c.denominator for c in row]
    if head is not None:
        dens.append(head.denominator)
    lcm = math.lcm(*dens)
    ints = [c.numerator * (lcm // c.denominator) for c in row]
    return ints, lcm, None if head is None else head.numerator * (lcm // head.denominator)


def mat_mul(a, b, zero: Scalar):
    """Matrix product a b, skipping exact zeros, in any arithmetic."""
    out = []
    for a_row in a:
        row = []
        for col in zip(*b):
            acc: Scalar | None = None
            for x, y in zip(a_row, col):
                if not x or not y:
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else zero)
        out.append(tuple(row))
    return tuple(out)

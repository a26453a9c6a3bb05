"""Scalar arithmetic shared by every evaluator in the package.

Three backends behind one small ring interface: exact rationals
(:class:`fractions.Fraction`, with plain ``int`` accepted as an integer
rational), IEEE-754 binary64 (Python ``float``), and symbolic term sums
(:class:`TermSum`).  Backends never coerce into each other:
:func:`rows_backend` raises :class:`BackendMismatchError` wherever values
from different backends meet.

All values are immutable after construction and safe to share between
threads.  :class:`Frozen` is the base of the package's other immutable value
classes.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from bisect import bisect
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

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


# An atom is one of (0, i, j) for h[i,j], (1, t, m) for phi_m(t), (2, t) for
# y(t) and (3, t) for v(t).  Tuple order is the canonical order: h by (i, j),
# then phi by (t, m), then y, then v by t.  Only this module builds or reads
# atoms.
Atom = tuple
_KINDS = ("h", "phi", "y", "v")


def _atom_str(atom: Atom) -> str:
    kind = atom[0]
    if kind == 0:
        return f"h[{atom[1]},{atom[2]}]"
    if kind == 1:
        return f"phi{atom[2]}({atom[1]})"
    return f"{_KINDS[kind]}({atom[1]})"


def _atoms(value: "TermSum") -> float:
    """Atoms in the product of a one-product sum; infinite for other sums."""
    terms = value._terms
    return len(next(iter(terms))) if len(terms) == 1 else math.inf


class TermSum:
    """Canonical multiset of signed symbol products.

    Stored as a mapping from a sorted factor tuple to a nonzero integer
    coefficient.  Building the same sum from terms in any order, or the same
    product from factors in any order, yields the identical object, and
    opposite-sign copies of a term cancel.  The empty sum is the zero
    element; ``TermSum.constant(1)`` (the empty product) is the one element.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Atom, ...], int] | None = None):
        if terms:
            self._terms = {f: c for f, c in terms.items() if c}
        else:
            self._terms = {}

    @classmethod
    def constant(cls, value: int) -> "TermSum":
        if value == 0:
            return cls()
        return cls({(): int(value)})

    @classmethod
    def single(cls, atom: Atom) -> "TermSum":
        return cls({(atom,): 1})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_items(self) -> list[tuple[tuple[Atom, ...], int]]:
        """Terms as (factors, coefficient) pairs in canonical order."""
        return sorted(self._terms.items())

    @property
    def term_count(self) -> int:
        """Number of terms counted with multiplicity."""
        return sum(abs(c) for c in self._terms.values())

    def __add__(self, other: "TermSum") -> "TermSum":
        if not isinstance(other, TermSum):
            return NotImplemented
        merged = dict(self._terms)
        for factors, coeff in other._terms.items():
            total = merged.get(factors, 0) + coeff
            if total:
                merged[factors] = total
            else:
                merged.pop(factors, None)
        out = TermSum.__new__(TermSum)
        out._terms = merged
        return out

    def __neg__(self) -> "TermSum":
        out = TermSum.__new__(TermSum)
        out._terms = {f: -c for f, c in self._terms.items()}
        return out

    def __sub__(self, other: "TermSum") -> "TermSum":
        if not isinstance(other, TermSum):
            return NotImplemented
        return self + (-other)

    @classmethod
    def sum(cls, values: Iterable["TermSum"]) -> "TermSum":
        """Sum of ``values``, merged into one dict: linear in the total
        number of terms, where a fold of ``+`` copies the running sum at
        every step."""
        merged: dict[tuple[Atom, ...], int] = {}
        get = merged.get
        for value in values:
            for factors, coeff in value._terms.items():
                merged[factors] = get(factors, 0) + coeff
        out = cls.__new__(cls)
        out._terms = {f: c for f, c in merged.items() if c}
        return out

    def __mul__(self, other: "TermSum") -> "TermSum":
        if not isinstance(other, TermSum):
            return NotImplemented
        out = TermSum.__new__(TermSum)
        if len(self._terms) == 1 or len(other._terms) == 1:
            # one product times a sum, as the chain and the expansion walks
            # do: it maps distinct products to distinct products and scales
            # each coefficient by a nonzero integer, so no term merges or
            # cancels.  Each atom of the product (of the shorter one, when
            # both sides are one product) is inserted in sorted place.
            one, many = (self, other) if _atoms(self) <= _atoms(other) else (other, self)
            (f1, c1), = one._terms.items()
            terms = out._terms = {}
            for f2, c2 in many._terms.items():
                for atom in f1:
                    i = bisect(f2, atom)
                    f2 = f2[:i] + (atom,) + f2[i:]
                terms[f2] = c1 * c2
            return out
        merged: dict[tuple[Atom, ...], int] = {}
        for f1, c1 in self._terms.items():
            for f2, c2 in other._terms.items():
                key = tuple(sorted(f1 + f2))
                total = merged.get(key, 0) + c1 * c2
                if total:
                    merged[key] = total
                else:
                    merged.pop(key, None)
        out._terms = merged
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for factors, coeff in self.sorted_items():
            body = " ".join(_atom_str(a) for a in factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag} {body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TermSum({self})"


Scalar = Union[Fraction, int, float, TermSum]


def h_sym(i: int, j: int) -> TermSum:
    """Matrix-entry symbol h(i, j) as a one-term sum."""
    return TermSum.single((0, i, j))


def phi_sym(m: int, t: int) -> TermSum:
    """Coefficient symbol phi_m(t) as a one-term sum."""
    return TermSum.single((1, t, m))


def y_sym(t: int) -> TermSum:
    """Prescribed-value symbol y(t) as a one-term sum."""
    return TermSum.single((2, t))


def v_sym(t: int) -> TermSum:
    """Forcing symbol v(t) as a one-term sum."""
    return TermSum.single((3, t))


_BACKEND_OF_TYPE = {Fraction: RATIONAL, int: RATIONAL, float: FLOAT64, TermSum: SYMBOLIC}


def backend_of(value: Scalar) -> str:
    """Backend tag of a scalar value; rejects non-scalar inputs."""
    backend = _BACKEND_OF_TYPE.get(type(value))
    if backend is not None:
        return backend
    if isinstance(value, TermSum):
        return SYMBOLIC
    if isinstance(value, bool):
        raise BackendMismatchError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return RATIONAL
    if isinstance(value, float):
        return FLOAT64
    raise BackendMismatchError(f"not a scalar: {value!r}")


def rows_backend(rows: Iterable[Iterable[Scalar]], default: str | None = None) -> str | None:
    """The one backend shared by the values of ``rows``, or ``default`` when
    there are none; mixing backends is an error.  When their exact types all
    map to one backend they are read in one pass and not held; anything else
    (bool, subclasses, strays, mixtures) takes a second pass, which raises at
    the first offender, so ``rows`` and each row must be iterable twice."""
    tags = set(map(_BACKEND_OF_TYPE.get, set(map(type, itertools.chain.from_iterable(rows)))))
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
    merged by :meth:`TermSum.sum`, in linear time."""
    terms = iter(terms)
    total = next(terms, None)
    if isinstance(total, TermSum):
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
        return Fraction(0)
    if backend == FLOAT64:
        return 0.0
    if backend == SYMBOLIC:
        return TermSum()
    raise ValueError(f"unknown backend: {backend!r}")


def one(backend: str) -> Scalar:
    if backend == RATIONAL:
        return Fraction(1)
    if backend == FLOAT64:
        return 1.0
    if backend == SYMBOLIC:
        return TermSum.constant(1)
    raise ValueError(f"unknown backend: {backend!r}")


def scalars_close(a: Scalar, b: Scalar) -> bool:
    """Equality check: exact for rational/symbolic, tolerant for binary64."""
    if rows_backend(((a, b),)) == FLOAT64:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _int_str(n: int) -> str:
    # Decimal converts an int exactly and is not bound by CPython's
    # int-to-str digit limit, which exact answers routinely pass.
    return str(decimal.Decimal(n))


def format_rational(value: Union[Fraction, int]) -> str:
    """Render a rational as "num/den", or plain "num" when integral, at any
    number of digits."""
    f = Fraction(value)
    if f.denominator == 1:
        return _int_str(f.numerator)
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse an integer, or a string "n", "n/d" or a decimal such as
    "-1.25e-3" as Fraction reads it, exactly.  A string whose numerator or
    denominator is written with more than sys.get_int_max_str_digits()
    digits, an exponent counting as its zeros, is refused before any big
    integer is built."""
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


def term_sum_json_chunks(value: TermSum) -> Iterator[str]:
    """The compact sorted-key JSON text of a term sum, one entry at a time:
    an array of {factors, sign} in canonical order, a term with coefficient
    c written |c| times.  Each piece is an entry preceded by "[" or ",",
    and "]" closes the array.  Each distinct atom is rendered once."""
    atoms: dict[Atom, str] = {}
    terms = value._terms
    sep = "["
    for factors in sorted(terms):
        coeff = terms[factors]
        texts = []
        for atom in factors:
            text = atoms.get(atom)
            if text is None:
                kind = atom[0]
                if kind == 0:
                    text = f'{{"i":{atom[1]},"j":{atom[2]},"kind":"h"}}'
                elif kind == 1:
                    text = f'{{"kind":"phi","m":{atom[2]},"t":{atom[1]}}}'
                else:
                    text = f'{{"kind":"{_KINDS[kind]}","t":{atom[1]}}}'
                atoms[atom] = text
            texts.append(text)
        body = ",".join(texts)
        sign = 1 if coeff > 0 else -1
        for _ in range(abs(coeff)):
            yield f'{sep}{{"factors":[{body}],"sign":{sign}}}'
            sep = ","
    yield "]" if sep == "," else "[]"


def term_sum_to_json(value: TermSum) -> list[dict]:
    """Sorted JSON array of {sign, factors}; multiplicities are repeated."""
    import json

    return json.loads("".join(term_sum_json_chunks(value)))


def scalar_to_json(value: Scalar):
    kind = backend_of(value)
    if kind == RATIONAL:
        return format_rational(value)
    if kind == FLOAT64:
        return value
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

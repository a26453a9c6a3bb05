"""The symbolic backend: :class:`TermSum`, a canonical sum of signed
products of the symbols h[i,j], phi_m(t), y(t) and v(t), the one-symbol
sums that build the symbolic models and problems, and the JSON writer of a
term sum.

Only symbolic queries and the verification commands load this module;
:mod:`vclde.scalar` reaches its names on first access.
"""

from __future__ import annotations

import math
from bisect import bisect
from typing import Iterable, Iterator, Mapping

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
        # the union is copied at C level; only the shared products need a
        # Python step, to add or cancel
        a, b = self._terms, other._terms
        merged = {**a, **b}
        for factors in a.keys() & b.keys():
            total = a[factors] + b[factors]
            if total:
                merged[factors] = total
            else:
                del merged[factors]
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

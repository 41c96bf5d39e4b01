"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Polynomials are bound to a :class:`VarRegistry` fixing the variable order,
and store their terms as a map from packed exponent vectors to nonzero int
coefficients.  A packed key is one int holding a 16-bit field per registry
variable, the first variable in the most significant field; the top bit of
each field is a guard, so an exponent lies in ``0..MAX_EXPONENT`` (2^15 - 1)
and a product that would exceed it raises :class:`SizeLimitExceeded`.
Adding two keys multiplies the monomials (Monagan & Pearce's packed
exponent vectors), and descending key order is descending exponent vector
in registry order.  :meth:`MultiPoly.items` decodes keys back to tuples.

Rationals are :class:`fractions.Fraction` (already reduced, positive
denominator); a rational point is a plain ``{name: Fraction}`` mapping.

Canonical text grammar (see :func:`to_canonical_string`):
``term := coeff ["*" var ["^" int]]*``, terms joined by `` + `` / `` - ``,
ordered by ascending total degree, ties by descending exponent vector in
registry order.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import lcm
from numbers import Rational as _Rational
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    MissingVariable,
    ParseError,
    RegistryMismatch,
    SingularMatrix,
    SizeLimitExceeded,
)

Rational = Fraction

GLOBAL_VARS = ("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


@dataclass(frozen=True)
class VarRegistry:
    names: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        # The packed-key layout: each name's field offset, the guard bits of
        # all fields, and the codec that splits a key into its fields.
        n = len(self.names)
        shift = {name: FIELD_BITS * (n - 1 - i) for i, name in enumerate(self.names)}
        guard = sum(1 << (s + FIELD_BITS - 1) for s in shift.values())
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_guard", guard)
        object.__setattr__(self, "_codec", struct.Struct(f">{n}H"))

    def __reduce__(self):
        # A Struct does not pickle; the layout is rebuilt from the names.
        return VarRegistry, (self.names,)

    @classmethod
    def of(cls, *names: str) -> "VarRegistry":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._shift

    def _field(self, name: str) -> int:
        try:
            return self._shift[name]
        except KeyError:
            raise MissingVariable(name) from None

    def _pack(self, powers: Mapping[str, int]) -> int:
        key = 0
        for name, power in powers.items():
            if not 0 <= power <= MAX_EXPONENT:
                raise ValueError(f"exponent {power} of {name} outside 0..{MAX_EXPONENT}")
            key |= power << self._field(name)
        return key


def standard_registry(edge_labels: Iterable[str] = ()) -> VarRegistry:
    """Global variables first, then per-edge a_l, b_l, c_l, x_l, y_l blocks
    in label order."""
    names = list(GLOBAL_VARS)
    for label in sorted(edge_labels):
        names.extend(f"{stem}_{label}" for stem in ("a", "b", "c", "x", "y"))
    return VarRegistry(tuple(names))


class MultiPoly:
    """Immutable sparse polynomial with exact integer coefficients.

    ``terms`` maps packed exponent keys (see the module docstring) to
    nonzero coefficients.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Optional[Mapping] = None):
        """``terms`` maps exponent tuples, one entry per registry variable,
        to int coefficients; zero coefficients are dropped."""
        n = len(registry)
        packed = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has {len(exps)} entries, expected {n}")
            if coeff:
                packed[registry._pack(dict(zip(registry.names, exps)))] = coeff
        self.registry = registry
        self.terms = packed

    @classmethod
    def _make(cls, registry: VarRegistry, terms: dict) -> "MultiPoly":
        """Wrap packed, zero-free ``terms`` without checking them."""
        p = object.__new__(cls)
        p.registry = registry
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: VarRegistry) -> "MultiPoly":
        return cls._make(registry, {})

    @classmethod
    def const(cls, registry: VarRegistry, value: int) -> "MultiPoly":
        return cls._make(registry, {0: value} if value else {})

    @classmethod
    def var(cls, registry: VarRegistry, name: str, power: int = 1) -> "MultiPoly":
        return cls._make(registry, {registry._pack({name: power}): 1})

    @classmethod
    def monomial(cls, registry: VarRegistry, powers: Mapping[str, int], coeff: int = 1):
        key = registry._pack(powers)
        return cls._make(registry, {key: coeff} if coeff else {})

    def items(self):
        """Yield ``(exponent tuple, coeff)`` pairs, exponents in registry
        order."""
        size = 2 * len(self.registry)
        unpack = self.registry._codec.unpack
        for key, coeff in self.terms.items():
            yield unpack(key.to_bytes(size, "big")), coeff

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.registry is not other.registry and self.registry != other.registry:
            raise RegistryMismatch("operands use different variable registries")

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            coeff = get(key, 0) + sign * coeff
            if coeff:
                terms[key] = coeff
            else:
                del terms[key]
        return MultiPoly._make(self.registry, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.registry, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:
            # Monomial times polynomial: distinct keys stay distinct and
            # nonzero coefficients stay nonzero.
            ((k1, c1),) = small.items()
            if c1 == 1:
                terms = {k1 + k2: c2 for k2, c2 in large.items()}
            else:
                terms = {k1 + k2: c1 * c2 for k2, c2 in large.items()}
        else:
            terms = {}
            get = terms.get
            for k1, c1 in small.items():
                for k2, c2 in large.items():
                    key = k1 + k2
                    terms[key] = get(key, 0) + c1 * c2
            if 0 in terms.values():
                terms = {k: c for k, c in terms.items() if c}
        # Operand fields are at most MAX_EXPONENT, so a field sum never
        # carries into its neighbour; an overflow sets that field's guard.
        if reduce(or_, terms, 0) & self.registry._guard:
            raise SizeLimitExceeded(f"a product has an exponent above {MAX_EXPONENT}")
        return MultiPoly._make(self.registry, terms)

    __rmul__ = __mul__

    def scale(self, value: int) -> "MultiPoly":
        if not value:
            return MultiPoly.zero(self.registry)
        return MultiPoly._make(self.registry, {k: c * value for k, c in self.terms.items()})

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        result = MultiPoly.const(self.registry, 1)
        for _ in range(power):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.registry == other.registry
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.registry, frozenset(self.terms.items())))

    # -- evaluation and substitution ----------------------------------------

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation; the point must cover the whole registry."""
        values = []
        for name in self.registry.names:
            if name not in point:
                raise MissingVariable(name)
            values.append(Fraction(point[name]))
        total = Fraction(0)
        for exps, coeff in self.items():
            term = Fraction(coeff)
            for value, power in zip(values, exps):
                if power:
                    term *= value**power
            total += term
        return total

    def set_to_one(self, name: str) -> "MultiPoly":
        """Substitute 1 for a variable (its exponents collapse)."""
        keep = ~(((1 << FIELD_BITS) - 1) << self.registry._field(name))
        terms: dict = {}
        get = terms.get
        for key, coeff in self.terms.items():
            key &= keep
            terms[key] = get(key, 0) + coeff
        return MultiPoly._make(self.registry, {k: c for k, c in terms.items() if c})

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Replace variables by polynomials over the same registry."""
        names = self.registry.names
        result = MultiPoly.zero(self.registry)
        for exps, coeff in self.items():
            term = MultiPoly.const(self.registry, coeff)
            for name, power in zip(names, exps):
                if not power:
                    continue
                if name in assignments:
                    term = term * assignments[name] ** power
                else:
                    term = term * MultiPoly.var(self.registry, name, power)
            result = result + term
        return result

    # -- canonical text ------------------------------------------------------

    def sorted_terms(self):
        """``(exponent tuple, coeff)`` pairs in canonical order: ascending
        total degree, ties by descending packed key."""
        size = 2 * len(self.registry)
        unpack = self.registry._codec.unpack
        terms = self.terms
        rows = [(unpack(k.to_bytes(size, "big")), terms[k]) for k in sorted(terms, reverse=True)]
        rows.sort(key=lambda row: sum(row[0]))  # stable: ties keep descending keys
        return rows

    def __repr__(self):
        return f"MultiPoly({to_canonical_string(self)!r})"


def to_canonical_string(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    names = p.registry.names
    pieces = []
    for exps, coeff in p.sorted_terms():
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(compress(names, exps), filter(None, exps))
        ]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        pieces.append(" - " if coeff < 0 else " + ")
        pieces.append("*".join(factors))
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


# A sign after a space separates terms; any other "-" belongs to its term.
_TERM_SIGN = re.compile(r"(?<= )([+-])")


def parse_poly(text: str, registry: VarRegistry) -> MultiPoly:
    """Inverse of :func:`to_canonical_string` (tolerant of extra spaces).

    Duplicate monomials are summed.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial string")
    if text == "0":
        return MultiPoly.zero(registry)
    first = "+"
    if text.startswith("-"):
        first, text = "-", text[1:]
    parts = _TERM_SIGN.split(text)
    terms: dict = {}
    get = terms.get
    for sign, chunk in zip([first] + parts[1::2], parts[0::2]):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        try:
            key, coeff = _parse_term(chunk, registry)
        except ValueError as exc:  # an exponent out of range, or too many digits for int()
            raise ParseError(f"{exc} in term {chunk!r}") from None
        terms[key] = get(key, 0) + (-coeff if sign == "-" else coeff)
    return MultiPoly._make(registry, {k: c for k, c in terms.items() if c})


def _parse_term(chunk: str, registry: VarRegistry):
    """The packed key and the coefficient of one unsigned term."""
    coeff = 1
    powers: dict = {}
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not factor:
            raise ParseError(f"empty factor in term {chunk!r}")
        if (factor[1:] if factor[0] == "-" else factor).isdecimal():
            coeff *= int(factor)
            continue
        name, caret, exp = factor.partition("^")
        if caret and not exp.isdecimal():
            raise ParseError(f"bad exponent in {factor!r}")
        if name not in registry:
            raise ParseError(f"unknown variable {name!r}")
        powers[name] = powers.get(name, 0) + (int(exp) if caret else 1)
    return registry._pack(powers), coeff


# --------------------------------------------------------------------------
# exact linear algebra


def common_denominator(values) -> tuple:
    """Rationals as ``(numerators, d)``: integer numerators over ``d``, the
    least common denominator of ``values``."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _eliminate(matrix, rhs):
    """Bareiss's fraction-free elimination of ``[A | rhs]``, rows pivoted.

    Each row is first scaled to integers by the lcm of its denominators;
    every later entry is then an integer minor of the scaled matrix, and each
    division is exact (Bareiss, Math. Comp. 1968).  Returns ``(rows, d,
    scale)``: the eliminated rows, upper triangular in their first ``n``
    columns; ``d``, the determinant of the scaled matrix (0 when A is
    singular, the rows then left half eliminated); and ``scale``, the product
    of the row scales, so that det(A) = d / scale.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    rows = []
    scale = 1
    for row in [[*row, b] for row, b in zip(matrix, rhs)] if rhs else matrix:
        row, m = common_denominator([x if isinstance(x, _Rational) else Fraction(x) for x in row])
        rows.append(row)
        scale *= m
    width = n + (1 if rhs else 0)
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return rows, 0, scale
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1 :]:
            a = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    return rows, sign * prev, scale


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly, by :func:`_eliminate`'s fraction-free
    elimination.

    With d the determinant of the row-scaled A, d * x is integral (Cramer's
    rule), so back substitution runs on d * x over the integers and each
    unknown becomes one ``Fraction`` at the end.  Raises
    :class:`SingularMatrix` when A has no unique solution.
    """
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError("matrix must be square and match the rhs length")
    rows, d, _ = _eliminate(matrix, rhs)
    if not d:
        raise SingularMatrix("matrix is singular")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = d * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return [Fraction(v, d) for v in y]


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """det(A), exactly, by :func:`_eliminate`'s fraction-free elimination."""
    _, d, scale = _eliminate(matrix, ())
    return Fraction(d, scale)

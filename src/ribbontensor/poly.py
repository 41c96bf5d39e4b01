"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Polynomials are stored as maps from exponent vectors to nonzero int
coefficients, bound to a :class:`VarRegistry` fixing the variable order.
Rationals are :class:`fractions.Fraction` (already reduced, positive
denominator); a rational point is a plain ``{name: Fraction}`` mapping.

Canonical text grammar (see :func:`to_canonical_string`):
``term := coeff ["*" var ["^" int]]*``, terms joined by `` + `` / `` - ``,
ordered by ascending total degree, ties by descending exponent vector in
registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MissingVariable, ParseError, RegistryMismatch, SingularMatrix

Rational = Fraction
RationalPoint = Mapping[str, Fraction]

GLOBAL_VARS = ("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")


@dataclass(frozen=True)
class VarRegistry:
    names: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @classmethod
    def of(cls, *names: str) -> "VarRegistry":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingVariable(name) from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names


def standard_registry(edge_labels: Iterable[str] = ()) -> VarRegistry:
    """Global variables first, then per-edge a_l, b_l, c_l, x_l, y_l blocks
    in label order."""
    names = list(GLOBAL_VARS)
    for label in sorted(edge_labels):
        names.extend(f"{stem}_{label}" for stem in ("a", "b", "c", "x", "y"))
    return VarRegistry(tuple(names))


class MultiPoly:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Optional[Mapping] = None):
        self.registry = registry
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: VarRegistry) -> "MultiPoly":
        return cls(registry)

    @classmethod
    def const(cls, registry: VarRegistry, value: int) -> "MultiPoly":
        if value == 0:
            return cls(registry)
        return cls(registry, {(0,) * len(registry): value})

    @classmethod
    def var(cls, registry: VarRegistry, name: str, power: int = 1) -> "MultiPoly":
        exps = [0] * len(registry)
        exps[registry.index(name)] = power
        return cls(registry, {tuple(exps): 1})

    @classmethod
    def monomial(cls, registry: VarRegistry, powers: Mapping[str, int], coeff: int = 1):
        exps = [0] * len(registry)
        for name, power in powers.items():
            exps[registry.index(name)] = power
        return cls(registry, {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.registry != other.registry:
            raise RegistryMismatch("operands use different variable registries")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly(self.registry, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) - coeff
        return MultiPoly(self.registry, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.registry, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly(self.registry, terms)

    __rmul__ = __mul__

    def scale(self, value: int) -> "MultiPoly":
        return MultiPoly(self.registry, {e: c * value for e, c in self.terms.items()})

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

    def eval_at(self, point: RationalPoint) -> Fraction:
        """Exact evaluation; the point must cover the whole registry."""
        values = []
        for name in self.registry.names:
            if name not in point:
                raise MissingVariable(name)
            values.append(Fraction(point[name]))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for value, power in zip(values, exps):
                if power:
                    term *= value**power
            total += term
        return total

    def set_to_one(self, name: str) -> "MultiPoly":
        """Substitute 1 for a variable (its exponents collapse)."""
        i = self.registry.index(name)
        terms: dict = {}
        for exps, coeff in self.terms.items():
            key = exps[:i] + (0,) + exps[i + 1 :]
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly(self.registry, terms)

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Replace variables by polynomials over the same registry."""
        result = MultiPoly.zero(self.registry)
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(self.registry, coeff)
            for i, power in enumerate(exps):
                if not power:
                    continue
                name = self.registry.names[i]
                if name in assignments:
                    term = term * assignments[name] ** power
                else:
                    term = term * MultiPoly.var(self.registry, name, power)
            result = result + term
        return result

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- canonical text ------------------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )

    def __repr__(self):
        return f"MultiPoly({to_canonical_string(self)!r})"


def to_canonical_string(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for n, (exps, coeff) in enumerate(p.sorted_terms()):
        factors = []
        for name, power in zip(p.registry.names, exps):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        mag = abs(coeff)
        if factors:
            body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if n == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def parse_poly(text: str, registry: VarRegistry) -> MultiPoly:
    """Inverse of :func:`to_canonical_string` (tolerant of extra spaces)."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial string")
    if text == "0":
        return MultiPoly.zero(registry)
    chunks = []
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    buf = ""
    i = 0
    while i < len(text):
        if text[i] in "+-" and i > 0 and text[i - 1] == " ":
            chunks.append((sign, buf.strip()))
            sign = 1 if text[i] == "+" else -1
            buf = ""
            i += 2
        else:
            buf += text[i]
            i += 1
    chunks.append((sign, buf.strip()))
    result = MultiPoly.zero(registry)
    for sign, chunk in chunks:
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = sign
        powers: dict = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, exp = factor.partition("^")
                if not exp.isdigit():
                    raise ParseError(f"bad exponent in {factor!r}")
                power = int(exp)
            else:
                name, power = factor, 1
            if name not in registry:
                raise ParseError(f"unknown variable {name!r}")
            powers[name] = powers.get(name, 0) + power
        result = result + MultiPoly.monomial(registry, powers, coeff)
    return result


# --------------------------------------------------------------------------
# exact linear algebra


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly by pivoted Gaussian elimination.

    Raises :class:`SingularMatrix` when A has no unique solution.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the rhs length")
    a = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det

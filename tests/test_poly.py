"""Exact polynomial ring, canonical text, and the rational linear solver."""

import random
from fractions import Fraction

import pytest

from ribbontensor.errors import (
    MissingVariable,
    ParseError,
    RegistryMismatch,
    SingularMatrix,
)
from ribbontensor.poly import (
    MultiPoly,
    VarRegistry,
    determinant,
    parse_poly,
    solve_linear,
    standard_registry,
    to_canonical_string,
)

REG = VarRegistry.of("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")


def v(name):
    return MultiPoly.var(REG, name)


def test_difference_of_squares():
    assert (v("a") + v("b")) * (v("a") - v("b")) == v("a") ** 2 - v("b") ** 2


def test_additive_identity():
    p = v("a") * v("b") + MultiPoly.const(REG, 3)
    assert p + MultiPoly.zero(REG) == p


def test_variable_powers_accumulate():
    assert v("alpha") * (v("alpha") * v("beta") * v("gamma")) == parse_poly(
        "alpha^2*beta*gamma", REG
    )


def test_registry_mismatch():
    other = VarRegistry.of("a", "b")
    with pytest.raises(RegistryMismatch):
        v("a") + MultiPoly.var(other, "a")


def test_eval_examples():
    p = parse_poly("alpha^2*beta*gamma", REG)
    pt = {name: Fraction(1) for name in REG.names}
    pt.update(alpha=Fraction(2), beta=Fraction(3), gamma=Fraction(5))
    assert p.eval_at(pt) == 60
    assert MultiPoly.zero(REG).eval_at(pt) == 0
    pt.update(a=Fraction(1, 2), b=Fraction(1, 3))
    assert (v("a") + v("b")).eval_at(pt) == Fraction(5, 6)


def test_eval_requires_full_coverage():
    with pytest.raises(MissingVariable):
        v("a").eval_at({"a": Fraction(1)})


def test_canonical_string_examples():
    assert to_canonical_string(v("a") ** 2 - v("b") ** 2) == "a^2 - b^2"
    assert to_canonical_string(MultiPoly.zero(REG)) == "0"
    prod = (v("a") + v("b")) * v("alpha") * v("beta") * v("gamma")
    assert to_canonical_string(prod) == "a*alpha*beta*gamma + b*alpha*beta*gamma"


def test_canonical_string_sorts_by_degree_then_lex():
    p = parse_poly("1 + y*z", VarRegistry.of("x", "y", "z"))
    assert to_canonical_string(p) == "1 + y*z"
    q = parse_poly("a + a^2 + b", REG)
    assert to_canonical_string(q) == "a + b + a^2"


def test_parse_round_trip_random():
    rng = random.Random(21)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 3) for _ in REG.names)
            terms[exps] = rng.randint(-9, 9)
        p = MultiPoly(REG, terms)
        assert parse_poly(to_canonical_string(p), REG) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("a + unknownvar", REG)
    with pytest.raises(ParseError):
        parse_poly("", REG)


def test_parse_rejects_negative_exponents():
    # "2*a^-1*b" would otherwise print back as "2*b".
    for text in ("2*a^-1*b", "a^-2", "b*c^-0"):
        with pytest.raises(ParseError, match="bad exponent"):
            parse_poly(text, REG)
    assert parse_poly("a^0*b", REG) == v("b")


def _random_poly(rng, registry):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in registry.names)
        terms[exps] = rng.randint(-5, 5)
    return MultiPoly(registry, terms)


def test_ring_axioms_random():
    rng = random.Random(22)
    small = VarRegistry.of("a", "b", "c")
    for _ in range(100):
        p, q, r = (_random_poly(rng, small) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


def test_eval_is_ring_homomorphism():
    rng = random.Random(23)
    small = VarRegistry.of("a", "b", "c")
    for _ in range(200):
        p, q = _random_poly(rng, small), _random_poly(rng, small)
        pt = {
            n: Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for n in small.names
        }
        assert (p * q).eval_at(pt) == p.eval_at(pt) * q.eval_at(pt)
        assert (p + q).eval_at(pt) == p.eval_at(pt) + q.eval_at(pt)


def test_canonical_string_injective():
    rng = random.Random(24)
    small = VarRegistry.of("a", "b")
    seen = {}
    for _ in range(300):
        p = _random_poly(rng, small)
        s = to_canonical_string(p)
        if s in seen:
            assert seen[s] == p
        seen[s] = p


def test_solve_identity():
    rhs = [Fraction(3), Fraction(-5), Fraction(7, 2)]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert solve_linear(eye, rhs) == rhs


def test_solve_diagonal():
    out = solve_linear([[Fraction(2), 0], [0, Fraction(3)]], [Fraction(1), Fraction(1)])
    assert out == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_singular():
    with pytest.raises(SingularMatrix):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]],
                     [Fraction(1), Fraction(1)])


def test_solve_then_multiply_round_trip():
    rng = random.Random(25)
    for _ in range(50):
        n = rng.randint(1, 5)
        while True:
            a = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            if determinant(a) != 0:
                break
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        x = solve_linear(a, rhs)
        back = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert back == rhs


def test_standard_registry_order():
    reg = standard_registry(["g", "f"])
    assert reg.names[:9] == ("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")
    assert reg.names[9:14] == ("a_f", "b_f", "c_f", "x_f", "y_f")
    assert reg.names[14:] == ("a_g", "b_g", "c_g", "x_g", "y_g")

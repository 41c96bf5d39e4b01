"""Exact polynomial ring, canonical text, and the rational linear solver."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbontensor import polynomials, randgen
from ribbontensor.errors import (
    MissingVariable,
    ParseError,
    RegistryMismatch,
    SingularMatrix,
    SizeLimitExceeded,
)
from ribbontensor.poly import (
    MAX_EXPONENT,
    MultiPoly,
    VarRegistry,
    determinant,
    parse_poly,
    solve_linear,
    standard_registry,
    to_canonical_string,
)
from state_sum_reference import monomial, registry_of, substitute

REG = registry_of("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")


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
    other = registry_of("a", "b")
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
    p = parse_poly("1 + y*z", registry_of("x", "y", "z"))
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
    small = registry_of("a", "b", "c")
    for _ in range(100):
        p, q, r = (_random_poly(rng, small) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


def test_eval_is_ring_homomorphism():
    rng = random.Random(23)
    small = registry_of("a", "b", "c")
    for _ in range(200):
        p, q = _random_poly(rng, small), _random_poly(rng, small)
        pt = {
            n: Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for n in small.names
        }
        assert (p * q).eval_at(pt) == p.eval_at(pt) * q.eval_at(pt)
        assert (p + q).eval_at(pt) == p.eval_at(pt) + q.eval_at(pt)


def test_canonical_string_injective():
    rng = random.Random(24)
    small = registry_of("a", "b")
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
    assert solve_linear(eye, [rhs]) == [rhs]


def test_solve_diagonal():
    out = solve_linear([[Fraction(2), 0], [0, Fraction(3)]], [[Fraction(1), Fraction(1)]])
    assert out == [[Fraction(1, 2), Fraction(1, 3)]]


def test_solve_singular():
    with pytest.raises(SingularMatrix):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]],
                     [[Fraction(1), Fraction(1)]])


def test_solve_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        determinant([[1, 2]])
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [[1, 2], [3]])


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
        (x,) = solve_linear(a, [rhs])
        back = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert back == rhs


def _laplace(a):
    """The determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * _laplace([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _square_systems(draw):
    """Small ``(A, columns, scale)``: often a zero leading entry, which
    forces a row swap, and often a row that is the sum of two others, which
    makes A singular.  Half the systems are integers throughout, as the
    verifier's are, and take no row scaling; one to three right-hand
    columns; a scale of 1 or a rational, zero included."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from((st.integers(-3, 3), _entries)))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        a[0][0] = 0
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a[k] = [x + y for x, y in zip(a[i], a[j])]
    column = st.lists(entries, min_size=n, max_size=n)
    columns = draw(st.lists(column, min_size=1, max_size=3))
    scale = draw(st.one_of(st.just(1), st.fractions(-3, 3, max_denominator=4)))
    return a, columns, scale


@settings(deadline=None, max_examples=300)
@given(_square_systems())
def test_exact_solver(system):
    a, columns, scale = system
    det = determinant(a)
    assert det == _laplace(a)
    if det == 0 or scale == 0:
        with pytest.raises(SingularMatrix):
            solve_linear(a, columns, scale)
    else:
        solutions = solve_linear(a, columns, scale)
        assert len(solutions) == len(columns)
        for b, x in zip(columns, solutions):
            assert all(type(v) is Fraction for v in x)
            assert [scale * sum(row[j] * x[j] for j in range(len(x))) for row in a] == b
            assert solve_linear(a, [b], scale) == [x]


def test_standard_registry_order():
    reg = standard_registry(["g", "f"])
    assert reg.names[:9] == ("a", "b", "c", "x", "y", "alpha", "beta", "gamma", "t")
    assert reg.names[9:14] == ("a_f", "b_f", "c_f", "x_f", "y_f")
    assert reg.names[14:] == ("a_g", "b_g", "c_g", "x_g", "y_g")


# --------------------------------------------------------------------------
# packed storage: properties against tuple-key references

SMALL = registry_of("a", "b", "c")
# The criterion-1 registry: global variables and five per edge for six edges.
WIDE = standard_registry(f"e{i}" for i in range(6))


def polys(registry, exponents=st.integers(0, 3), max_terms=6):
    keys = st.tuples(*[exponents] * len(registry))
    coeffs = st.integers(-50, 50)
    return st.dictionaries(keys, coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(registry, terms)
    )


any_registry_polys = st.one_of(
    polys(SMALL, st.integers(0, MAX_EXPONENT)),
    polys(REG),
    polys(WIDE, st.sampled_from((0, 0, 0, 1, 2, MAX_EXPONENT)), max_terms=12),
)
small_polys = polys(SMALL)
points = st.fixed_dictionaries(
    {n: st.fractions(-4, 4, max_denominator=4) for n in SMALL.names}
)


def reference_canonical_string(p):
    """Sort decoded exponent tuples directly and format each term."""
    rows = sorted(p.items(), key=lambda row: (sum(row[0]), tuple(-e for e in row[0])))
    pieces = []
    for exps, coeff in rows:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.registry.names, exps)
            if e
        ]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        pieces.append((" - " if coeff < 0 else " + ") + "*".join(factors))
    if not pieces:
        return "0"
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


@settings(deadline=None)
@given(any_registry_polys)
def test_canonical_text_round_trips(p):
    assert parse_poly(to_canonical_string(p), p.registry) == p


@settings(deadline=None)
@given(any_registry_polys)
def test_canonical_order_matches_tuple_sort(p):
    assert to_canonical_string(p) == reference_canonical_string(p)


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(0, 300))
def test_canonical_order_matches_tuple_sort_on_wide_polys(rng, n_terms):
    # Up to 300 terms over the 39-variable registry, each exponent vector
    # three 13-field blocks drawn from small pools: halves of keys repeat
    # across terms wherever the text splits them, and fields at
    # MAX_EXPONENT push total degrees past 65,535.
    fields = (0, 0, 0, 1, 2, MAX_EXPONENT)
    pools = [[tuple(rng.choice(fields) for _ in range(13)) for _ in range(7)] for _ in range(3)]
    terms = {
        sum((rng.choice(pool) for pool in pools), ()): rng.choice((-7, -2, -1, 1, 1, 3))
        for _ in range(n_terms)
    }
    p = MultiPoly(WIDE, terms)
    assert to_canonical_string(p) == reference_canonical_string(p)


def test_canonical_text_edge_cases():
    none, one = VarRegistry(()), registry_of("x")
    cases = [MultiPoly.const(reg, c) for reg in (none, one, REG, WIDE) for c in (1, -1, 0, 12)]
    x, unit = MultiPoly.var(one, "x"), MultiPoly.const(one, 1)
    cases += [x, -x, x * 3 - unit, x**2 - x + unit, monomial(one, {"x": MAX_EXPONENT})]
    cases += [sign * v(name) for sign in (1, -1) for name in ("a", "t")]
    cases += [monomial(WIDE, {n: 1 for n in WIDE.names}, -1)]
    # total degree above 65,535 from three fields at MAX_EXPONENT
    top = monomial(WIDE, {"a": MAX_EXPONENT, "t": MAX_EXPONENT, "y_e5": MAX_EXPONENT})
    cases += [top - monomial(WIDE, {"b": MAX_EXPONENT}), top + MultiPoly.const(WIDE, 1)]
    for p in cases:
        assert to_canonical_string(p) == reference_canonical_string(p)
    assert [to_canonical_string(p) for p in cases[:4]] == ["1", "-1", "0", "12"]
    assert to_canonical_string(x * 3 - unit) == "-1 + 3*x"
    assert to_canonical_string(-v("t")) == "-t"
    top_text = f"a^{MAX_EXPONENT}*t^{MAX_EXPONENT}*y_e5^{MAX_EXPONENT}"
    assert to_canonical_string(cases[-1]) == f"1 + {top_text}"
    assert to_canonical_string(cases[-2]) == f"-b^{MAX_EXPONENT} + {top_text}"


def test_canonical_text_keeps_nothing_between_calls():
    # Two registries of one length share every packed key; formatting one
    # after the other must name each registry's own variables.
    first, second = registry_of("a", "b", "c", "d"), registry_of("p", "q", "r", "s")
    terms = {(1, 0, 2, 0): 3, (0, 1, 0, 1): -1, (0, 0, 0, 0): 5, (2, 2, 0, 0): 1}
    texts = []
    for reg in (first, second, first):
        p = MultiPoly(reg, terms)
        texts.append(to_canonical_string(p))
        assert texts[-1] == reference_canonical_string(p)
    assert texts == ["5 - b*d + 3*a*c^2 + a^2*b^2", "5 - q*s + 3*p*r^2 + p^2*q^2", texts[0]]


def test_canonical_text_golden():
    # The canonical texts of the five symbolic invariants of six random
    # four- and five-edge presentations (30 texts, about 10,800 terms),
    # pinned so that any change to the text's bytes or order shows.
    texts = []
    for s in range(6):
        pg = randgen.random_packaged(random.Random(s), max_edges=5, min_edges=4)
        results = (
            polynomials.q_multivariate(pg),
            polynomials.q_poly(pg),
            polynomials.transition_poly(pg.ap),
            polynomials.br_poly(pg.ap),
            polynomials.tutte_poly(polynomials.graph_of_presentation(pg.ap)),
        )
        texts.extend(to_canonical_string(p) for p in results)
    assert len(texts) == 30
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == "38c830def7b4edba"


@settings(deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    zero, one = MultiPoly.zero(SMALL), MultiPoly.const(SMALL, 1)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p - p == zero and p + (-p) == zero and (p - q) + q == p
    assert 3 * p == p + p + p and p * 0 == zero
    assert all(coeff for coeff in (p * q).terms.values())


@settings(deadline=None)
@given(small_polys, small_polys, points, st.sampled_from(SMALL.names))
def test_set_to_one_and_substitute_agree_with_eval(p, q, pt, name):
    assert p.set_to_one(name).eval_at(pt) == p.eval_at({**pt, name: Fraction(1)})
    assert substitute(p, {name: q}).eval_at(pt) == p.eval_at({**pt, name: q.eval_at(pt)})


def test_constructor_rejects_bad_exponent_vectors():
    with pytest.raises(ValueError):
        MultiPoly(SMALL, {(1, 2): 1})
    with pytest.raises(ValueError):
        MultiPoly(SMALL, {(0, MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(SMALL, {(0, -1, 0): 1})


def test_exponent_overflow_raises():
    x = MultiPoly.var(REG, "x")
    top = parse_poly(f"x^{MAX_EXPONENT}", REG)
    with pytest.raises(SizeLimitExceeded):
        top * x
    with pytest.raises(SizeLimitExceeded):
        (top + v("a")) * (x + v("b"))
    assert top * v("y") == monomial(REG, {"x": MAX_EXPONENT, "y": 1})


def test_parse_rejects_exponents_beyond_the_field():
    with pytest.raises(ParseError):
        parse_poly("x^40000", REG)
    with pytest.raises(ParseError):
        parse_poly(f"x^{MAX_EXPONENT}*x", REG)
    assert parse_poly(f"x^{MAX_EXPONENT}", REG) == monomial(REG, {"x": MAX_EXPONENT})
    # Digits int() refuses: a superscript, and more than its 4,300-digit limit.
    for text in ("x^\u00b2", "\u00b2*x", "9" * 5000 + "*x"):
        with pytest.raises(ParseError):
            parse_poly(text, REG)


def test_parse_sums_repeated_terms():
    assert parse_poly("a*b + 2*b*a - 3*a*b + c", REG) == v("c")
    assert parse_poly("a - a", REG) == MultiPoly.zero(REG)


def test_polynomials_pickle_and_copy():
    p = parse_poly("3*a^2*x - alpha*t + 7", REG)
    for again in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert again == p and to_canonical_string(again) == to_canonical_string(p)
        assert again * v("b") == p * v("b")

import itertools
import math
import operator
from decimal import ROUND_FLOOR, Decimal, getcontext
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfill.surd as surd_module
from conftest import nonzero_surds, rationals, surds
from torusfill.latforms import AlternatingSurdMatrix, _condition_i, _det_int
from torusfill.surd import (
    SurdError,
    SurdScalar,
    _coprime_base,
    decimal_sqrt,
    int_echelon,
    rat,
    rational_rank,
    rational_relations,
    rationally_independent,
    sqrt,
    squarefree_decompose,
)


def decimal_value(scalar, digits=60):
    """Independent evaluation through the decimal module."""
    getcontext().prec = digits
    total = Decimal(0)
    for radicand, coeff in scalar.terms.items():
        root = Decimal(radicand).sqrt()
        total += Decimal(coeff.numerator) / Decimal(coeff.denominator) * root
    return total


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(36) == (6, 1)
    assert squarefree_decompose(12) == (2, 3)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_radicand_reduction():
    assert sqrt(2) * sqrt(2) == rat(2)
    assert sqrt(2) * sqrt(3) == sqrt(6)
    assert sqrt(8) == 2 * sqrt(2)
    assert sqrt(12) * sqrt(3) == rat(6)


def test_quadratic_identity_for_b():
    b = rat(3) - 2 * sqrt(2)
    assert (b * b - 6 * b + 1).is_zero()


def test_sign_basics():
    assert (rat(3) - 2 * sqrt(2)).sign() == 1
    assert rat(0).sign() == 0
    assert (sqrt(2) - sqrt(3)).sign() == -1


def test_sign_close_call_against_decimal_oracle():
    value = 5 * sqrt(2) - 7 * sqrt(3) + 5
    oracle = decimal_value(value)
    assert oracle != 0
    assert value.sign() == (1 if oracle > 0 else -1)
    assert value.sign() == -1


def test_rationally_independent_examples():
    assert rationally_independent([rat(1), sqrt(2), sqrt(3), sqrt(6)])
    assert not rationally_independent([1 + sqrt(2), 2 + 2 * sqrt(2)])
    assert not rationally_independent([sqrt(2), sqrt(3), sqrt(2) + sqrt(3), rat(1)])


def test_rationally_independent_brute_force_confirmation():
    values = [sqrt(2), sqrt(3), sqrt(2) + sqrt(3), rat(1)]
    found = None
    for combo in itertools.product(range(-3, 4), repeat=4):
        if not any(combo):
            continue
        total = sum((rat(c) * v for c, v in zip(combo, values)), rat(0))
        if total.is_zero():
            found = combo
            break
    assert found is not None


def sympy_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@given(st.lists(surds(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rational_relations_match_sympy_nullspace(values):
    # sympy's nullspace is also read off the RREF, one vector per free column
    # in ascending order, so the two bases must agree vector by vector
    cols = sorted(set().union(*[v.radicands for v in values]) or {1})
    matrix = sympy.Matrix([[v.coefficient(c) for v in values] for c in cols])
    expected = [[sympy_fraction(x) for x in vec] for vec in matrix.nullspace()]
    assert rational_relations(values) == expected
    assert rationally_independent(values) == (not expected)


@given(st.lists(surds(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_rational_rank_matches_sympy_rank(values):
    cols = sorted(set().union(*[v.radicands for v in values]) or {1})
    matrix = sympy.Matrix([[v.coefficient(c) for v in values] for c in cols])
    assert rational_rank(values) == matrix.rank()
    assert rational_rank(tuple(values)) == matrix.rank()


def test_rational_rank_of_no_values_is_zero():
    assert rational_rank([]) == 0
    assert rational_rank([rat(0), rat(0)]) == 0


@given(st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30)),
                                    min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])))
@settings(max_examples=150, deadline=None)
def test_int_echelon_pivots_rref_and_determinant_match_sympy(rows):
    matrix = sympy.Matrix(rows)
    m = [row[:] for row in rows]
    pivots, p, det = int_echelon(m)
    rref, sympy_pivots = matrix.rref()
    assert pivots == list(sympy_pivots)
    assert [[Fraction(x, p) for x in row] for row in m] == \
        [[sympy_fraction(x) for x in rref.row(i)] for i in range(matrix.rows)]
    if matrix.rows == matrix.cols:
        assert det == int(matrix.det())
    else:
        assert det == 0


@given(rationals())
def test_rational_scalars_hash_like_their_fraction(q):
    assert hash(rat(q)) == hash(q)
    assert len({rat(q), q}) == 1
    assert len({rat(1), 1, Fraction(1)}) == 1


def test_is_rational():
    assert rat(Fraction(7, 5)).is_rational()
    assert not (rat(3) - 2 * sqrt(2)).is_rational()
    assert (sqrt(2) * sqrt(2)).is_rational()
    assert (rat(3) - 2 * sqrt(2)).is_irrational()


def test_division_and_inverse():
    b = rat(3) - 2 * sqrt(2)
    h_t = 2 * b / (1 + b)
    assert h_t == rat(1) - sqrt(2) / 2
    h_b = 4 * b * b / (1 - b * b)
    assert h_b == 3 * sqrt(2) / 2 - 2
    x = 1 + sqrt(2) + sqrt(3)
    assert (x * x.inverse()) == rat(1)
    with pytest.raises(SurdError):
        rat(0).inverse()
    with pytest.raises(SurdError):
        rat(1) / rat(0)


def test_floor_ceil():
    assert sqrt(2).floor() == 1
    assert sqrt(2).ceil() == 2
    assert (-sqrt(2)).floor() == -2
    assert rat(Fraction(-7, 2)).floor() == -4
    assert rat(3).floor() == 3


def oracle_floor(value):
    """floor(value) from the 80-digit decimal evaluation, or from the exact
    Fraction when the value is rational."""
    if value.is_rational():
        return math.floor(value.as_fraction())
    return int(decimal_value(value, digits=80).to_integral_value(rounding=ROUND_FLOOR))


@given(st.one_of(surds(), surds(large=True)))
@settings(max_examples=80, deadline=None)
def test_floor_ceil_match_decimal_oracle(v):
    assert v.floor() == oracle_floor(v)
    assert v.ceil() == -oracle_floor(-v)


@pytest.mark.parametrize("a, b", [(99, 70), (577, 408), (665857, 470832)])
def test_floor_ceil_of_pell_near_integers(a, b):
    # a^2 - 2 b^2 = 1, so 0 < a - b*sqrt(2) = 1 / (a + b*sqrt(2)) < 1/(2a)
    near = a - b * sqrt(2)
    assert (near.floor(), near.ceil()) == (0, 1)
    assert ((-near).floor(), (-near).ceil()) == (-1, 0)
    assert oracle_floor(near) == 0 and oracle_floor(-near) == -1


def test_decimal_rendering():
    assert rat(Fraction(1, 3)).decimal(6) == "0.333333"
    assert sqrt(2).decimal(10) == "1.4142135624"
    assert (-sqrt(2)).decimal(4) == "-1.4142"
    assert decimal_sqrt(rat(2), 10) == "1.4142135624"
    assert decimal_sqrt(sqrt(2), 10) == "1.1892071150"  # 2 ** (1/4)


def test_serialization_round_trip():
    value = rat(Fraction(3, 7)) - 2 * sqrt(2) + rat(Fraction(1, 3)) * sqrt(15)
    triples = value.to_triples()
    assert SurdScalar.from_triples(triples) == value
    assert SurdScalar.from_triples([[8, 1, 1]]) == 2 * sqrt(2)  # canonicalized on read


@pytest.mark.parametrize("radicand", [1.5, 2.0, True, Fraction(2)])
def test_non_integer_radicand_rejected(radicand):
    with pytest.raises(TypeError):
        SurdScalar.from_triples([[radicand, 1, 1]])
    with pytest.raises(TypeError):  # also when its coefficient is zero
        SurdScalar.from_terms([(radicand, 0)])


@pytest.mark.parametrize("radicand", [8.0, 2.5, True, Fraction(8), "8"])
def test_sqrt_accepts_only_int(radicand):
    # a float radicand would serialise as a triple that from_triples rejects
    with pytest.raises(TypeError):
        sqrt(radicand)
    assert SurdScalar.from_triples(sqrt(8).to_triples()) == 2 * sqrt(2)


@pytest.mark.parametrize("triple", [[2, True, 1], [2, 1, True], [1, 1.0, 1], [1, 1, 2.0]])
def test_non_integer_numerator_or_denominator_rejected(triple):
    with pytest.raises(TypeError):
        SurdScalar.from_triples([triple])


@pytest.mark.parametrize("triples", ["", {}, "123", {"2": [1, 1]}, [""], [{}], [[2, 1]],
                                     [[2, 1, 1, 1]], [(2, 1, 1)], ([2, 1, 1],)])
def test_scalar_that_is_not_a_list_of_triples_rejected(triples):
    # "" and {} iterate as no triples at all and used to read as 0
    with pytest.raises(TypeError):
        SurdScalar.from_triples(triples)
    assert SurdScalar.from_triples([]) == 0


@given(surds(), surds(), surds())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(surds(), surds())
@settings(max_examples=60, deadline=None)
def test_sign_compatible_with_add(a, b):
    if a.sign() == 1 and b.sign() == 1:
        assert (a + b).sign() == 1


@given(surds(), surds())
@settings(max_examples=40, deadline=None)
def test_mul_canonicalization_idempotent(a, b):
    product = a * b
    assert SurdScalar.from_terms(product.terms.items()) == product
    assert SurdScalar.from_triples(product.to_triples()) == product


@given(surds())
@settings(max_examples=40, deadline=None)
def test_single_value_independence(v):
    assert rationally_independent([v]) == (not v.is_zero())


@given(surds(), surds(), rationals())
@settings(max_examples=40, deadline=None)
def test_independence_scale_invariant(a, b, q):
    if q == 0:
        return
    before = rationally_independent([a, b])
    after = rationally_independent([a * rat(q), b * rat(q)])
    assert before == after


@given(nonzero_surds())
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(v):
    assert v * v.inverse() == rat(1)
    assert v.inverse().to_triples() == conjugate_product_inverse(v).to_triples()


@given(surds())
@settings(max_examples=60, deadline=None)
def test_sign_matches_decimal_oracle(v):
    oracle = decimal_value(v, digits=80)
    if v.is_zero():
        assert abs(oracle) < Decimal("1e-50")
    else:
        assert v.sign() == (1 if oracle > 0 else -1)


def test_coprime_base_splits_by_gcds():
    assert _coprime_base([6, 10, 15]) == [2, 3, 5]
    assert _coprime_base([30, 42]) == [5, 6, 7]  # 6 is not split further
    assert _coprime_base([]) == []
    p, q = 2**31 - 1, 2147483629
    assert _coprime_base([p * q, p]) == sorted([p, q])
    x = sqrt(p) + sqrt(q) + sqrt(p) * sqrt(q)  # sqrt(p*q) itself would factor p*q
    assert x * x.inverse() == rat(1)


def conjugate_product_inverse(v):
    """Oracle: the inverse by the product of all 2^k - 1 sign-flip conjugates
    over the k primes of the radicands (the norm to Q, divided out)."""
    primes = sorted(set().union(*(sympy.primefactors(r) for r in v.radicands)))
    prod_conj = rat(1)
    for mask in range(1, 1 << len(primes)):
        flip = {primes[i] for i in range(len(primes)) if mask >> i & 1}
        prod_conj = prod_conj * SurdScalar({
            r: -c if len(flip.intersection(sympy.primefactors(r))) % 2 else c
            for r, c in v.terms.items()})
    norm = prod_conj * v
    assert norm.is_rational() and not norm.is_zero()
    return prod_conj * rat(1 / norm.as_fraction())


WIDE_PRIMES = [2, 3, 5, 7, 11]


@st.composite
def wide_surds(draw):
    """Nonzero scalars with up to 6 terms whose radicands are products of
    4-5 distinct primes from WIDE_PRIMES, every one of them occurring."""
    primes = draw(st.lists(st.sampled_from(WIDE_PRIMES), min_size=4, max_size=5, unique=True))
    products = sorted({prod(c) for n in range(len(primes) + 1)
                       for c in itertools.combinations(primes, n)})
    rads = draw(st.lists(st.sampled_from(products), min_size=1, max_size=5, unique=True))
    missing = [p for p in primes if all(r % p for r in rads)]
    if missing:
        rads.append(prod(missing))
    coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
    return SurdScalar.from_terms(
        (r, Fraction(draw(coeffs), draw(st.integers(min_value=1, max_value=9)))) for r in rads)


@given(wide_surds())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_conjugate_product_oracle(v):
    assert len(set().union(*map(sympy.primefactors, v.radicands))) >= 4
    inv = v.inverse()
    assert v * inv == rat(1)
    assert inv.to_triples() == conjugate_product_inverse(v).to_triples()


def termwise_product(a, b):
    """Oracle: the product term by term, each radicand product reduced."""
    pairs = []
    for r1, c1 in a.terms.items():
        for r2, c2 in b.terms.items():
            s, t = squarefree_decompose(r1 * r2)
            pairs.append((t, c1 * c2 * s))
    return SurdScalar.from_terms(pairs)


def test_rational_times_irrational_products():
    x = rat(3) - 2 * sqrt(2) + sqrt(15) / 3
    q = rat(Fraction(-3, 2))
    expected = SurdScalar.from_terms([(1, Fraction(-9, 2)), (2, 3), (15, Fraction(-1, 2))])
    assert q * x == expected and x * q == expected
    assert Fraction(-3, 2) * x == expected and x * Fraction(-3, 2) == expected
    assert 2 * x == x * 2 == x + x
    assert rat(1) * x == x * 1 == x
    for zero in (rat(0), 0, Fraction(0)):
        assert (zero * x).is_zero() and (x * zero).is_zero()
        assert (zero * x).to_triples() == (x * zero).to_triples() == []


@given(surds(), rationals())
@settings(max_examples=60, deadline=None)
def test_rational_factor_matches_termwise_oracle(a, q):
    assert (a * rat(q)).to_triples() == termwise_product(a, rat(q)).to_triples()
    assert (rat(q) * a).to_triples() == termwise_product(rat(q), a).to_triples()


SQUAREFREE = [n for n in range(1, 400) if squarefree_decompose(n)[0] == 1]


@given(st.sampled_from(SQUAREFREE), st.sampled_from(SQUAREFREE),
       rationals().filter(bool), rationals().filter(bool))
@settings(max_examples=100, deadline=None)
def test_root_product_matches_squarefree_decomposition(r1, r2, c1, c2):
    s, t = squarefree_decompose(r1 * r2)
    product = SurdScalar.from_terms([(r1, c1)]) * SurdScalar.from_terms([(r2, c2)])
    assert product.to_triples() == SurdScalar.from_terms([(t, c1 * c2 * s)]).to_triples()


@given(wide_surds(), wide_surds())
@settings(max_examples=40, deadline=None)
def test_product_matches_termwise_oracle(a, b):
    assert (a * b).to_triples() == termwise_product(a, b).to_triples()


def general_merge(x, y, op):
    """SurdScalar._merge without its rational fast path: term by term over the
    lcm of the two denominators, then divided through by one gcd."""
    g = math.gcd(x._den, y._den)
    a, b = y._den // g, x._den // g
    acc = {r: n * a for r, n in x._num.items()}
    for rad, n in y._num.items():
        s = op(acc.get(rad, 0), n * b)
        if s:
            acc[rad] = s
        else:
            acc.pop(rad, None)
    return surd_module._reduced(acc, x._den * a)


def stored(x):
    return x._num, x._den


RATIONAL_SURDS = surds(radicands=[1], large=True)


@given(RATIONAL_SURDS, RATIONAL_SURDS)
@settings(max_examples=200, deadline=None)
def test_rational_fast_path_matches_general_merge_and_fractions(x, y):
    # numerators up to 10**30 over denominators that share large primes
    fx, fy = x.as_fraction(), y.as_fraction()
    cases = [(x + y, general_merge(x, y, operator.add), fx + fy),
             (x - y, general_merge(x, y, operator.sub), fx - fy),
             (x * y, termwise_product(x, y), fx * fy)]
    for got, want, value in cases:
        assert stored(got) == stored(want)
        assert got.as_fraction() == value
        assert got == want and hash(got) == hash(want) == hash(value)
        assert got.to_triples() == want.to_triples()
    assert (x < y) == (general_merge(x, y, operator.sub).sign() < 0) == (fx < fy)
    assert (x == y) == (stored(x) == stored(y)) == (fx == fy)
    assert stored(x - x) == stored(x + -x) == ({}, 1)


@given(st.one_of(st.tuples(surds(large=True), RATIONAL_SURDS),
                 st.tuples(RATIONAL_SURDS, surds(large=True)),
                 st.tuples(surds(large=True), surds(large=True))))
@settings(max_examples=150, deadline=None)
def test_mixed_and_irrational_operands_match_general_merge(case):
    x, y = case
    assert stored(x + y) == stored(general_merge(x, y, operator.add))
    assert stored(x - y) == stored(general_merge(x, y, operator.sub))
    assert stored(x * y) == stored(termwise_product(x, y))
    assert (x < y) == (general_merge(x, y, operator.sub).sign() < 0)
    assert stored(x - x) == ({}, 1)


def test_large_prime_root_product_needs_no_factoring(monkeypatch):
    # sqrt(p)*sqrt(p) once factored p*p by trial division up to p, which
    # hangs for a large prime p; the product needs only a gcd
    p = 2**31 - 1
    root, root2 = sqrt(p), sqrt(2)

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(surd_module, "squarefree_decompose", refuse)
    assert root * root == rat(p)
    assert (root + 1) * (root - 1) == rat(p - 1)
    assert ((root + 1) * (root2 * root)).to_triples() == [[2, p, 1], [2 * p, 1, 1]]
    assert (1 / (root + 1)) * (root + 1) == rat(1)


# -- every operator against a term-wise dict oracle ----------------------------

def oracle_terms(value):
    """An operand as {radicand: coefficient}, zero coefficients left out."""
    if isinstance(value, SurdScalar):
        return value.terms
    return {1: Fraction(value)} if value else {}


def oracle_merge(x, y, sign):
    out = dict(x)
    for r, c in y.items():
        out[r] = out.get(r, 0) + sign * c
    return {r: c for r, c in out.items() if c}


def oracle_mul(x, y):
    out = {}
    for r1, c1 in x.items():
        for r2, c2 in y.items():
            s, t = 1, 1
            for p, e in sympy.factorint(r1 * r2).items():
                s, t = s * p ** (e // 2), t * p ** (e % 2)
            out[t] = out.get(t, 0) + c1 * c2 * s
    return {r: c for r, c in out.items() if c}


def oracle_sign(x):
    value = decimal_value(SurdScalar.from_terms(x.items()), digits=80)
    return 0 if abs(value) < Decimal("1e-50") else (1 if value > 0 else -1)


OPERANDS = st.one_of(surds(), st.integers(min_value=-9, max_value=9), rationals())


@given(surds(), OPERANDS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_operators_match_termwise_oracle(a, b, swap):
    # a SurdScalar on either side of an int, a Fraction or another SurdScalar
    x, y = (b, a) if swap else (a, b)
    tx, ty = oracle_terms(x), oracle_terms(y)
    assert (x + y).terms == oracle_merge(tx, ty, 1)
    assert (x - y).terms == oracle_merge(tx, ty, -1)
    assert (x * y).terms == oracle_mul(tx, ty)
    s = oracle_sign(oracle_merge(tx, ty, -1))
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y, x != y) == (s == 0, s != 0)
    if ty:
        assert oracle_mul((x / y).terms, ty) == tx
    else:
        with pytest.raises(SurdError, match="division by zero scalar"):
            x / y
    if a.is_zero():
        with pytest.raises(SurdError, match="division by zero scalar"):
            a.inverse()
    else:
        assert oracle_mul(a.inverse().terms, a.terms) == {1: 1}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.lt, operator.le, operator.gt, operator.ge])
@pytest.mark.parametrize("value", [rat(1), 1 + sqrt(2)], ids=["rational", "irrational"])
def test_float_operand_raises_type_error(op, value):
    with pytest.raises(TypeError):
        op(value, 1.0)
    with pytest.raises(TypeError):
        op(1.0, value)


def test_float_is_never_equal():
    assert not rat(1) == 1.0 and not 1.0 == rat(1)
    assert rat(1) != 1.0 and 1.0 != rat(1)


@pytest.mark.parametrize("value", [0.1, 1.0, "1/3", "2", Decimal("0.5"), None, 1j])
def test_rat_accepts_only_int_or_fraction(value):
    # Fraction(value) would read a float's binary value or parse a string
    with pytest.raises(TypeError):
        rat(value)


@pytest.mark.parametrize("value", [0.1, 1.0, "1/3", "2", Decimal("0.5"), None, 1j])
def test_from_terms_accepts_only_int_or_fraction_coefficients(value):
    # as for rat: no float read at its binary value, no string parsed
    with pytest.raises(TypeError):
        SurdScalar.from_terms([(2, value)])
    with pytest.raises(TypeError):
        SurdScalar({2: value})


def test_constructor_canonicalizes_like_from_terms():
    four = SurdScalar({4: Fraction(1)})
    assert four == rat(2) and hash(four) == hash(rat(2)) and str(four) == "2"
    mixed = SurdScalar({8: 3, 2: Fraction(1, 2), 3: 0})
    assert mixed == SurdScalar.from_terms([(8, 3), (2, Fraction(1, 2))]) == Fraction(13, 2) * sqrt(2)
    assert hash(mixed) == hash(Fraction(13, 2) * sqrt(2))
    assert SurdScalar({2: 1, 8: Fraction(-1, 2)}).is_zero() and SurdScalar().is_zero()


def test_rat_of_int_and_fraction():
    assert rat(3).to_triples() == [[1, 3, 1]]
    assert rat(Fraction(-6, 4)).to_triples() == [[1, -3, 2]]
    assert rat(0).is_zero() and rat(Fraction(0)).is_zero()


# -- equal values are equal and hash equally, however they are built ---------

def oracle_triples(terms):
    return [[r, c.numerator, c.denominator] for r, c in sorted(terms.items())]


def assert_same(x, y):
    assert x == y and hash(x) == hash(y)
    assert x.to_triples() == y.to_triples()


@given(surds(large=True), surds(large=True), nonzero_surds(large=True))
@settings(max_examples=80, deadline=None)
def test_large_coefficients_equal_values_equal_and_hash_equally(a, b, c):
    assert_same((a + b) - b, a)
    if not b.is_zero():
        assert_same(a * b / b, a)
    assert_same(a / c + b / c, (a + b) / c)
    for x, y in [(a, b), (a, c), (b, c)]:
        tx, ty = oracle_terms(x), oracle_terms(y)
        assert (x + y).to_triples() == oracle_triples(oracle_merge(tx, ty, 1))
        assert (x - y).to_triples() == oracle_triples(oracle_merge(tx, ty, -1))
        assert (x * y).to_triples() == oracle_triples(oracle_mul(tx, ty))
        rational = SurdScalar.from_terms([(1, x.coefficient(1))])
        assert hash(rational) == hash(x.coefficient(1))


def test_no_fraction_built_per_operation(monkeypatch):
    # operators work on integer numerators over one denominator, and the
    # independence tests and integer determinants on one fraction-free
    # elimination; a Fraction per operation is what the representation avoids
    a = rat(Fraction(3, 7)) - 2 * sqrt(2) + rat(Fraction(5, 11)) * sqrt(15)
    b = 1 + sqrt(2) / 3 - sqrt(3)
    q = Fraction(-5, 6)
    quadruple = [rat(Fraction(1, 2)), sqrt(2) / 3, sqrt(3) / 5, sqrt(6) / 7]
    form = AlternatingSurdMatrix([1, sqrt(2), 0, 0, 1, sqrt(3) / 2])
    unimodular = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 3], [0, 0, 0, -1]]
    original = Fraction.__new__
    built = []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) and built == [(1, 2)]  # the patch is live
    built.clear()
    results = [a + b, a - b, a * b, b * a, a + 1, 2 - a, a * q, q * a, a < b, a == b,
               a == 1, a.sign(), b.sign(), a.floor(), b.ceil(), a.inverse(), b.inverse()]
    assert built == []
    assert results[8:11] == [True, False, False]
    assert a._den != (a * q)._den and a._den != b._den
    independence = [rationally_independent([a, a * q]), rationally_independent([a * q, a]),
                    rationally_independent([a, b]), rationally_independent([b, a * q]),
                    rationally_independent(quadruple), rationally_independent(quadruple + [b]),
                    _condition_i(form), rational_rank(form.upper),
                    rational_rank((a, rat(0), a * q)), _det_int(unimodular)]
    assert built == []
    assert independence == [False, False, True, True, True, False, True, 3, 1, -1]

import itertools
import math
import operator
from decimal import ROUND_FLOOR, Decimal, getcontext
from fractions import Fraction
from functools import reduce
from math import prod

import pytest
import sympy
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import torusfill.surd as surd_module
from conftest import fraction_from_triples, nonzero_surds, rationals, surds
from torusfill.geom import region_coordinates
from torusfill.latforms import AlternatingSurdMatrix, _condition_i, _det_int
from torusfill.surd import (
    QuadInt,
    SurdError,
    SurdScalar,
    _coprime_base,
    _read_triples,
    decimal_sqrt,
    int_echelon,
    lattice_integers,
    product_is_irrational,
    product_sum_sign,
    rat,
    rational_rank,
    rational_relations,
    rationally_independent,
    scalar,
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
    matrix = sympy.Matrix([[v.terms.get(c, 0) for v in values] for c in cols])
    expected = [[sympy_fraction(x) for x in vec] for vec in matrix.nullspace()]
    assert rational_relations(values) == expected
    assert rationally_independent(values) == (not expected)


@given(st.lists(surds(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_rational_rank_matches_sympy_rank(values):
    cols = sorted(set().union(*[v.radicands for v in values]) or {1})
    matrix = sympy.Matrix([[v.terms.get(c, 0) for v in values] for c in cols])
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
    assert -(-sqrt(2)).floor() == 2
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
    assert -(-v).floor() == -oracle_floor(-v)


@pytest.mark.parametrize("a, b", [(99, 70), (577, 408), (665857, 470832)])
def test_floor_ceil_of_pell_near_integers(a, b):
    # a^2 - 2 b^2 = 1, so 0 < a - b*sqrt(2) = 1 / (a + b*sqrt(2)) < 1/(2a)
    near = a - b * sqrt(2)
    assert (near.floor(), -(-near).floor()) == (0, 1)
    assert ((-near).floor(), -near.floor()) == (-1, 0)
    assert oracle_floor(near) == 0 and oracle_floor(-near) == -1


# -- closed-form decisions on one and two terms ---------------------------------

# near-cancelling values of at most two terms: 2*11^2 - 3*9^2 = 2*109^2 - 3*89^2
# = -1, Pell pairs a^2 - 2 b^2 = 1, and sums of two roots within 3e-4 of a
# nonzero integer (35 sqrt2 - 28 sqrt3 = 1 + 5.2e-5, 56 sqrt2 - 3 sqrt3 =
# 74 - 1.9e-4, 21 sqrt2 + 25 sqrt3 = 73 - 2.5e-4, 37 sqrt2 + 46 sqrt3 = 132 +
# 2.4e-4)
NEAR_CANCELLING = [
    11 * sqrt(2) - 9 * sqrt(3),
    (-109 * sqrt(2) + 89 * sqrt(3)) / 5,
    35 * sqrt(2) - 28 * sqrt(3),
    (28 * sqrt(3) - 35 * sqrt(2)) / 2,
    56 * sqrt(2) - 3 * sqrt(3),
    (56 * sqrt(2) - 3 * sqrt(3)) / 37,
    (-21 * sqrt(2) - 25 * sqrt(3)) / 73,
    37 * sqrt(2) + 46 * sqrt(3),
    (577 - 408 * sqrt(2)) / 3,
    (470832 * sqrt(2) - 665857) / 7,
    -sqrt(5) / 9,
    rat(Fraction(-7, 3)),
]

# (x, y) whose difference has two terms, near cancelling; y may be an
# int or a Fraction
TWO_TERM_PAIRS = [
    (11 * sqrt(2), 9 * sqrt(3)),
    ((1 + 11 * sqrt(2)) / 7, (1 + 9 * sqrt(3)) / 7),
    (-109 * sqrt(2) / 5, -89 * sqrt(3) / 5),
    (70 * sqrt(2), 99),
    (-470832 * sqrt(2), -665857),
    (rat(Fraction(577, 3)), 408 * sqrt(2) / 3),
    (470832 * sqrt(2) / 7, Fraction(665857, 7)),
    (-408 * sqrt(2), -577),
]

# three terms on each side, two in the difference (the first and the last
# over unequal denominators)
THREE_TERM_PAIRS = [
    (Fraction(1, 2) + 11 * sqrt(2) / 6 + sqrt(5), Fraction(1, 2) + 3 * sqrt(3) / 2 + sqrt(5)),
    ((3 - 109 * sqrt(2)) / 5 + sqrt(6) / 2, Fraction(3, 5) - 89 * sqrt(3) / 5 + sqrt(6) / 2),
    (577 + sqrt(3) + sqrt(5), 408 * sqrt(2) + sqrt(3) + sqrt(5)),
    (1 - 35 * sqrt(2) / 4 + 4 * sqrt(7) / 3, 1 - 7 * sqrt(3) + 4 * sqrt(7) / 3),
]


def oracle_order(x, y):
    """Sign of x - y from the 80-digit decimal evaluations."""
    diff = decimal_value(scalar(x), digits=80) - decimal_value(scalar(y), digits=80)
    assert abs(diff) > Decimal("1e-60")
    return 1 if diff > 0 else -1


@pytest.mark.parametrize("v", NEAR_CANCELLING, ids=str)
def test_two_term_sign_floor_ceil_match_decimal_oracle(v):
    assert len(v.radicands) <= 2
    oracle = decimal_value(v, digits=80)
    assert v.sign() == (1 if oracle > 0 else -1) == -(-v).sign()
    assert (v.floor(), -(-v).floor()) == (oracle_floor(v), -oracle_floor(-v))
    assert (-v).floor() == -v.floor() - 1  # no value of the list is an integer


@pytest.mark.parametrize("x, y", TWO_TERM_PAIRS + THREE_TERM_PAIRS, ids=str)
def test_near_cancelling_comparisons_match_decimal_oracle(x, y):
    s = oracle_order(x, y)
    assert len((x - y).radicands) == 2
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (y > x, y >= x, y < x, y <= x) == (s < 0, s <= 0, s > 0, s >= 0)
    assert x.compare(y) == s == -scalar(y).compare(x) == (x - y).sign()


def test_decisions_of_two_terms_never_refine(monkeypatch):
    # sign, order and floor of at most two terms are closed-form; the
    # enclosure of a value is only taken from three terms on
    seen = []
    enclosure = surd_module._enclosure

    def counted(num, prec):
        seen.append(dict(num))
        return enclosure(num, prec)

    monkeypatch.setattr(surd_module, "_enclosure", counted)
    assert all(len(x.radicands) == len(y.radicands) == 3 for x, y in THREE_TERM_PAIRS)
    for v in NEAR_CANCELLING:
        v.sign(), v.floor(), -(-v).floor(), abs(v)
    for x, y in TWO_TERM_PAIRS + THREE_TERM_PAIRS:
        x < y, x <= y, x > y, x >= y, x.compare(y), y < x, y >= x
    assert seen == []
    three = sqrt(2) + sqrt(3) - sqrt(5)
    assert three.sign() == 1 and three.floor() == 0 and three > 0
    assert len(seen) == 3


def test_decimal_rendering():
    assert rat(Fraction(1, 3)).decimal(6) == "0.333333"
    assert sqrt(2).decimal(10) == "1.4142135624"
    assert (-sqrt(2)).decimal(4) == "-1.4142"
    # half away from zero on either side, and no sign on a rounded zero
    assert rat(Fraction(1, 8)).decimal(2) == "0.13" and rat(Fraction(-1, 8)).decimal(2) == "-0.13"
    assert rat(Fraction(5, 2)).decimal(0) == "3" and rat(Fraction(-5, 2)).decimal(0) == "-3"
    assert rat(Fraction(-1, 1000)).decimal(2) == "0.00"
    assert decimal_sqrt(rat(2), 10) == "1.4142135624"
    assert decimal_sqrt(sqrt(2), 10) == "1.1892071150"  # 2 ** (1/4)


@st.composite
def decimal_cases(draw):
    """(x >= 0, digits): a surd, or an exact half in the last digit kept."""
    digits = draw(st.integers(min_value=0, max_value=6))
    half = rat(Fraction(2 * draw(st.integers(0, 10**4)) + 1, 2 * 10 ** digits))
    x = draw(st.one_of(surds(), st.just(half)))
    return (x if x.sign() >= 0 else -x), digits


@settings(max_examples=200, deadline=None)
@given(decimal_cases())
def test_decimal_rounds_half_away_from_zero(case):
    x, digits = case
    shown = x.decimal(digits)
    rounds_to_zero = not shown.strip("0.")
    assert (-x).decimal(digits) == (shown if rounds_to_zero else "-" + shown)


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


@st.composite
def triples_or_not(draw):
    """Up to four [radicand, numerator, denominator] entries: squares and
    squarefree radicands, zero and negative numerators and denominators,
    and in about one entry in ten a boolean, a float, a zero or negative
    radicand, or a radicand beyond 2**32."""
    def entry(good, bad):
        return draw(st.sampled_from(bad) if draw(st.integers(0, 9)) == 0 else good)

    return [[entry(st.sampled_from([1, 2, 3, 4, 8, 12, 18, 50, 75]),
                   [0, -3, 2**32, 2**32 + 5, True, 1.5, 2.0]),
             entry(st.integers(-30, 30), [True, False, 1.0]),
             entry(st.integers(-9, 9), [True, 2.0])]
            for _ in range(draw(st.integers(0, 4)))]


@given(triples_or_not())
@example([[0, 0, 1], [-3, 0, 5], [8, 3, -6]])  # zero terms beside bad radicands are read
@example([[2**32, 0, 1]])
@example([[1.5, 0, 1]])
@example([[True, 1, 1]])
@example([[2, 1, 0], [0, 1, 1]])
@example([[2, 1, 2], [8, -1, 4], [1, 4, -2], [1, 2, 1]])  # every term cancels
@settings(max_examples=400, deadline=None)
def test_from_triples_matches_fraction_route(triples):
    # the integer reader accepts and rejects what the Fraction route does,
    # with the same exception type, and builds the same canonical scalar
    try:
        want = fraction_from_triples(triples)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        event(type(exc).__name__)
        with pytest.raises(type(exc)):
            SurdScalar.from_triples(triples)
        return
    event("read")
    got = SurdScalar.from_triples(triples)
    assert (got._num, got._den) == (want._num, want._den)


def shape_fault(triples) -> str:
    return ("a scalar is a list of [radicand, numerator, denominator] lists, "
            f"got {type(triples).__name__} {triples!r:.40}")


# malformed triple lists, each with the one error that reading it raises:
# the shape of every triple is checked first, then every radicand below
# 2**32, then each triple in turn (numerator and denominator types, a
# nonzero denominator, the radicand's type, and a positive radicand where
# the numerator is nonzero)
TRIPLE_FAULTS = [
    ("", TypeError, shape_fault("")),
    ({}, TypeError, shape_fault({})),
    ([[2, 1]], TypeError, shape_fault([[2, 1]])),
    ([[2, 1, 1], (2, 1, 1)], TypeError, shape_fault([[2, 1, 1], (2, 1, 1)])),
    ([[2**32, 1, 1], [2, 1]], TypeError, shape_fault([[2**32, 1, 1], [2, 1]])),
    ([[2**32, 1, 1]], ValueError, "radicands must be below 2**32"),
    ([[2**32 + 5, 0, 1]], ValueError, "radicands must be below 2**32"),
    ([[2, 1.5, 1], [2**32, 1, 1]], ValueError, "radicands must be below 2**32"),
    ([[2, True, 1]], TypeError, "numerator and denominator must be integers, got True, 1"),
    ([[2, 1, 2.0]], TypeError, "numerator and denominator must be integers, got 1, 2.0"),
    ([[2, True, 0]], TypeError, "numerator and denominator must be integers, got True, 0"),
    ([[2, 1, 0]], ZeroDivisionError, "Fraction(1, 0)"),
    ([[1.5, 1, 0]], ZeroDivisionError, "Fraction(1, 0)"),
    ([[1.5, 1, 1]], TypeError, "radicand must be an integer, got 1.5"),
    ([[True, 1, 1]], TypeError, "radicand must be an integer, got True"),
    ([[True, 0, 1]], TypeError, "radicand must be an integer, got True"),
    ([[0, 1, 1]], ValueError, "radicand must be positive, got 0"),
    ([[-3, 2, -5]], ValueError, "radicand must be positive, got -3"),
    ([[0, 1, 1], [2, 1.0, 1]], ValueError, "radicand must be positive, got 0"),
    ([[2, 1.0, 1], [0, 1, 1]], TypeError, "numerator and denominator must be integers, got 1.0, 1"),
    ([[0, 0, 1], [2, 1, 0]], ZeroDivisionError, "Fraction(1, 0)"),
]


@pytest.mark.parametrize("triples, error, message", TRIPLE_FAULTS, ids=[
    "string", "object", "short", "tuple", "huge-radicand-then-short", "huge-radicand",
    "huge-radicand-zero-term", "float-numerator-then-huge-radicand", "bool-numerator",
    "float-denominator", "bool-numerator-zero-denominator", "zero-denominator",
    "float-radicand-zero-denominator", "float-radicand", "bool-radicand",
    "bool-radicand-zero-term", "zero-radicand", "negative-radicand",
    "zero-radicand-then-float-numerator", "float-numerator-then-zero-radicand",
    "zero-term-then-zero-denominator"])
def test_reader_and_from_triples_raise_the_same_fault(triples, error, message):
    # the region reader and from_triples share one validator: the same
    # fault, type and message, also behind a well-formed coordinate
    for read in (SurdScalar.from_triples,
                 lambda t: region_coordinates({"polygons": [[[[[2, 1, 3]], t]]]})):
        with pytest.raises(error) as info:
            read(triples)
        assert type(info.value) is error and str(info.value) == message


def test_reader_reports_the_first_faulty_coordinate():
    # each coordinate is checked in full before the next is read
    zero_den, huge = [[2, 1, 0]], [[2**32, 1, 1]]
    with pytest.raises(ZeroDivisionError):
        region_coordinates({"polygons": [[[zero_den, huge]]]})
    with pytest.raises(ValueError, match="below 2"):
        region_coordinates({"polygons": [[[huge, zero_den]]]})
    assert region_coordinates({"polygons": []})[:2] == ([], [])
    assert lattice_integers([]) == [([], 1)]


@st.composite
def coordinate_lists(draw):
    """Lists of triple lists: non-lowest terms, negative denominators, zero
    numerators, repeated and non-squarefree radicands and radicand 1, with
    every value in Q(sqrt 2) or across several fields."""
    one_field = draw(st.booleans())
    event("one field" if one_field else "several fields")
    radicands = [1, 2, 8, 18, 50] if one_field else [1, 2, 3, 4, 6, 8, 12, 15, 75]
    triple = st.tuples(st.sampled_from(radicands), st.integers(-30, 30),
                       st.integers(-12, 12).filter(bool)).map(list)
    return draw(st.lists(st.lists(triple, max_size=4), min_size=1, max_size=8))


def over(v, den: int) -> dict[int, Fraction]:
    """The terms of a lattice integer (an int, a QuadInt or a SurdScalar of
    denominator 1) divided by den, as exact fractions."""
    return ((v if type(v) is SurdScalar else as_surd(v)) / den).terms


@given(coordinate_lists())
@example([[[2, 3, 6]], [[8, 1, 2], [1, 4, -8]], [[2, 1, 2], [8, -1, 4]], []])
@settings(max_examples=200, deadline=None)
def test_lattice_integers_of_read_triples_match_from_triples(coordinates):
    # the values over L that the triple reader's numerators clear into are
    # those of one scalar per coordinate, term by term as exact fractions,
    # and of the same types: QuadInts in one field, SurdScalars across two
    scalars = [SurdScalar.from_triples(t) for t in coordinates]
    [(got, den)] = lattice_integers([_read_triples(t) for t in coordinates])
    [(want, want_den)] = lattice_integers([(s._num, s._den) for s in scalars])
    assert [over(v, den) for v in got] == [s.terms for s in scalars]
    assert [over(v, want_den) for v in want] == [s.terms for s in scalars]
    assert [type(v) for v in got] == [type(v) for v in want]
    one_field = len(set().union(*(s.radicands for s in scalars)) - {1}) <= 1
    assert (SurdScalar not in map(type, got)) == one_field
    assert all((type(v) is int) == s.is_rational() for v, s in zip(got, scalars))


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


COEFFS = st.integers(min_value=-10**12, max_value=10**12)


@given(st.sampled_from(SQUAREFREE[1:]), COEFFS, COEFFS, COEFFS, COEFFS,
       st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6),
       COEFFS)
@settings(max_examples=150, deadline=None)
def test_quadratic_field_ops_match_general_paths(r, a, b, c, e, d1, d2, k):
    # (a + b sqrt r)(c + e sqrt r) in closed form, and +, - and * with an int,
    # store what the term-wise product and the general merge store
    x = SurdScalar.from_terms([(1, Fraction(a, d1)), (r, Fraction(b, d1))])
    y = SurdScalar.from_terms([(1, Fraction(c, d2)), (r, Fraction(e, d2))])
    assert stored(x * y) == stored(termwise_product(x, y))
    assert stored(x * k) == stored(k * x) == stored(termwise_product(x, rat(k)))
    assert stored(x + k) == stored(k + x) == stored(general_merge(x, rat(k), operator.add))
    assert stored(x - k) == stored(general_merge(x, rat(k), operator.sub))
    assert stored(k - x) == stored(general_merge(rat(k), x, operator.sub))
    assert x.floor() == oracle_floor(x) and x.compare(k) == oracle_sign(
        oracle_merge(x.terms, {1: Fraction(k)} if k else {}, -1))


@given(surds(large=True), st.integers(min_value=-12, max_value=12),
       st.sampled_from([1, 2**31 - 1, 998244353]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_division_by_an_int_matches_the_product_with_its_reciprocal(x, a, p, share):
    # the numerators over den * |k| and one gcd store what x * (1/k) stores;
    # with share set, k and the numerators have the factor p in common
    k = a * p
    y = x * p if share else x
    if k:
        assert stored(y / k) == stored(y * rat(Fraction(1, k)))
    else:
        with pytest.raises(SurdError, match="division by zero scalar"):
            y / k


def test_division_by_an_int_builds_no_rational_and_no_inverse(monkeypatch):
    x = SurdScalar.from_terms([(1, Fraction(6, 35)), (2, Fraction(-10, 7)), (3, Fraction(4, 5))])
    want = {k: stored(x * rat(Fraction(1, k))) for k in (1, -1, 2, -6, 15, 2**61 - 1)}

    def refuse(*args):
        raise AssertionError("an int divisor took the general path")

    monkeypatch.setattr(surd_module, "_coerce", refuse)
    monkeypatch.setattr(surd_module, "rat", refuse)
    monkeypatch.setattr(SurdScalar, "inverse", refuse)
    assert {k: stored(x / k) for k in want} == want
    assert stored(x * 0 / 7) == ({}, 1)
    with pytest.raises(SurdError, match="division by zero scalar"):
        x / 0


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
        rational = SurdScalar.from_terms([(1, x.terms.get(1, 0))])
        assert hash(rational) == hash(x.terms.get(1, Fraction(0)))


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
               a == 1, a.sign(), b.sign(), a.floor(), -(-b).floor(), a.inverse(), b.inverse()]
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


HUGE = st.integers(min_value=-10**30, max_value=10**30)
NONZERO = st.one_of(st.integers(min_value=1, max_value=10**30),
                    st.integers(min_value=-10**30, max_value=-1))


@st.composite
def quad_int_pairs(draw):
    """(x, y, r): a QuadInt x over sqrt r, numerators up to 10**30, and y an
    int or a QuadInt over the same r, drawn so that the sqrt r part of
    x + y, x - y or x * y often cancels to 0."""
    r = draw(st.sampled_from([2, 3, 5, 6, 7]))
    a, b = draw(HUGE), draw(NONZERO)
    kind = draw(st.sampled_from(["int", "free", "opposite", "same", "conjugate"]))
    if kind == "int":
        return QuadInt(a, b, r), draw(st.one_of(st.just(0), HUGE)), r
    c, k = draw(HUGE), draw(st.sampled_from([-9, -2, -1, 1, 3, 8]))
    # -b cancels in x + y, b in x - y, and k (a - b sqrt r) in x * y
    e = {"free": draw(NONZERO), "opposite": -b, "same": b, "conjugate": -k * b}[kind]
    if kind == "conjugate":
        c = k * a
    return QuadInt(a, b, r), QuadInt(c, e, r), r


def as_surd(v) -> SurdScalar:
    """An int or a QuadInt as a SurdScalar, the way the oracle builds it."""
    return SurdScalar.from_terms([(1, v.a), (v.r, v.b)]) if type(v) is QuadInt else rat(v)


@given(quad_int_pairs())
@settings(max_examples=300, deadline=None)
def test_quad_int_matches_surd_scalar(case):
    # every operation of the pair type, in both operand orders, equals the
    # SurdScalar operation on the same values; a result with no sqrt r part
    # is a plain int, and any other a QuadInt with b != 0
    x, y, r = case
    sx, sy = as_surd(x), as_surd(y)
    assert x.surd() == sx and (type(y) is int or y.surd() == sy)
    results = {"x + y": (x + y, sx + sy), "y + x": (y + x, sy + sx),
               "x - y": (x - y, sx - sy), "y - x": (y - x, sy - sx),
               "x * y": (x * y, sx * sy), "y * x": (y * x, sy * sx), "-x": (-x, -sx)}
    for name, (got, want) in results.items():
        event(f"{name} rational" if want.is_rational() else f"{name} irrational")
        assert type(got) is (int if want.is_rational() else QuadInt), name
        assert as_surd(got) == want, name
        if type(got) is QuadInt:
            assert got.b and got.r == r
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(x, y) == op(sx, sy) and op(y, x) == op(sy, sx), op
    assert x == QuadInt(x.a, x.b, r) != QuadInt(x.a + 1, x.b, r)
    assert x.sign() == sx.sign() and x.floor() == sx.floor()


# every radicand that products of values over 2, 3, 5, 7 and 11 can reach
FIELD_RADICANDS = sorted({prod(c) for n in range(len(WIDE_PRIMES) + 1)
                          for c in itertools.combinations(WIDE_PRIMES, n)})
FIELD_SURDS = surds(radicands=FIELD_RADICANDS, max_terms=6)


def built_sum(terms) -> SurdScalar:
    """The sum of sign * (product of factors) over the terms, multiplied out."""
    return sum((sign * reduce(operator.mul, factors) for sign, factors in terms), rat(0))


@st.composite
def product_sums(draw):
    """(sign, factors) terms of one to three factors each.  In a "zero"
    draw each term recurs with the other sign and its factors reversed, so
    the sum is exactly 0; in a "near" draw a term +-2**-e, e up to 1200,
    joins them, so the sum is off 0 by less than any 64-bit enclosure (or
    any 1024-bit one) resolves."""
    term = st.tuples(st.sampled_from([1, -1]),
                     st.lists(FIELD_SURDS, min_size=1, max_size=3).map(tuple))
    terms = draw(st.lists(term, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["free", "zero", "near"]))
    event(kind)
    if kind != "free":
        terms += [(-sign, factors[::-1]) for sign, factors in terms]
    if kind == "near":
        e = draw(st.integers(min_value=0, max_value=1200))
        terms.append((draw(st.sampled_from([1, -1])), (rat(Fraction(1, 2 ** e)),)))
    return terms


@given(product_sums())
# a term of fewer factors that outweighs the others
@example([(1, (rat(100),)), (-1, (sqrt(2), sqrt(3)))])
@example([(-1, (sqrt(7), rat(Fraction(9, 2)))), (1, (sqrt(2), sqrt(5), sqrt(11)))])
@settings(max_examples=300, deadline=None)
def test_product_sum_sign_matches_built_sign(terms):
    assert product_sum_sign(terms) == built_sum(terms).sign()


def test_product_sum_sign_builds_the_sum_only_past_1024_bits(monkeypatch):
    x, y = 1 + sqrt(2) - 3 * sqrt(15), sqrt(3) + rat(Fraction(2, 7)) * sqrt(77) - sqrt(5)
    precs, products = [], []
    enclosure, mul = surd_module._enclosure, SurdScalar.__mul__

    def counted_enclosure(num, prec):
        precs.append(prec)
        return enclosure(num, prec)

    def counted_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(surd_module, "_enclosure", counted_enclosure)
    monkeypatch.setattr(SurdScalar, "__mul__", counted_mul)
    # decided at 64 bits, one enclosure per distinct factor
    assert product_sum_sign([(1, (x, y)), (-1, (x, x, y))]) == (x * y - x * x * y).sign()
    products.clear()
    assert product_sum_sign([(1, (x, y)), (-1, (y, y))]) == -1  # about -18.4 - 4.0
    assert precs[-2:] == [64, 64] and products == []
    # an exact zero: 64 to 1024 bits, then the exact fallback
    precs.clear()
    assert product_sum_sign([(1, (x, y)), (-1, (y, x))]) == 0
    assert sorted(set(precs)) == [64, 128, 256, 512, 1024] and len(products) == 2
    # off 0 by 2**-1100: undecided at 1024 bits as well
    products.clear()
    tiny = rat(Fraction(1, 2 ** 1100))
    assert product_sum_sign([(1, (x, y)), (-1, (y, x)), (-1, (tiny,))]) == -1
    assert len(products) == 2


@st.composite
def product_pairs(draw):
    """(x, y) over radicands from 2, 3, 5, 7 and 11; in a "rational" draw
    y is a rational multiple of 1 / x, so the product is rational."""
    x, y = draw(FIELD_SURDS), draw(FIELD_SURDS)
    if draw(st.booleans()) and not x.is_zero():
        event("rational")
        y = x.inverse() * rat(draw(rationals()))
    return x, y


@given(product_pairs())
@example((sqrt(2) + sqrt(3), sqrt(2) - sqrt(3)))
@example((sqrt(6) + sqrt(10), sqrt(6) - sqrt(10)))
@example((sqrt(2) + sqrt(3), sqrt(6)))
@example((rat(0), sqrt(5)))
@example((rat(3), rat(Fraction(2, 7))))
@example((sqrt(77), 2 * sqrt(77)))
@settings(max_examples=300, deadline=None)
def test_product_is_irrational_matches_built_product(pair):
    x, y = pair
    assert product_is_irrational(x, y) == (not (x * y).is_rational())
    assert product_is_irrational(y, x) == (not (x * y).is_rational())


def doubling_approx(v: SurdScalar, digits: int) -> Fraction:
    """`approx` as it was: enclosures at 32, 64, 128, ... bits, each taken,
    until one is narrower than 10**-digits."""
    prec = 32
    while True:
        lo, hi = surd_module._enclosure(v._num, prec)
        scale = v._den << prec
        if (hi - lo) * 10 ** digits < scale:
            return Fraction(lo + hi, 2 * scale)
        prec *= 2


@given(st.one_of(FIELD_SURDS, surds(radicands=FIELD_RADICANDS, max_terms=6, large=True)),
       st.integers(min_value=0, max_value=120))
@settings(max_examples=300, deadline=None)
def test_approx_matches_doubling_loop(v, digits):
    event(f"{len(v.radicands)} terms")
    assert v.approx(digits) == doubling_approx(v, digits)


def test_power_squares_once_per_bit_below_the_top(monkeypatch):
    products = []
    mul = SurdScalar.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(SurdScalar, "__mul__", counted)
    b = 3 - 2 * sqrt(2)
    for n in range(10):
        products.clear()
        value = b ** n
        monkeypatch.setattr(SurdScalar, "__mul__", mul)
        assert value == reduce(operator.mul, [b] * n, rat(1))
        monkeypatch.setattr(SurdScalar, "__mul__", counted)
        # one product per set bit, one square per bit below the top one
        assert len(products) == bin(n).count("1") + max(n.bit_length() - 1, 0)


# -- closed forms in one field Q(sqrt r) ----------------------------------------

BIG = st.integers(min_value=-10**30, max_value=10**30)


@st.composite
def one_field_values(draw, r):
    """(a + b sqrt r) / d with b != 0, numerators up to 10**30, a = 0 (the
    single term b sqrt r) about one time in three, and d a denominator up
    to 10**6, times a large prime or not."""
    a = 0 if draw(st.integers(0, 2)) == 0 else draw(BIG)
    d = draw(st.integers(2, 10**6)) * draw(st.sampled_from([1, 2**31 - 1, 998244353]))
    return SurdScalar.from_terms([(1, Fraction(a, d)), (r, Fraction(draw(BIG.filter(bool)), d))])


@st.composite
def one_field_pairs(draw):
    """(x, y): x an irrational value of Q(sqrt r), y one of the same field,
    its rational part alone or its sqrt(r) term alone."""
    r = draw(st.sampled_from(SQUAREFREE[1:]))
    x, y = draw(one_field_values(r)), draw(one_field_values(r))
    kind = draw(st.sampled_from(["field", "rational", "root"]))
    event(kind)
    if kind == "rational":
        y = rat(y.terms.get(1, Fraction(7, 3)))
    elif kind == "root":
        y = SurdScalar.from_terms([(r, y.terms[r])])
    return x, y


@given(one_field_pairs())
@settings(max_examples=200, deadline=None)
def test_one_field_closed_forms_match_the_oracles(case):
    # the inverse d (a - b sqrt r) / (a^2 - b^2 r), sums, differences and
    # comparisons in closed form store what the conjugate-product inverse,
    # the term-wise merge and the general merge store, and order as the
    # decimal values do
    x, y = case
    inv = x.inverse()
    assert stored(inv) == stored(conjugate_product_inverse(x))
    assert inv._den > 0 and x * inv == 1
    tx, ty = x.terms, y.terms
    for op, sign in ((operator.add, 1), (operator.sub, -1)):
        got = op(x, y)
        assert stored(got) == stored(general_merge(x, y, op))
        assert got.terms == oracle_merge(tx, ty, sign)
    assert stored(x - x) == ({}, 1)
    diff = decimal_value(x, 150) - decimal_value(y, 150)
    s = (diff > 0) - (diff < 0)
    assert x.compare(y) == s == -y.compare(x)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)


def test_one_field_inverse_takes_no_coprime_base(monkeypatch):
    def refuse(ns):
        raise AssertionError("a one-field inverse took the coprime-base loop")

    monkeypatch.setattr(surd_module, "_coprime_base", refuse)
    values = [sqrt(2), -3 * sqrt(5) / 7, 1 + sqrt(2), (rat(-10**30) + 10**29 * sqrt(3)) / 12,
              (sqrt(8) - 3) / (2**31 - 1)]
    for x in values:
        assert x * x.inverse() == 1
        assert stored(1 / x) == stored(x.inverse()) == stored(conjugate_product_inverse(x))
        assert stored((x + 1) / x) == stored((x + 1) * conjugate_product_inverse(x))
    with pytest.raises(AssertionError, match="coprime-base loop"):
        (sqrt(2) + sqrt(3)).inverse()  # two radicands still take it

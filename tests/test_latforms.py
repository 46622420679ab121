import dataclasses
import json
import random
from fractions import Fraction
from itertools import permutations
from math import lcm
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from conftest import triples_of
from test_acceptance import _random_surd_matrix

import torusfill.latforms as latforms_module
import torusfill.surd as surd_module
from torusfill.cli import _matrix_from_json
from torusfill.latforms import (
    AlternatingIntMatrix,
    AlternatingSurdMatrix,
    LatticeFormError,
    MOVE_GROUPS,
    NormalizationResult,
    PERMUTATIONS,
    SearchExhausted,
    UPPER_INDEX,
    build_period_lattice,
    normalize_basis,
    polarization_type,
    verify_no_curves,
    _condition_i,
    _condition_ii,
    _det_int,
    _fresh_prime,
    _ident,
    _integer_relation_exists,
    _mat_mul_int,
    _perm_matrix,
    _perm_sign,
    _permuted,
    _postconditions_hold,
    _transvected,
    _transvection,
)
from torusfill.surd import SurdScalar, rat, rational_relations, rationally_independent, sqrt


def snf_paired_divisors(entries) -> tuple[int, ...]:
    """Independent oracle: elementary divisors of an antisymmetric integer
    matrix pair up as (d1, d1, d2, d2, ...); returns (d1, d2, ...)."""
    s = smith_normal_form(sympy.Matrix(entries), domain=sympy.ZZ)
    diag = sorted(abs(int(s[i, i])) for i in range(s.rows))
    assert all(d > 0 for d in diag)
    assert diag[0::2] == diag[1::2], "divisors did not pair up"
    return tuple(diag[0::2])


def random_alternating(rng, n, bound=20) -> AlternatingIntMatrix:
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = rng.randint(-bound, bound)
                m[j][i] = -m[i][j]
        try:
            return AlternatingIntMatrix(m)
        except LatticeFormError:
            continue


def random_unimodular(rng, n) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        for row in u:
            row[i] += k * row[j]
    return u


def dense_conjugated(b, u) -> AlternatingSurdMatrix:
    """Oracle: U^T B U as two dense 4x4 products, each entry summed over
    the nonzero entries of U that it involves."""
    m = [[rat(0)] * 4 for _ in range(4)]
    for (i, j), x in zip(UPPER_INDEX, b.upper):
        m[i][j], m[j][i] = x, -x
    bu = [[sum((m[i][k] * u[k][j] for k in range(4) if u[k][j]), rat(0))
           for j in range(4)] for i in range(4)]
    full = [[sum((rat(u[k][i]) * bu[k][j] for k in range(4) if u[k][i]), rat(0))
             for j in range(4)] for i in range(4)]
    return AlternatingSurdMatrix([full[i][j] for i, j in UPPER_INDEX])


NORMALIZER_TRANSVECTION_PAIRS = ((1, 2), (1, 3), (3, 0), (2, 0), (3, 1), (2, 1), (0, 2), (0, 3))


def meets_contract(m) -> bool:
    """The normaliser's contract in full, as an oracle: conditions (i) and
    (ii), a positive omega^2 coefficient and b13 b24 - b14 b23 > 0, with
    both products built."""
    _, b13, b14, b23, b24, _ = m.upper
    return (_condition_i(m) and _condition_ii(m) and m.volume_coefficient().sign() > 0
            and (b13 * b24 - b14 * b23).sign() > 0)


def three_pass_normalize(b, k_range=10) -> NormalizationResult:
    """Reference: the normalizer as three passes over all 24 permutations,
    each re-conjugating the input by dense_conjugated and skipping the
    negatively oriented conjugates.  Fixes the order in which candidates are
    tried, and tries every transvection."""
    if not b.is_irrational():
        raise LatticeFormError("form is rational; normalization needs an irrational form")

    candidates = [_perm_matrix(perm) for perm in permutations(range(4))]
    transvections = [_ident(4)]
    for target, source in NORMALIZER_TRANSVECTION_PAIRS:
        for k in range(-k_range, k_range + 1):
            if k:
                transvections.append(_transvection(target, source, k))

    # pass 1: permutation only; pass 2: permutation then one transvection;
    # pass 3: permutation then two transvections (condition fixes compose)
    for u0 in candidates:
        b0 = dense_conjugated(b, u0)
        if b0.volume_coefficient().sign() <= 0:
            continue
        if meets_contract(b0):
            return NormalizationResult(b0, u0, _det_int(u0))
    for u0 in candidates:
        b0 = dense_conjugated(b, u0)
        if b0.volume_coefficient().sign() <= 0:
            continue
        for t1 in transvections[1:]:
            b1 = dense_conjugated(b0, t1)
            if meets_contract(b1):
                return NormalizationResult(b1, _mat_mul_int(u0, t1), _det_int(u0))
    for u0 in candidates:
        b0 = dense_conjugated(b, u0)
        if b0.volume_coefficient().sign() <= 0:
            continue
        for t1 in transvections:
            b1 = dense_conjugated(b0, t1)
            if not _condition_i(b1):
                continue
            for t2 in transvections[1:]:
                b2 = dense_conjugated(b1, t2)
                if meets_contract(b2):
                    u = _mat_mul_int(_mat_mul_int(u0, t1), t2)
                    return NormalizationResult(b2, u, _det_int(u0))
    raise SearchExhausted(f"three passes found nothing (search range {k_range})")


# the irrational forms that the tests below normalize one by one
HAND_PICKED_FORMS = [
    [1, sqrt(2), 0, 0, 1, 1],
    [0, 1, sqrt(2), -1, -1, 0],
    [1, sqrt(2), 0, 0, 0, 1],
    [1, sqrt(2), 1, 5, 7, 1],
    [0, 1 + sqrt(2), sqrt(3), -sqrt(6), 1, 0],
    [1, 1 + sqrt(2), sqrt(3), -sqrt(6), 1, sqrt(5)],
]


def test_polarization_examples():
    assert polarization_type(AlternatingIntMatrix.from_blocks([2, 3]))[0] == (1, 6)
    assert polarization_type(AlternatingIntMatrix.from_blocks([2, 4]))[0] == (2, 4)
    for n in (1, 2, 3):
        blocks = [1] * n
        assert polarization_type(AlternatingIntMatrix.from_blocks(blocks))[0] == tuple(blocks)


def test_polarization_matches_snf_oracle():
    rng = random.Random(20260810)
    for _ in range(40):
        b = random_alternating(rng, 4)
        divisors, u = polarization_type(b)
        assert abs(_det_int(u)) == 1
        assert divisors == snf_paired_divisors(b.entries)
    for _ in range(10):
        b = random_alternating(rng, 6)
        divisors, u = polarization_type(b)
        assert abs(_det_int(u)) == 1
        assert divisors == snf_paired_divisors(b.entries)


def test_polarization_conjugation_invariant():
    rng = random.Random(7)
    for _ in range(15):
        b = random_alternating(rng, 4)
        u = random_unimodular(rng, 4)
        conj = b.conjugated(u)
        assert polarization_type(b)[0] == polarization_type(conj)[0]


def test_alternating_matrix_validation():
    with pytest.raises(LatticeFormError):
        AlternatingIntMatrix([[0, 1], [1, 0]])
    with pytest.raises(LatticeFormError):
        AlternatingIntMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(LatticeFormError):  # degenerate
        AlternatingIntMatrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize("upper, lower", [(1.7, -1.7), (1.0, -1.0), (True, -1), ("1", "-1"),
                                          (Fraction(1), Fraction(-1))])
def test_alternating_matrix_accepts_only_int_entries(upper, lower):
    # int() would truncate [[0, 1.7], [-1.7, 0]] to a matrix of type (1,)
    with pytest.raises(TypeError):
        AlternatingIntMatrix([[0, upper], [lower, 0]])
    assert polarization_type(AlternatingIntMatrix([[0, 1], [-1, 0]]))[0] == (1,)


def test_surd_matrix_basics():
    b = AlternatingSurdMatrix([1, sqrt(2), 0, 0, 1, 1])
    assert b.upper[0] == rat(1)
    assert b.is_irrational()
    rational = AlternatingSurdMatrix([1, 2, 0, 0, 1, 1])
    assert not rational.is_irrational()
    ray = AlternatingSurdMatrix([sqrt(2), 2 * sqrt(2), 0, 0, sqrt(2), sqrt(2)])
    assert not ray.is_irrational()
    with pytest.raises(LatticeFormError):
        AlternatingSurdMatrix([1, 0, 0, 0, 0, 0])  # omega^2 = 0


def test_normalize_zero_pair_branch():
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    res = normalize_basis(b)
    assert res.matrix.upper[0].is_zero() and res.matrix.upper[5].is_zero()
    assert res.matrix.volume_coefficient().sign() > 0


def test_normalize_transvection_mechanism():
    # b12 = 1, b34 = 1, b13 = sqrt 2: the transvection lambda2 += k lambda3
    # turns b12 into 1 + k sqrt 2 (k = 1 suffices) and leaves b34 alone
    b = AlternatingSurdMatrix([1, sqrt(2), 0, 0, 0, 1])
    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert u == _transvection(1, 2, 1)
    changes = next(changes for target, source, _, changes in MOVE_GROUPS
                   if (target, source) == (1, 2))
    conj = dense_conjugated(b, u)
    assert dict(_transvected(b.upper, changes))[1] == conj.upper
    assert conj.upper[0] == rat(1) + sqrt(2)
    assert conj.upper[5] == rat(1)
    assert rationally_independent([conj.upper[0], conj.upper[5]])


def test_normalize_without_zero_pairing():
    # no pairing of indices has both entries zero, so the normalizer must
    # run the transvection branch of the general case
    b = AlternatingSurdMatrix([1, sqrt(2), 1, 5, 7, 1])
    res = normalize_basis(b)
    m = res.matrix
    b12, b34 = m.upper[0], m.upper[5]
    assert b12.sign() > 0 and b34.sign() > 0
    assert rationally_independent([b12, b34])
    vec = m.upper[1:5]
    nonzero = [x for x in vec if not x.is_zero()]
    assert any(rationally_independent([nonzero[0], o]) for o in nonzero[1:])


def random_surd_matrix(rng) -> AlternatingSurdMatrix:
    rads = [1, 2, 3, 5]
    upper = []
    for _ in range(6):
        terms = []
        for r in rads:
            if rng.random() < 0.4:
                terms.append((r, Fraction(rng.randint(-4, 4))))
        upper.append(sum((rat(c) * sqrt(r) for r, c in terms), rat(0)))
    try:
        m = AlternatingSurdMatrix(upper)
    except LatticeFormError:
        return random_surd_matrix(rng)
    if not m.is_irrational():
        return random_surd_matrix(rng)
    return m


def test_normalize_postconditions_random():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        b = random_surd_matrix(rng)
        res = normalize_basis(b)
        m = res.matrix
        assert m.volume_coefficient().sign() > 0
        b12, b13, b14, b23, b24, b34 = m.upper
        assert (b13 * b24 - b14 * b23).sign() > 0
        assert (b12.is_zero() and b34.is_zero()) or (
            b12.sign() > 0 and b34.sign() > 0 and rationally_independent([b12, b34]))
        # conjugation really relates input and output (by the dense oracle)
        assert dense_conjugated(b, res.base_change).upper == m.upper
        assert abs(_det_int(res.base_change)) == 1
        checked += 1


def test_transvection_table_is_the_constant_normalizer_list():
    # lambda_target += k lambda_source as (target, source, k); the normaliser
    # tries them pair by pair, k ascending, one move group per pair
    rebuilt = tuple((target, source, k) for target, source in NORMALIZER_TRANSVECTION_PAIRS
                    for k in range(-10, 11) if k)
    assert len(rebuilt) == 160
    b = AlternatingSurdMatrix(HAND_PICKED_FORMS[0])
    assert tuple((target, source, k) for target, source, _, changes in MOVE_GROUPS
                 for k, _ in _transvected(b.upper, changes)) == rebuilt
    # a move keeps the diagonal entry of the other side: b34 for lambda_1,
    # lambda_2 as target, b12 for lambda_3, lambda_4
    assert [kept for _, _, kept, _ in MOVE_GROUPS] == \
        [5 if target < 2 else 0 for target, _ in NORMALIZER_TRANSVECTION_PAIRS]
    for target, source, k in rebuilt:
        assert _transvection(target, source, k) == [
            [k if (i, j) == (source, target) else int(i == j) for j in range(4)]
            for i in range(4)]
    # the 12 permutations of each orientation, in the order of permutations()
    for orientation in (1, -1):
        assert [perm for perm, _ in PERMUTATIONS[orientation]] == [
            perm for perm in permutations(range(4))
            if _det_int(_perm_matrix(perm)) == orientation]
    tables = (MOVE_GROUPS, PERMUTATIONS[1], PERMUTATIONS[-1])
    assert all(type(table) is tuple and all(type(row) is tuple for row in table)
               for table in tables)


# forms with zero, rational and multi-radicand entries, and the form that
# needs two transvections
TWO_TRANSVECTION_FORM = [10, 1, 1, -1, 1, -sqrt(2) / 20]
MOVE_TEST_FORMS = HAND_PICKED_FORMS + [
    [1, 2, 0, 0, 1, 1],
    [3, -1, 0, 2, 5, -7],
    [0, 0, 2, -3, 0, 0],
    [sqrt(2), 0, 0, 0, 0, -sqrt(3)],
    [-1 - sqrt(2) + sqrt(3), sqrt(6) / 5, 0, -sqrt(30), rat(Fraction(2, 3)), 4 * sqrt(5)],
    TWO_TRANSVECTION_FORM,
]


def test_conjugated_matches_dense_oracle():
    # every permutation, as a reindexing, and every transvection, as a
    # two-entry move, gives U^T B U computed in full
    rng = random.Random(29)
    forms = ([random_surd_matrix(rng) for _ in range(4)]
             + [AlternatingSurdMatrix(upper) for upper in MOVE_TEST_FORMS])
    for b in forms:
        permuted = [(perm, upper) for orientation in (1, -1)
                    for perm, upper in _permuted(b.upper, orientation)]
        assert sorted(perm for perm, _ in permuted) == list(permutations(range(4)))
        for perm, upper in permuted:
            assert AlternatingSurdMatrix(upper).to_json() == \
                dense_conjugated(b, _perm_matrix(perm)).to_json(), (b.upper, perm)
        moves = 0
        for target, source, kept, changes in MOVE_GROUPS:
            for k, upper in _transvected(b.upper, changes):
                assert AlternatingSurdMatrix(upper).to_json() == dense_conjugated(
                    b, _transvection(target, source, k)).to_json(), (b.upper, target, source, k)
                assert upper[kept] == b.upper[kept]
                moves += 1
        assert moves == 160


def test_normalize_picks_same_base_change_as_dense_oracle():
    rng = random.Random(1234)
    forms = ([_random_surd_matrix(rng) for _ in range(200)]
             + [AlternatingSurdMatrix(upper) for upper in HAND_PICKED_FORMS]
             + [AlternatingSurdMatrix(TWO_TRANSVECTION_FORM)])

    def outcome(normalize, b):
        res = normalize(b)
        return [triples_of(x) for x in res.matrix.upper], res.base_change, res.determinant

    found = [outcome(normalize_basis, b) for b in forms]
    assert [outcome(three_pass_normalize, b) for b in forms] == found
    # both orientations occur, so the determinant is exercised as -1 and +1
    assert {det for _, _, det in found} == {-1, 1}


class CandidateChecks:
    """Hooks the normaliser's candidate checks, `_postconditions_hold` and
    the filter `_condition_i`: records every candidate that `normalize_basis`
    tests, once, and `depth` is nonzero while a check runs."""

    def __init__(self, monkeypatch):
        self.candidates = []
        self.depth = 0
        for name in ("_postconditions_hold", "_condition_i"):
            monkeypatch.setattr(latforms_module, name, self._hook(getattr(latforms_module, name)))

    def _hook(self, check):
        def hooked(m):
            if not self.depth:
                self.candidates.append(m)
            self.depth += 1
            try:
                return check(m)
            finally:
                self.depth -= 1
        return hooked


def golden_period_lattice_forms():
    golden = json.loads((Path(__file__).parent / "data" / "period_lattice_golden.json").read_text())
    return [_matrix_from_json(case["matrix"]) for case in golden["cases"]]


def test_normalizer_spends_two_sums_and_two_products_per_transvection(monkeypatch):
    # outside its candidate checks the normaliser does surd arithmetic only
    # for the transvection candidates it builds (two sums each, and two
    # products unless k = +-1): the input's orientation is read from the
    # omega^2 coefficient its constructor kept, and permutations cost none
    checks = CandidateChecks(monkeypatch)
    ops = {"products": 0, "sums": 0}

    def counting(op, kind):
        def counted(self, other):
            if not checks.depth:
                ops[kind] += 1
            return op(self, other)
        return counted

    for name, kind in (("__mul__", "products"), ("__rmul__", "products"), ("__add__", "sums"),
                       ("__radd__", "sums"), ("__sub__", "sums"), ("__rsub__", "sums")):
        monkeypatch.setattr(SurdScalar, name, counting(getattr(SurdScalar, name), kind))
    forms = golden_period_lattice_forms()
    assert len(forms) == 23
    built_in_all = 0
    for b in forms:
        checks.candidates.clear()
        ops.update(products=0, sums=0)
        normalize_basis(b)
        # the 12 permutations are checked first, then each transvection
        # candidate once, as it is built
        built = max(0, len(checks.candidates) - 12)
        assert ops["products"] <= 2 * built, (b.upper, built, ops)
        assert ops["sums"] <= 2 * built, (b.upper, built, ops)
        built_in_all += built
    assert built_in_all > 100


def test_normal_form_normalises_to_itself():
    # the winner carries its omega^2 coefficient, |V| of the input, so it
    # normalises again, by the identity, to the same entries
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    for b in golden_period_lattice_forms():
        normal = normalize_basis(b).matrix
        assert normal.volume == normal.volume_coefficient() == abs(b.volume)
        again = normalize_basis(normal)
        assert (again.base_change, again.determinant) == (identity, 1)
        assert again.matrix.upper == normal.upper


def test_postconditions_imply_the_contract_on_every_candidate(monkeypatch):
    # a candidate's omega^2 coefficient is det U * V = |V| > 0, and (i) gives
    # b12 b34 >= 0, so b13 b24 - b14 b23 = V' + b12 b34 > 0: on every
    # candidate the normaliser checks, (i) and (ii) decide the full contract
    verdicts = []

    def checked(m):
        got = _postconditions_hold(m)
        assert m.volume_coefficient().sign() > 0
        assert got == meets_contract(m), m.upper
        verdicts.append(got)
        return got

    monkeypatch.setattr(latforms_module, "_postconditions_hold", checked)
    rng = random.Random(1234)
    forms = [AlternatingSurdMatrix(f) for f in HAND_PICKED_FORMS + [TWO_TRANSVECTION_FORM]]
    forms += [_random_surd_matrix(rng) for _ in range(20)]
    for b in forms:
        normalize_basis(b)
    assert verdicts.count(True) == len(forms) < verdicts.count(False)


def off_one_rational_ray(values) -> bool:
    """Reference: some nonzero value is independent of the first nonzero one."""
    nonzero = [x for x in values if not x.is_zero()]
    return any(rationally_independent([nonzero[0], other]) for other in nonzero[1:])


def assert_rank_tests_match_pairwise_loop(b):
    assert b.is_irrational() == off_one_rational_ray(b.upper), b.upper
    assert _condition_ii(b) == off_one_rational_ray(b.upper[1:5]), b.upper


def test_rank_conditions_match_pairwise_loop(monkeypatch):
    golden_forms = golden_period_lattice_forms()
    assert len(golden_forms) == 23
    rng = random.Random(1234)
    draws = [_random_surd_matrix(rng) for _ in range(200)]
    for b in golden_forms + draws:
        assert_rank_tests_match_pairwise_loop(b)

    checks = CandidateChecks(monkeypatch)
    for b in draws[:20]:
        normalize_basis(b)
    visited = checks.candidates
    # both verdicts of both tests occur among the normaliser's candidates
    assert len(visited) > 20 * 12
    assert {_condition_ii(m) for m in visited} == {True, False}
    for m in visited:
        assert_rank_tests_match_pairwise_loop(m)
    # and on forms with rational, zero or proportional entries
    for upper in ([1, 2, 0, 0, 1, 1], [sqrt(2), 2 * sqrt(2), 0, 0, sqrt(2), sqrt(2)],
                  [0, 1, 0, 0, 1, sqrt(2)], [sqrt(3), 1, 2, 0, 3, 0]):
        assert_rank_tests_match_pairwise_loop(AlternatingSurdMatrix(upper))


def no_candidate_up_to_one_transvection(b, k_range):
    """True iff no permutation, alone or followed by one transvection of any
    source and target with |k| <= k_range, meets the contract."""
    starts = [dense_conjugated(b, _perm_matrix(perm)) for perm in permutations(range(4))]
    return (not any(meets_contract(m) for m in starts)
            and not any(meets_contract(dense_conjugated(m, _transvection(target, source, k)))
                        for m in starts for target in range(4) for source in range(4)
                        if target != source
                        for k in range(-k_range, k_range + 1) if k))


def test_normalize_depth_two_branch_is_reached():
    # at k_range 1 no permutation, alone or followed by one transvection,
    # meets the contract; the oracle's depth-2 pass does
    b = AlternatingSurdMatrix([1, sqrt(2), sqrt(2), sqrt(2), -sqrt(2), sqrt(2)])
    assert no_candidate_up_to_one_transvection(b, 1)
    expected = [[0, 1, 0, 0], [1, 0, 0, -1], [0, 1, 1, 0], [0, 0, 0, 1]]
    res = three_pass_normalize(b, k_range=1)
    assert res.base_change == expected
    assert meets_contract(res.matrix)
    assert dense_conjugated(b, expected).upper == res.matrix.upper


def test_normalize_needs_two_transvections_at_default_range():
    # the family that normalize_basis names in its docstring: every entry but
    # b34 is rational, the largest one (b12) and b34 have opposite signs,
    # 10 * max|b13, b14, b23, b24| <= |b12| and 10 |b34| <= max|...|, so no
    # single transvection with |k| <= 10 helps and two do
    b = AlternatingSurdMatrix(TWO_TRANSVECTION_FORM)
    assert no_candidate_up_to_one_transvection(b, 10)
    res = normalize_basis(b)
    expected = [[1, 0, 0, -10], [0, 1, 0, 0], [0, -9, 1, 0], [0, 0, 0, 1]]
    assert res.base_change == expected
    assert three_pass_normalize(b).base_change == expected
    assert meets_contract(res.matrix)
    assert dense_conjugated(b, expected).upper == res.matrix.upper
    assert verify_no_curves(build_period_lattice(res)).ok


def test_normalize_matches_oracle_on_small_entry_forms():
    # a seeded sample of the irrational nondegenerate forms with entries in
    # {0, +-1, +-sqrt 2, +-(1 + sqrt 2)}
    values = [rat(0), rat(1), rat(-1), sqrt(2), -sqrt(2), 1 + sqrt(2), -1 - sqrt(2)]
    rng = random.Random(20261018)
    forms = []
    while len(forms) < 200:
        try:
            b = AlternatingSurdMatrix([rng.choice(values) for _ in range(6)])
        except LatticeFormError:
            continue
        if b.is_irrational():
            forms.append(b)
    for b in forms:
        res, oracle = normalize_basis(b), three_pass_normalize(b)
        assert res.matrix.to_json() == oracle.matrix.to_json(), b.upper
        assert (res.base_change, res.determinant) == (oracle.base_change, oracle.determinant)


def test_permutation_sign_is_the_determinant():
    for perm in permutations(range(4)):
        assert _perm_sign(perm) == _det_int(_perm_matrix(perm))


@given(st.sets(st.integers(min_value=1, max_value=3000), max_size=6))
@settings(max_examples=100, deadline=None)
def test_fresh_prime_is_smallest_prime_dividing_no_radicand(used):
    expected = next(p for p in sympy.primerange(2, 10**4) if all(r % p for r in used))
    assert _fresh_prime(used) == expected


def test_normalize_rejects_rational_input():
    with pytest.raises(LatticeFormError):
        normalize_basis(AlternatingSurdMatrix([1, 2, 0, 0, 1, 1]))


def test_volume_coefficient_sign_sl_invariant():
    rng = random.Random(3)
    b = random_surd_matrix(rng)
    for _ in range(10):
        u = random_unimodular(rng, 4)
        assert dense_conjugated(b, u).volume_coefficient().sign() == \
            b.volume_coefficient().sign()


def test_period_lattice_base_point_identities():
    # independent off-block entries: the base point itself already works
    b = AlternatingSurdMatrix([0, 1 + sqrt(2), sqrt(3), -sqrt(6), 1, 0])
    res = normalize_basis(b)
    sol = build_period_lattice(res)
    m = res.matrix
    b12, b13, b14, b23, b24, b34 = m.upper
    # compatibility holds by construction
    assert sol.r * b13 - sol.p * b14 == sol.q * b24 - sol.s * b23
    if (sol.p, sol.q, sol.r, sol.s) == (b13, b23, b14, b24):
        # first-shot base point: x = (b24 b13 - b23 b14) / D = 1
        assert sol.x == rat(1)
    assert sol.det.sign() > 0


def test_period_lattice_scaling_identity():
    b = AlternatingSurdMatrix([1, 1 + sqrt(2), sqrt(3), -sqrt(6), 1, sqrt(5)])
    res = normalize_basis(b)
    m = res.matrix
    assert not m.upper[0].is_zero()
    sol = build_period_lattice(res)
    assert not sol.zero_case
    # rho^2 D = b34 / b12, so the scaled quadruple satisfies ps - qr = b34/b12
    assert sol.rho_sq * sol.det == m.upper[5] / m.upper[0]
    assert sol.v == m.upper[0]


def test_period_lattice_zero_case_rho():
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    res = normalize_basis(b)
    sol = build_period_lattice(res)
    assert sol.zero_case and sol.v.is_zero()
    assert not (sol.rho_sq * sol.det).is_rational()
    assert len(sol.rho_decimal(50).split(".")[1]) == 50


def test_verify_no_curves_conditions():
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    sol = build_period_lattice(normalize_basis(b))
    cert = verify_no_curves(sol)
    assert cert.ok
    assert set(cert.conditions) == {
        "rationally_independent", "ps_qr_irrational", "x_positive",
        "positivity", "compatibility", "integer_search"}
    assert set(cert.conditions.values()) == {True}


def test_verify_no_curves_eliminates_once_and_multiplies_no_solution_value(monkeypatch):
    # one rational_relations serves independence and the integer search, and
    # positivity and ps_qr_irrational are read off their factors: no product
    # takes x, y, u, rho^2 or D as an operand
    solutions = [build_period_lattice(normalize_basis(b)) for b in golden_period_lattice_forms()]
    assert max(len(sol.rho_sq.radicands) for sol in solutions) == 32
    echelons, products, watched = [], [], []
    echelon = surd_module.int_echelon

    def counted_echelon(m):
        echelons.append(m)
        return echelon(m)

    def counting(op):
        def counted(self, other):
            if any(w is self or w is other for w in watched):
                products.append((self, other))
            return op(self, other)
        return counted

    monkeypatch.setattr(surd_module, "int_echelon", counted_echelon)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(SurdScalar, name, counting(getattr(SurdScalar, name)))
    for sol in solutions:
        echelons.clear()
        watched[:] = [sol.x, sol.y, sol.u, sol.rho_sq, sol.det]
        assert verify_no_curves(sol, bound=20).ok
        assert len(echelons) == 1
        assert products == []


def test_positivity_needs_rho_sq_positive_and_weighs_v_by_rho_sq():
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    sol = build_period_lattice(normalize_basis(b))

    def positivity(x_y, v, rho_sq):
        # x y - u^2 = x_y with u = 0; v is read from b12 of a nondegenerate b
        b = AlternatingSurdMatrix([v, 1, 0, 0, 1, 0])
        hand_built = dataclasses.replace(sol, b=b, x=rat(1), y=rat(x_y), u=rat(0),
                                         rho_sq=rat(rho_sq))
        assert hand_built.v == rat(v)
        return verify_no_curves(hand_built).conditions["positivity"]

    assert positivity(2, 1, 1)        # 2 - 1 > 0
    assert not positivity(2, 1, 3)    # 2 - 3 < 0, though 2 - 1 > 0
    assert not positivity(2, 0, 0)    # rho^2 = 0
    assert not positivity(-5, 1, -1)  # rho^2 < 0, though (-5) / (-1) - 1 > 0


def test_certificate_rejects_a_perturbed_r():
    # the builder no longer re-checks compatibility; the certificate does
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    sol = build_period_lattice(normalize_basis(b))
    assert verify_no_curves(sol).ok
    cert = verify_no_curves(dataclasses.replace(sol, r=sol.r + sqrt(7)))
    assert cert.conditions["compatibility"] is False
    assert not cert.ok and [k for k, v in cert.conditions.items() if not v] == ["compatibility"]


def test_certificate_rejects_a_rational_rho_sq_times_d_in_the_zero_case():
    # the builder no longer re-checks that rho^2 D is irrational; the
    # certificate does
    b = AlternatingSurdMatrix([0, 1, sqrt(2), -1, -1, 0])
    sol = build_period_lattice(normalize_basis(b))
    assert sol.zero_case and verify_no_curves(sol).ok
    rho_sq = rat(Fraction(3, 2)) * sol.det.inverse()
    cert = verify_no_curves(dataclasses.replace(sol, rho_sq=rho_sq))
    assert cert.conditions["ps_qr_irrational"] is False
    assert not cert.ok and [k for k, v in cert.conditions.items() if not v] == ["ps_qr_irrational"]


@pytest.mark.parametrize("upper", [
    [sqrt(3), 3, 1, -2 * sqrt(2), 3, sqrt(5)],
    [0, sqrt(2) + 2 * sqrt(5), 3 * sqrt(2) + 3 * sqrt(5), -sqrt(5), 0, 0],
], ids=["b12-nonzero", "zero-case"])
def test_perturbation_runs_one_elimination_per_round(monkeypatch, upper):
    # the normalized forms of criterion-10 draws 231 and 312, on which the
    # perturbation takes two rounds
    b = AlternatingSurdMatrix(upper)
    normalized = normalize_basis(b)
    assert normalized.matrix.upper == b.upper  # already normalized
    calls = []
    original = surd_module.int_echelon

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(surd_module, "int_echelon", counting)
    assert _condition_i(b) and _condition_ii(b)  # the contract normalize_basis decided
    entry = len(calls)
    sol = build_period_lattice(normalized)
    rounds = len(sol.fresh_radicals) - sol.zero_case
    assert rounds == 2
    # one elimination per round, plus the one that finds no relation left;
    # the builder decides no condition of the contract again
    assert len(calls) - entry == rounds + 1


def grid_relation_exists(values, bound) -> bool:
    """Reference oracle: scan the whole box [-bound, bound]^4 for an integer
    relation, with vectorized exact int64 arithmetic."""
    cols = sorted(set().union(*[v.radicands for v in values]) or {1})
    mat = []
    for c in cols:
        column = [v.terms.get(c, 0) for v in values]
        denom = lcm(*(f.denominator for f in column))
        mat.append([int(f * denom) for f in column])
    assert max(abs(e) for row in mat for e in row) * bound * len(values) < 2 ** 62
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    mask = np.ones((len(rng),) * 4, dtype=bool)
    for col in mat:
        mask &= (col[0] * rng[:, None, None, None]
                 + col[1] * rng[None, :, None, None]
                 + col[2] * rng[None, None, :, None]
                 + col[3] * rng[None, None, None, :]) == 0
    mask[bound, bound, bound, bound] = False
    return bool(mask.any())


def test_integer_relation_search():
    for values, bound, expected in [
        ([rat(1), rat(2), rat(3), rat(-1)], 20, True),
        ([rat(1), rat(2), rat(3), rat(-1)], 0, False),  # the box holds only 0
        ([rat(1), sqrt(2), sqrt(3), sqrt(6)], 20, False),
        # a zero value admits the obvious relation
        ([rat(21), rat(1), rat(0), sqrt(2)], 20, True),
        # relation with larger coefficients is invisible below its size
        ([rat(21), rat(1), sqrt(2), sqrt(3)], 20, False),
        ([rat(21), rat(1), sqrt(2), sqrt(3)], 21, True),
    ]:
        assert _integer_relation_exists(rational_relations(values), bound) == expected
        assert grid_relation_exists(values, bound) == expected


def random_quadruple(rng, dim):
    """Four nonzero scalars whose rational relations form a kernel of
    dimension dim: random rational combinations of 4 - dim independent
    generators.  For dim 3 the single generator is 1 in about half the
    draws, which gives rational quadruples."""
    rational = dim == 3 and rng.random() < 0.5
    gens = [rat(1)] if rational else rng.sample([rat(1), sqrt(2), sqrt(3), sqrt(5)], 4 - dim)
    while True:
        values = [sum((rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) * g for g in gens),
                      rat(0)) for _ in range(4)]
        if all(values) and len(rational_relations(values)) == dim:
            return values


def test_integer_relation_search_matches_grid_on_random_kernels():
    rng = random.Random(20261017)
    verdicts = {True: 0, False: 0}
    for dim in (1, 2, 3):
        for _ in range(40):
            values, bound = random_quadruple(rng, dim), rng.randint(1, 4)
            found = _integer_relation_exists(rational_relations(values), bound)
            assert found == grid_relation_exists(values, bound), (values, bound)
            verdicts[found] += 1
    assert min(verdicts.values()) >= 10  # both verdicts are exercised


def test_integer_relation_search_matches_grid_on_corpus():
    # the criterion-10 corpus, as verify_no_curves searches it
    rng = random.Random(1234)
    done = 0
    while done < 10:
        try:
            normalized = normalize_basis(_random_surd_matrix(rng))
        except SearchExhausted:
            continue
        sol = build_period_lattice(normalized)
        values = [-sol.r, sol.p, -sol.s, sol.q]
        assert (_integer_relation_exists(rational_relations(values), 20)
                == grid_relation_exists(values, 20))
        done += 1


WIDE_MAGNITUDES = [1, 2, 3, 10**10, 10**20, 10**30]

# draws of wide_magnitude_form from random.Random(3) on which the first
# perturbation direction needs more than 64 halvings and no later direction
# does better: a search capped at 64 halvings per direction gave up on them
CAPPED_HALVING_DRAWS = [302, 377, 627, 635, 772, 780, 811, 922, 959, 1113, 1243,
                        1276, 1326, 1367, 1380, 1410, 1416]


def wide_magnitude_form(rng) -> AlternatingSurdMatrix:
    """Entries sum +-m sqrt(r) over r in {1, 2, 3, 5}, each term drawn with
    probability 0.3, m from WIDE_MAGNITUDES; irrational and nondegenerate."""
    while True:
        upper = [sum((rat(rng.choice((-1, 1)) * rng.choice(WIDE_MAGNITUDES)) * sqrt(r)
                      for r in (1, 2, 3, 5) if rng.random() < 0.3), rat(0))
                 for _ in range(6)]
        try:
            m = AlternatingSurdMatrix(upper)
        except LatticeFormError:
            continue
        if m.is_irrational():
            return m


def test_period_lattices_of_wide_magnitude_forms():
    rng = random.Random(3)
    draws = [wide_magnitude_form(rng) for _ in range(1500)]
    for b in draws[:100] + [draws[i] for i in CAPPED_HALVING_DRAWS]:
        sol = build_period_lattice(normalize_basis(b))
        # at most two perturbation rounds, plus rho^2's prime in the zero case
        assert len(sol.fresh_radicals) <= 2 + sol.zero_case
        cert = verify_no_curves(sol)
        assert cert.ok, (cert.conditions, b.upper)


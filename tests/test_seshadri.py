from fractions import Fraction
from math import isqrt

import pytest

from torusfill.seshadri import (
    PellSolution,
    SeshadriError,
    pell_min,
    surface_bound,
    table,
    width_filling_convert,
)
from torusfill.surd import rat, sqrt


def pell_brute_force(N: int, k_limit: int = 200_000) -> tuple[int, int] | None:
    """Scan k = 1, 2, ... until N k^2 + 1 is a perfect square."""
    for k in range(1, k_limit + 1):
        target = N * k * k + 1
        root = isqrt(target)
        if root * root == target:
            return k, root
    return None


def pell_chakravala(N: int) -> tuple[int, int]:
    """Independent second algorithm for the fundamental solution."""
    root = isqrt(N)
    if root * root == N:
        raise ValueError("square N")
    a, b, k = root + 1, 1, (root + 1) ** 2 - N
    while k != 1:
        m_best, dist_best = None, None
        m = 0
        while m_best is None or m * m <= N + abs(k) * max(1, abs(m_best)):
            if (a + b * m) % k == 0 and a + b * m != 0:
                dist = abs(m * m - N)
                if dist_best is None or dist < dist_best:
                    m_best, dist_best = m, dist
            m += 1
            if m > 4 * N + abs(k) + 4:
                break
        m = m_best
        a, b, k = ((a * m + N * b) // abs(k), (a + b * m) // abs(k),
                   (m * m - N) // k)
    return b, a


# the thirty type-(1, d) rows: (d, k0, l0) with blank Pell cells for square 2d
TABLE_30 = {
    1: (2, 3), 2: None, 3: (2, 5), 4: (1, 3), 5: (6, 19),
    6: (2, 7), 7: (4, 15), 8: None, 9: (4, 17), 10: (2, 9),
    11: (42, 197), 12: (1, 5), 13: (10, 51), 14: (24, 127), 15: (2, 11),
    16: (3, 17), 17: (6, 35), 18: None, 19: (6, 37), 20: (3, 19),
    21: (2, 13), 22: (30, 199), 23: (3588, 24335), 24: (1, 7), 25: (14, 99),
    26: (90, 649), 27: (66, 485), 28: (2, 15), 29: (2574, 19603), 30: (4, 31),
}


def test_pell_examples():
    assert (pell_min(2).k0, pell_min(2).l0) == (2, 3)
    assert (pell_min(46).k0, pell_min(46).l0) == (3588, 24335)
    assert pell_brute_force(3) == (1, 2)
    assert (pell_min(3).k0, pell_min(3).l0) == (1, 2)


def test_pell_validation():
    with pytest.raises(SeshadriError):
        pell_min(4)
    with pytest.raises(SeshadriError):
        pell_min(1)
    with pytest.raises(SeshadriError):
        PellSolution(2, 2, 4)


def test_pell_matches_brute_force_small():
    for n in range(2, 60):
        if isqrt(n) ** 2 == n:
            continue
        sol = pell_min(n)
        assert pell_brute_force(n) == (sol.k0, sol.l0)


def test_pell_matches_chakravala_large():
    for n in (61, 109, 151, 181, 199):
        sol = pell_min(n)
        assert pell_chakravala(n) == (sol.k0, sol.l0)
        assert sol.l0 ** 2 - n * sol.k0 ** 2 == 1


def test_surface_bound_examples():
    b2 = surface_bound(2)
    assert b2.epsilon == rat(2) and b2.p_lower == 1 and b2.pell is None
    b1 = surface_bound(1)
    assert b1.epsilon == rat(Fraction(4, 3)) and b1.p_lower == Fraction(8, 9)
    b13 = surface_bound(13)
    assert (b13.pell.k0, b13.pell.l0) == (10, 51)
    assert b13.p_lower == Fraction(2600, 2601)


def test_table_thirty_rows():
    rows = table(30)
    assert len(rows) == 30
    for row in rows:
        expected = TABLE_30[row.d]
        if expected is None:
            assert row.pell is None
            assert row.p_lower == 1
            assert row.epsilon * row.epsilon == rat(2 * row.d)
        else:
            assert (row.pell.k0, row.pell.l0) == expected
            assert row.p_lower == Fraction(expected[1] ** 2 - 1, expected[1] ** 2)
            assert row.pell.l0 ** 2 - 2 * row.d * row.pell.k0 ** 2 == 1
        # internal identity in both branches
        assert row.p_lower == (row.epsilon ** 2 / (2 * row.d)).as_fraction()


def test_table_blank_rows_are_squares():
    assert [d for d, v in TABLE_30.items() if v is None] == [2, 8, 18]


def test_table_epsilon_between_type_bounds():
    # a type-(1, d) Seshadri constant lies between d1 = 1 and the square
    # root of 2! * d1 * d2 = 2d
    for row in table(30):
        eps_sq = (row.epsilon ** 2).as_fraction()
        assert 1 <= eps_sq <= 2 * row.d


def test_width_filling_convert():
    assert width_filling_convert(sqrt(2), 2, 1) == rat(1)
    assert width_filling_convert(Fraction(4, 3), 2, 1) == rat(Fraction(8, 9))
    assert width_filling_convert(Fraction(12, 7), 3, 1) == rat(Fraction(288, 343))
    assert width_filling_convert(2, 4, 1) == rat(Fraction(2, 3))
    with pytest.raises(SeshadriError):
        width_filling_convert(0, 2, 1)
    with pytest.raises(SeshadriError):
        width_filling_convert(1, 2, -1)

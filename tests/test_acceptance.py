"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (zero tolerance) unless the criterion itself
states a bound.
"""

import random
import time
from fractions import Fraction

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form

from conftest import (candidate_vectors, map_region, region_overlap_area,
                      symmetric_difference_area)
from torusfill.cli import main as cli_main
from torusfill.fillings import (
    cube_filling,
    example_T2k2,
    example_eight_ninths,
    example_fortynine_fiftieths,
    family_filling,
    polydisc_filling,
    theorem1_constants,
    theorem1_filling,
)
from torusfill.latforms import (
    AlternatingIntMatrix,
    AlternatingSurdMatrix,
    LatticeFormError,
    SearchExhausted,
    build_period_lattice,
    normalize_basis,
    polarization_type,
    verify_no_curves,
)
from torusfill.seshadri import pell_min, width_filling_convert
from torusfill.surd import rat, sqrt


def report(number: int, message: str, t0: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message} [{time.perf_counter() - t0:.2f}s]")


# frozen (d, k0, l0) rows; blank cells for square 2d.  Every row satisfies
# l0^2 - 2d k0^2 = 1 exactly (asserted below).
TABLE_30 = {
    1: (2, 3), 2: None, 3: (2, 5), 4: (1, 3), 5: (6, 19),
    6: (2, 7), 7: (4, 15), 8: None, 9: (4, 17), 10: (2, 9),
    11: (42, 197), 12: (1, 5), 13: (10, 51), 14: (24, 127), 15: (2, 11),
    16: (3, 17), 17: (6, 35), 18: None, 19: (6, 37), 20: (3, 19),
    21: (2, 13), 22: (30, 199), 23: (3588, 24335), 24: (1, 7), 25: (14, 99),
    26: (90, 649), 27: (66, 485), 28: (2, 15), 29: (2574, 19603), 30: (4, 31),
}


def test_criterion_01_seshadri_table(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "table.csv"
    assert cli_main(["seshadri", "--dmax", "30", "--format", "csv",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,k0,l0,p_lower"
    assert len(lines) == 31
    for line in lines[1:]:
        d_str, k_str, l_str, p_str = line.split(",")
        d = int(d_str)
        expected = TABLE_30[d]
        if expected is None:
            assert (k_str, l_str, p_str) == ("", "", "1")
            assert d in (2, 8, 18)
        else:
            k0, l0 = expected
            assert (int(k_str), int(l_str)) == (k0, l0)
            assert l0 * l0 - 2 * d * k0 * k0 == 1
            assert Fraction(p_str) == Fraction(l0 * l0 - 1, l0 * l0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "seshadri table d=1..30 exact (blank rows 2, 8, 18)", t0)


def _pell_scan(n: int, k_max: int = 100_000):
    """Vectorized brute-force scan k = 1..k_max for the least solution."""
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    vals = n * ks * ks + 1
    roots = np.sqrt(vals.astype(np.float64)).astype(np.int64)
    for delta in (-1, 0, 1):
        r = roots + delta
        hits = np.nonzero(r * r == vals)[0]
        if len(hits):
            k = int(ks[hits[0]])
            return k, int(np.sqrt(n * k * k + 1))
    return None


def _pell_chakravala(n: int):
    root = int(n ** 0.5)
    while root * root > n:
        root -= 1
    a, b, k = root + 1, 1, (root + 1) ** 2 - n
    while k != 1:
        candidates = [m for m in range(0, 2 * root + abs(k) + 2)
                      if (a + b * m) % k == 0 and a + b * m != 0]
        m = min(candidates, key=lambda m: abs(m * m - n))
        a, b, k = ((a * m + n * b) // abs(k), (a + b * m) // abs(k),
                   (m * m - n) // k)
    return b, a


def test_criterion_02_pell_oracle():
    t0 = time.perf_counter()
    scan_confirmed = chakravala_confirmed = 0
    for n in range(2, 201):
        root = int(n ** 0.5)
        if root * root == n:
            continue
        sol = pell_min(n)
        assert sol.l0 ** 2 - n * sol.k0 ** 2 == 1
        scanned = _pell_scan(n)
        if scanned is not None:
            assert scanned == (sol.k0, sol.l0)
            scan_confirmed += 1
        else:
            # fundamental solution too large for a feasible scan; confirm
            # with an independent second algorithm instead
            assert _pell_chakravala(n) == (sol.k0, sol.l0)
            chakravala_confirmed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"pell_min matches brute force for N <= 200 "
              f"({scan_confirmed} by scan, {chakravala_confirmed} by chakravala)", t0)


def test_criterion_03_example1():
    t0 = time.perf_counter()
    for k in range(1, 6):
        cert = example_T2k2(k)
        assert cert.verdict.fundamental_domain
        assert cert.verdict.fraction == rat(1)
        assert cert.composability.ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "example 1 fundamental domains for k = 1..5, fraction exactly 1", t0)


def test_criterion_04_example2():
    t0 = time.perf_counter()
    finals = {}
    for orientation in ("++", "+-", "-+", "--"):
        cert = example_eight_ninths(0, orientation)
        assert cert.valid
        assert cert.verdict.fraction == rat(Fraction(8, 9))
        assert rat(1) - cert.verdict.fraction == rat(Fraction(1, 9))
        assert rat(Fraction(1, 9)) == 4 * rat(Fraction(1, 6)) ** 2
        finals[orientation] = cert.final
    mirrored = map_region(lambda p: -p, finals["++"])
    assert symmetric_difference_area(mirrored, finals["--"]).is_zero()
    report(4, "example 2: fraction 8/9, uncovered 4*(1/6)^2, four orientations, "
              "(++)/(--) point reflections", t0)


def test_criterion_05_example3():
    t0 = time.perf_counter()
    cert = example_fortynine_fiftieths(0)
    assert cert.valid
    assert cert.verdict.fraction == rat(Fraction(49, 50))
    assert rat(1) - cert.verdict.fraction == rat(Fraction(1, 50))
    a = rat(Fraction(7, 5))
    assert a * a / 2 == rat(Fraction(49, 50))
    report(5, "example 3: fraction 49/50, uncovered 1/50, a^2/2 consistent", t0)


def test_criterion_06_theorem1_identities():
    t0 = time.perf_counter()
    c = theorem1_constants()
    b, h_t, h_b = c["b"], c["h_t"], c["h_b"]
    assert (b * b - 6 * b + 1).is_zero()
    assert h_t == rat(1) - sqrt(2) / 2
    assert h_b == 3 * sqrt(2) / 2 - 2
    assert h_t + h_b == (1 - b) / 2
    report(6, "theorem 1 identities exact in Q(sqrt 2)", t0)


def test_criterion_07_theorem1_construction():
    t0 = time.perf_counter()
    cert = theorem1_filling(0)
    assert cert.valid
    # pairwise interior-disjointness mod Z^2: pieces of the final region do
    # not overlap each other under any relevant lattice translate
    final = cert.final
    assert region_overlap_area(final, final) == final.area()
    for a, b in candidate_vectors(final, cert.lattice):
        shifted = final.translate(cert.lattice.vector(a, b))
        assert region_overlap_area(final, shifted).is_zero()
    assert final.area() == rat(1)
    assert cert.verdict.fraction == rat(1)
    fractions = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        c_eps = theorem1_filling(eps)
        assert c_eps.verdict.injective and c_eps.valid
        fractions.append(c_eps.verdict.fraction)
    assert fractions[0] <= fractions[1] <= fractions[2]
    assert fractions[2] >= rat(Fraction(99, 100))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, "theorem 1: schematic tiles T(1,1) exactly; eps variants "
              "injective with nondecreasing fractions >= 99/100", t0)


def test_criterion_08_family_and_cubes():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        fam = family_filling(k)
        assert fam.valid and fam.verdict.fraction == rat(1)
        if k == 1:
            assert fam.lattice.covolume() == rat(Fraction(9, 8))
        cube = cube_filling(k)
        assert cube.valid and cube.verdict.fundamental_domain
        assert cube.lattice.covolume() == rat(k * k)
    poly = polydisc_filling(2)
    assert poly.valid and poly.verdict.fraction == rat(1)
    report(8, "family k = 1..3 (incl. T(9/8,1)), cubes k = 1..3, polydisc k = 2", t0)


def _snf_paired_divisors(entries):
    s = smith_normal_form(sympy.Matrix(entries), domain=sympy.ZZ)
    diag = sorted(abs(int(s[i, i])) for i in range(s.rows))
    assert diag[0::2] == diag[1::2]
    return tuple(diag[0::2])


def _random_alternating(rng, n):
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = rng.randint(-20, 20)
                m[j][i] = -m[i][j]
        try:
            return AlternatingIntMatrix(m)
        except LatticeFormError:
            continue


def test_criterion_09_polarization_types():
    t0 = time.perf_counter()
    assert polarization_type(AlternatingIntMatrix.from_blocks([2, 3]))[0] == (1, 6)
    assert polarization_type(AlternatingIntMatrix.from_blocks([2, 4]))[0] == (2, 4)
    rng = random.Random(20260810)
    for _ in range(200):
        b = _random_alternating(rng, 4)
        assert polarization_type(b)[0] == _snf_paired_divisors(b.entries)
    for _ in range(50):
        b = _random_alternating(rng, 6)
        assert polarization_type(b)[0] == _snf_paired_divisors(b.entries)
    report(9, "polarization type matches SNF oracle on 200 4x4 + 50 6x6; "
              "T(2,3) -> (1,6), T(2,4) -> (2,4)", t0)


def _random_surd_matrix(rng):
    while True:
        upper = []
        for _ in range(6):
            value = rat(0)
            for radicand in (1, 2, 3, 5):
                if rng.random() < 0.45:
                    value = value + rat(rng.randint(-4, 4)) * sqrt(radicand)
            upper.append(value)
        try:
            m = AlternatingSurdMatrix(upper)
        except LatticeFormError:
            continue
        if m.is_irrational():
            return m


def test_criterion_10_period_lattices():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    done = exhausted = 0
    while done < 100:
        b = _random_surd_matrix(rng)
        try:
            normalized = normalize_basis(b)
        except SearchExhausted:
            exhausted += 1
            continue
        solution = build_period_lattice(normalized)
        cert = verify_no_curves(solution, bound=20)
        assert cert.ok, f"conditions: {cert.conditions} on {b.upper}"
        done += 1
    # the normalizer's search has never come up empty on this corpus
    assert exhausted == 0
    report(10, "100 random irrational forms: normalize + period lattice + "
               "no-curves certificate (|n_i| <= 20 search clean); "
               f"{exhausted} draws skipped by SearchExhausted", t0)


def test_criterion_11_shear_symplecticity():
    t0 = time.perf_counter()
    # On a slab where the profile is c + s t, the lifts of the shears
    # docstring are (x1 + c + s x2, x2, y1, y2 - s y1) and its x2 twin.
    # J^T Omega0 J = Omega0 as polynomials in the symbols c and s, so every
    # slab of every shear, whatever its constant and slope, lifts to a
    # symplectomorphism.
    x1, x2, y1, y2, c, s = sympy.symbols("x1 x2 y1 y2 c s")
    coords = sympy.Matrix([x1, x2, y1, y2])
    omega = sympy.Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    lifts = {
        "x1": sympy.Matrix([x1 + c + s * x2, x2, y1, y2 - s * y1]),
        "x2": sympy.Matrix([x1, x2 + c + s * x1, y1 - s * y2, y2]),
    }
    for axis, lift in lifts.items():
        j = lift.jacobian(coords)
        assert j.free_symbols == {s}, axis  # the constant c drops out
        assert sympy.simplify(j.T * omega * j - omega) == sympy.zeros(4, 4), axis
    report(11, "the lift of an x1- or x2-shear slab satisfies J^T Omega J = Omega "
               "for a symbolic constant and slope", t0)


def test_criterion_12_conversions():
    t0 = time.perf_counter()
    assert width_filling_convert(sqrt(2), 2, 1) == rat(1)
    assert width_filling_convert(Fraction(4, 3), 2, 1) == rat(Fraction(8, 9))
    assert width_filling_convert(Fraction(12, 7), 3, 1) == rat(Fraction(288, 343))
    assert width_filling_convert(2, 4, 1) == rat(Fraction(2, 3))
    report(12, "width -> filling conversions exact", t0)

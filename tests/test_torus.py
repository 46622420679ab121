import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfill
import torusfill.geom as geom_module
import torusfill.torus as torus_module
from conftest import (SKEW, candidate_collisions, candidate_vectors, rationals,
                      skewed_doubled_regions)
from torusfill.fillings import diamond, example_T2k2, example_eight_ninths
from torusfill.geom import ConvexPolygon, GeometryError, Region, pt, rectangle
from torusfill.surd import rat, sqrt
from torusfill.torus import Lattice2, TorusError, injects

UNIT = Lattice2.rectangular(1, 1)


def test_small_diamond_injects():
    assert injects(diamond(1), UNIT).ok


def test_wide_rectangle_collides():
    reg = Region([rectangle(0, 2, 0, Fraction(1, 2))])
    verdict = injects(reg, UNIT)
    assert not verdict.ok
    assert ((1, 0), rat(Fraction(1, 2))) in verdict.collisions


def test_example2_image_injects():
    cert = example_eight_ninths(0, "++")
    assert injects(cert.final, UNIT).ok


def test_covered_fractions():
    eight_ninths = example_eight_ninths(0, "++").final
    assert injects(eight_ninths, UNIT).ok
    assert eight_ninths.area() / UNIT.covolume() == rat(Fraction(8, 9))
    final, lattice = example_T2k2(1).final, Lattice2.rectangular(2, 1)
    assert injects(final, lattice).ok and final.area() / lattice.covolume() == rat(1)


def test_fundamental_domains():
    for reg, lattice in [(Region([rectangle(0, 1, 0, 1)]), UNIT),
                         (example_T2k2(3).final, Lattice2.rectangular(18, 1))]:
        assert injects(reg, lattice).ok and reg.area() == lattice.covolume()
    assert injects(diamond(1), UNIT).ok and diamond(1).area() != UNIT.covolume()


def test_injects_translation_invariant():
    reg = example_eight_ninths(0, "+-").final
    shifted = reg.translate(pt(Fraction(1, 3), Fraction(-2, 7)))
    assert injects(shifted, UNIT).ok
    by_lattice = reg.translate(pt(3, -2))
    assert injects(by_lattice, UNIT).ok
    bad = Region([rectangle(0, 2, 0, Fraction(1, 2))]).translate(pt(Fraction(1, 3), 0))
    assert not injects(bad, UNIT).ok


def test_injects_basis_recombination_invariant():
    reg = example_T2k2(2).final
    plain = Lattice2.rectangular(8, 1)
    # unimodular recombination of the same lattice
    skew = Lattice2(pt(8, 1), pt(0, 1))
    assert plain.covolume() == skew.covolume()
    assert injects(reg, plain).ok
    assert injects(reg, skew).ok


def test_fraction_at_most_one_iff_fundamental():
    for cert, lattice in [
        (example_eight_ninths(0, "++"), UNIT),
        (example_T2k2(2), Lattice2.rectangular(8, 1)),
    ]:
        assert injects(cert.final, lattice).ok
        frac = cert.final.area() / lattice.covolume()
        assert frac <= rat(1)
        assert (frac == rat(1)) == cert.is_fundamental_domain


def test_subset_of_fundamental_cell_injects():
    reg = Region([rectangle(Fraction(1, 10), Fraction(9, 10),
                            Fraction(1, 10), Fraction(2, 5))])
    assert injects(reg, UNIT).ok


def _float_cover_mask(points, region, lattice, span=2):
    g1 = np.array([float(lattice.g1.x1), float(lattice.g1.x2)])
    g2 = np.array([float(lattice.g2.x1), float(lattice.g2.x2)])
    covered = np.zeros(len(points), dtype=bool)
    polys = []
    for piece in region.pieces:
        vs = np.array([[float(v.x1), float(v.x2)] for v in piece.vertices])
        polys.append(vs)
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            shifted = points + m * g1 + n * g2
            for vs in polys:
                inside = np.ones(len(points), dtype=bool)
                for i in range(len(vs)):
                    a, b = vs[i], vs[(i + 1) % len(vs)]
                    cross = ((b[0] - a[0]) * (shifted[:, 1] - a[1])
                             - (b[1] - a[1]) * (shifted[:, 0] - a[0]))
                    inside &= cross > 0
                covered |= inside
    return covered


def test_monte_carlo_fraction_agrees():
    # statistical sanity check of the exact fraction, not an acceptance gate
    cert = example_eight_ninths(0, "++")
    assert injects(cert.final, UNIT).ok
    exact = float(cert.final.area() / UNIT.covolume())
    rng = np.random.default_rng(20260810)
    n = 100_000
    uv = rng.random((n, 2))
    covered = _float_cover_mask(uv, cert.final, UNIT)
    p_hat = covered.mean()
    sigma = (exact * (1 - exact) / n) ** 0.5
    assert abs(p_hat - exact) <= 3 * sigma


def test_monte_carlo_full_fillings_cover_everything():
    # a wrong interlock would show up as visibly uncovered torus area
    from torusfill.fillings import family_filling, theorem1_filling

    rng = np.random.default_rng(7)
    n = 200_000
    for cert in (theorem1_filling(0), family_filling(2)):
        g1, g2 = cert.lattice.g1, cert.lattice.g2
        uv = rng.random((n, 2))
        points = np.empty((n, 2))
        points[:, 0] = uv[:, 0] * float(g1.x1) + uv[:, 1] * float(g2.x1)
        points[:, 1] = uv[:, 0] * float(g1.x2) + uv[:, 1] * float(g2.x2)
        covered = _float_cover_mask(points, cert.final, cert.lattice, span=3)
        # boundaries are open so a sliver of samples may sit on edges
        assert covered.mean() > 0.999


def test_injects_catches_skewed_collisions():
    # collisions that only occur at mixed-coefficient lattice vectors
    for (a, b), doubled in skewed_doubled_regions():
        verdict = injects(doubled, SKEW)
        assert not verdict.ok
        assert any(ab in ((a, b), (-a, -b)) for ab, _ in verdict.collisions)


def test_lattice_json_and_orientation():
    lat = Lattice2.from_json(Lattice2.rectangular(Fraction(9, 8), 1).to_json())
    assert lat.covolume() == rat(Fraction(9, 8))
    swapped = Lattice2(pt(0, 1), pt(1, 0))  # negative orientation gets fixed
    assert swapped.covolume() == rat(1)
    with pytest.raises(TorusError):
        Lattice2(pt(1, 1), pt(2, 2))


def test_one_vector_two_piece_pairs_overlap_summed():
    # at (1, 0) the shifted A lands on B and the shifted C on D; no other
    # vector gives positive overlap
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    reg = Region([rectangle(0, half, 0, half), rectangle(half, Fraction(3, 2), 0, half),
                  rectangle(0, quarter, half, 1), rectangle(quarter, Fraction(5, 4), half, 1)])
    collisions = injects(reg, UNIT).collisions
    assert collisions == [((1, 0), rat(Fraction(3, 8)))]
    assert collisions == candidate_collisions(reg, UNIT)


def _cell_triangles(lattice):
    """The basis parallelogram cut along its diagonal: lattice boxes [0, 1]^2."""
    o, g1, g2 = pt(0, 0), lattice.g1, lattice.g2
    return [ConvexPolygon([o, g1, g1 + g2]), ConvexPolygon([o, g1 + g2, g2])]


@pytest.mark.parametrize("lattice", [UNIT, SKEW], ids=["unit", "skew"])
def test_integer_box_jigsaw_is_fundamental(lattice):
    # every lattice box ends exactly on integers, where the open shift
    # ranges must exclude the touching translates
    lower, upper = _cell_triangles(lattice)
    reg = Region([lower.translate(lattice.vector(2, -1)), upper.translate(lattice.vector(-1, 3))])
    assert injects(reg, lattice).ok
    assert reg.area() == lattice.covolume()
    nudged = Region([lower, upper.translate(lattice.g2.scale(Fraction(1, 100)))])
    verdict = injects(nudged, lattice)
    assert not verdict.ok and verdict.collisions == candidate_collisions(nudged, lattice)


SCATTERED_JIGSAW = Region([
    piece.translate(pt(*shift))
    for piece, shift in zip(
        [ConvexPolygon([pt(x, 0), pt(x + Fraction(1, 3), 0), pt(x + Fraction(1, 3), 1)])
         for x in (0, Fraction(1, 3), Fraction(2, 3))]
        + [ConvexPolygon([pt(x, 0), pt(x + Fraction(1, 3), 1), pt(x, 1)])
           for x in (0, Fraction(1, 3), Fraction(2, 3))],
        [(2, -1), (-2, 0), (0, 2), (1, 1), (-1, -2), (2, 2)])
])


def test_injects_clips_fewer_pairs_than_every_pair_per_candidate(monkeypatch):
    # six strips of the unit cell scattered over radius 2: every piece pair
    # tried at every bounding-box candidate would be 36 clips per candidate
    calls = []
    original = geom_module.clip

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(geom_module, "clip", counted)
    monkeypatch.setattr(torus_module, "clip", counted, raising=False)
    verdict = injects(SCATTERED_JIGSAW, UNIT)
    clips = len(calls)
    assert verdict.ok and SCATTERED_JIGSAW.area() == UNIT.covolume()
    pieces = len(SCATTERED_JIGSAW.pieces)
    candidates = len(list(candidate_vectors(SCATTERED_JIGSAW, UNIT)))
    assert 0 < clips < pieces * pieces * candidates


@st.composite
def _pieces(draw, surd):
    def coord(bound):
        c = rat(draw(rationals(bound=bound)))
        return c + rat(draw(rationals(bound=2))) * sqrt(2) if surd else c

    if draw(st.booleans()):
        x, y = coord(3), coord(3)
        w = rat(draw(st.integers(min_value=1, max_value=12))) / 4
        h = rat(draw(st.integers(min_value=1, max_value=12))) / 4
        return rectangle(x, x + w, y, y + h)
    try:
        return ConvexPolygon([pt(coord(3), coord(3)) for _ in range(3)])
    except GeometryError:  # collinear or repeated points
        return rectangle(0, 1, 0, 1)


EQUIVALENCE_LATTICES = [
    SKEW,
    Lattice2(pt(sqrt(2), Fraction(1, 3)), pt(Fraction(-1, 2), 1)),
    Lattice2(pt(0, 1), pt(Fraction(3, 2), Fraction(-1, 3))),  # input basis negatively oriented
]
FAR = [pt(0, 0), pt(Fraction(-52, 3), Fraction(-29, 7)), pt(31, -12) + pt(sqrt(2), 0)]


@given(st.booleans().flatmap(lambda surd: st.lists(_pieces(surd), min_size=1, max_size=4)),
       st.sampled_from(EQUIVALENCE_LATTICES), st.sampled_from(FAR))
@settings(max_examples=40, deadline=None)
def test_injects_matches_candidate_vector_oracle(pieces, lattice, offset):
    reg = Region(pieces).translate(offset)
    assert injects(reg, lattice).collisions == candidate_collisions(reg, lattice)


@given(st.lists(_pieces(False), min_size=1, max_size=3), st.sampled_from(EQUIVALENCE_LATTICES),
       st.integers(min_value=-20, max_value=20), st.booleans())
@settings(max_examples=40, deadline=None)
def test_injects_on_skewed_basis_matches_candidate_vector_oracle(pieces, lattice, n, first):
    # g1 + n*g2 (or g2 + n*g1) spans the same lattice; collisions are
    # reported in the coefficients of the basis as given
    g1, g2 = lattice.g1, lattice.g2
    skewed = Lattice2(g1 + g2.scale(n), g2) if first else Lattice2(g1, g2 + g1.scale(n))
    reg = Region(pieces)
    assert injects(reg, skewed).collisions == candidate_collisions(reg, skewed)


def test_verify_on_far_skewed_basis_finishes(tmp_path):
    # the unit square and the basis (1, 2^40), (0, sqrt 2): shift ranges
    # taken from this basis itself have about 2^40 entries
    zero, one = [[1, 0, 1]], [[1, 1, 1]]
    region = {"polygons": [[[zero, zero], [one, zero], [one, one], [zero, one]]]}
    lattice = {"basis": [[one, [[1, 2**40, 1]]], [zero, [[2, 1, 1]]]]}
    region_file, lattice_file = tmp_path / "square.json", tmp_path / "lattice.json"
    region_file.write_text(json.dumps(region))
    lattice_file.write_text(json.dumps(lattice))
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", "verify", str(region_file),
         "--lattice-file", str(lattice_file)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdicts"]["injective"] and report["collisions"] == []
    assert report["covered_fraction"] == [[2, 1, 2]]

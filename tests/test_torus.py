import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import torusfill
import torusfill.geom as geom_module
import torusfill.torus as torus_module
from conftest import (EQUIVALENCE_LATTICES, FAR, JIGSAWS, PENTAGRAM, SKEW, UNIT,
                      candidate_collisions, candidate_vectors, clip, first_overlapping_pair,
                      lattice_region, plane_canonical, region_pieces, skewed_doubled_regions,
                      vertex_lists, written)
from torusfill.cli import _json_text, main
from torusfill.fillings import (diamond, example_T2k2, example_eight_ninths, family_filling,
                                theorem1_filling)
from torusfill.geom import ConvexPolygon, GeometryError, Region, pt, rectangle, region_coordinates
from torusfill.surd import QuadInt, SurdScalar, rat, sqrt
from torusfill.torus import Lattice2, LatticeRegion, TorusError


def test_small_diamond_injects():
    assert lattice_region(diamond(1), UNIT).verdict().injective


def test_wide_rectangle_collides():
    reg = Region([rectangle(0, 2, 0, Fraction(1, 2))])
    verdict = lattice_region(reg, UNIT).verdict()
    assert not verdict.injective and verdict.fraction is None
    assert not verdict.fundamental_domain and verdict.area == verdict.covolume
    assert ((1, 0), rat(Fraction(1, 2))) in verdict.collisions


def test_example2_image_injects():
    cert = example_eight_ninths(0, "++")
    assert lattice_region(cert.final, UNIT).verdict().injective


def test_covered_fractions():
    eight_ninths = example_eight_ninths(0, "++").final
    assert lattice_region(eight_ninths, UNIT).verdict().fraction == rat(Fraction(8, 9))
    final, lattice = example_T2k2(1).final, Lattice2.rectangular(2, 1)
    assert lattice_region(final, lattice).verdict().fraction == rat(1)


def test_fundamental_domains():
    for reg, lattice in [(Region([rectangle(0, 1, 0, 1)]), UNIT),
                         (example_T2k2(3).final, Lattice2.rectangular(18, 1))]:
        assert lattice_region(reg, lattice).verdict().fundamental_domain
    small = lattice_region(diamond(1), UNIT).verdict()
    assert small.injective and not small.fundamental_domain


def test_overlapping_pieces_fail_the_verdict():
    # two copies of the half cell: no lattice translate collides and the
    # areas sum to the covolume, but the pieces overlap each other
    half = rectangle(0, Fraction(1, 2), 0, 1)
    region = lattice_region(Region([half, half]), UNIT)
    assert region.area() == UNIT.covolume()
    with pytest.raises(GeometryError, match="^region pieces 0 and 1 overlap$"):
        region.verdict()


def test_a_later_unshifted_overlap_is_named_after_an_earlier_collision(monkeypatch):
    # pieces 0 and 1 share an edge unshifted and collide at (1, 0); pieces 1
    # and 2 overlap unshifted.  The pair loop measures piece 0 shifted onto
    # piece 1 (pair (1, 0)) before it reaches the pair (1, 2), and still
    # names (1, 2)
    half = Fraction(1, 2)
    reg = Region([rectangle(0, half, 0, half), rectangle(half, Fraction(3, 2), 0, half),
                  rectangle(1, Fraction(5, 4), 0, half)])
    assert first_overlapping_pair(reg.pieces) == (1, 2)
    assert candidate_collisions(Region(reg.pieces[:2]), UNIT) == [((1, 0), rat(Fraction(1, 4)))]
    calls = []
    original = torus_module._overlap

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(torus_module, "_overlap", counted)
    with pytest.raises(GeometryError, match="^region pieces 1 and 2 overlap$"):
        lattice_region(reg, UNIT).verdict()
    assert calls


def test_injects_translation_invariant():
    reg = example_eight_ninths(0, "+-").final
    shifted = reg.translate(pt(Fraction(1, 3), Fraction(-2, 7)))
    assert lattice_region(shifted, UNIT).verdict().injective
    by_lattice = reg.translate(pt(3, -2))
    assert lattice_region(by_lattice, UNIT).verdict().injective
    bad = Region([rectangle(0, 2, 0, Fraction(1, 2))]).translate(pt(Fraction(1, 3), 0))
    assert not lattice_region(bad, UNIT).verdict().injective


def test_injects_basis_recombination_invariant():
    reg = example_T2k2(2).final
    plain = Lattice2.rectangular(8, 1)
    # unimodular recombination of the same lattice
    skew = Lattice2(pt(8, 1), pt(0, 1))
    assert plain.covolume() == skew.covolume()
    assert lattice_region(reg, plain).verdict().injective
    assert lattice_region(reg, skew).verdict().injective


def test_fraction_at_most_one_iff_fundamental():
    for cert, lattice in [
        (example_eight_ninths(0, "++"), UNIT),
        (example_T2k2(2), Lattice2.rectangular(8, 1)),
    ]:
        verdict = lattice_region(cert.final, lattice).verdict()
        assert verdict.injective and verdict.fraction <= rat(1)
        assert (verdict.fraction == rat(1)) == cert.verdict.fundamental_domain


def test_subset_of_fundamental_cell_injects():
    reg = Region([rectangle(Fraction(1, 10), Fraction(9, 10),
                            Fraction(1, 10), Fraction(2, 5))])
    assert lattice_region(reg, UNIT).verdict().injective


def _float(x) -> float:
    return float(x.approx(20))


def _float_cover_mask(points, region, lattice, span=2):
    g1 = np.array([_float(lattice.g1.x1), _float(lattice.g1.x2)])
    g2 = np.array([_float(lattice.g2.x1), _float(lattice.g2.x2)])
    covered = np.zeros(len(points), dtype=bool)
    polys = []
    for piece in region.pieces:
        vs = np.array([[_float(v.x1), _float(v.x2)] for v in piece.vertices])
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
    assert lattice_region(cert.final, UNIT).verdict().injective
    exact = _float(cert.final.area() / UNIT.covolume())
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
        points[:, 0] = uv[:, 0] * _float(g1.x1) + uv[:, 1] * _float(g2.x1)
        points[:, 1] = uv[:, 0] * _float(g1.x2) + uv[:, 1] * _float(g2.x2)
        covered = _float_cover_mask(points, cert.final, cert.lattice, span=3)
        # boundaries are open so a sliver of samples may sit on edges
        assert covered.mean() > 0.999


def test_injects_catches_skewed_collisions():
    # collisions that only occur at mixed-coefficient lattice vectors
    for (a, b), doubled in skewed_doubled_regions():
        verdict = lattice_region(doubled, SKEW).verdict()
        assert not verdict.injective
        assert any(ab in ((a, b), (-a, -b)) for ab, _ in verdict.collisions)


def test_lattice_json_and_orientation():
    lat = Lattice2.from_json(written(Lattice2.rectangular(Fraction(9, 8), 1).to_json()))
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
    collisions = lattice_region(reg, UNIT).verdict().collisions
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
    assert lattice_region(reg, lattice).verdict().injective
    assert reg.area() == lattice.covolume()
    nudged = Region([lower, upper.translate(lattice.g2.scale(Fraction(1, 100)))])
    collisions = lattice_region(nudged, lattice).verdict().collisions
    assert collisions and collisions == candidate_collisions(nudged, lattice)


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
    # tried at every bounding-box candidate would be 36 overlaps measured per
    # candidate; the region tiles, so no pair and shift collides and
    # `_overlap` never runs
    calls = []
    original = torus_module._overlap

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(torus_module, "_overlap", counted)
    verdict = lattice_region(SCATTERED_JIGSAW, UNIT).verdict()
    clips = len(calls)
    assert verdict.fundamental_domain
    pieces = len(SCATTERED_JIGSAW.pieces)
    candidates = len(list(candidate_vectors(SCATTERED_JIGSAW, UNIT)))
    assert clips == 0 < pieces * pieces * candidates


def assert_verdict_matches_oracle(reg: Region, lattice: Lattice2) -> None:
    """The verdict raises GeometryError naming the first pair of pieces that
    `clip` finds overlapping, or reports the collisions of the candidate
    vector oracle."""
    pair = first_overlapping_pair(reg.pieces)
    event("overlapping" if pair else "valid")
    if pair is None:
        assert lattice_region(reg, lattice).verdict().collisions == candidate_collisions(reg, lattice)
    else:
        with pytest.raises(GeometryError, match=f"^region pieces {pair[0]} and {pair[1]} overlap$"):
            lattice_region(reg, lattice).verdict()


@given(st.booleans().flatmap(lambda surd: st.lists(region_pieces(surd), min_size=1, max_size=4)),
       st.sampled_from(EQUIVALENCE_LATTICES), st.sampled_from(FAR))
@settings(max_examples=40, deadline=None)
def test_injects_matches_candidate_vector_oracle(pieces, lattice, offset):
    reg = Region(pieces).translate(offset)
    assert_verdict_matches_oracle(reg, lattice)


@given(st.lists(region_pieces(False), min_size=1, max_size=3),
       st.sampled_from(EQUIVALENCE_LATTICES), st.integers(min_value=-20, max_value=20),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_injects_on_skewed_basis_matches_candidate_vector_oracle(pieces, lattice, n, first):
    # g1 + n*g2 (or g2 + n*g1) spans the same lattice; collisions are
    # reported in the coefficients of the basis as given
    g1, g2 = lattice.g1, lattice.g2
    skewed = Lattice2(g1 + g2.scale(n), g2) if first else Lattice2(g1, g2 + g1.scale(n))
    assert_verdict_matches_oracle(Region(pieces), skewed)


def colliding_shifts(r: Region, lattice: Lattice2) -> int:
    """The number of (ordered piece pair, shift) triples that collide: shifts
    (a, b) with a > 0 or a = 0 < b, in the reduced basis h1, h2, at which
    piece p and piece q shifted by a*h1 + b*h2 overlap in positive area, by
    plane `clip`.  Only shifts at which their boxes in the coordinates of
    h1, h2 overlap can collide; those coordinates come from cross products,
    and every shift in a window as wide as the region is tried, per axis."""
    h1, h2, _, _ = torus_module._reduced(lattice.g1, lattice.g2)
    det = h1.cross(h2)
    boxes = []
    for piece in r.pieces:
        us = [v.cross(h2) / det for v in piece.vertices]
        ws = [h1.cross(v) / det for v in piece.vertices]
        boxes.append((min(us), max(us), min(ws), max(ws)))
    reach = max(-(min(b[0] for b in boxes) - max(b[1] for b in boxes)).floor(),
                -(min(b[2] for b in boxes) - max(b[3] for b in boxes)).floor()) + 1
    window = range(-reach, reach + 1)
    count = 0
    for p, (pu1, pu2, pw1, pw2) in zip(r.pieces, boxes):
        for q, (qu1, qu2, qw1, qw2) in zip(r.pieces, boxes):
            a_s = [a for a in window if a >= 0 and pu2 > qu1 + a and qu2 + a > pu1]
            b_s = [b for b in window if pw2 > qw1 + b and qw2 + b > pw1]
            count += sum(1 for a in a_s for b in b_s if (a > 0 or b > 0)
                         and clip(p, q.translate(h1.scale(a) + h2.scale(b))) is not None)
    return count


def count_injects_clips(r: Region, lattice: Lattice2) -> int:
    """The number of overlaps (`torus._overlap` calls) that
    `LatticeRegion.verdict` measures on r."""
    calls = []
    original = torus_module._overlap

    def counted(*args):
        calls.append(1)
        return original(*args)

    torus_module._overlap = counted
    try:
        lattice_region(r, lattice).verdict()
    finally:
        torus_module._overlap = original
    return len(calls)


def test_injects_clips_exactly_the_colliding_shifts():
    # the full fillings collide nowhere and are never measured; each doubled
    # region is measured once per colliding pair and shift
    cert = family_filling(10)
    for region, lattice in [(cert.final, cert.lattice), (SCATTERED_JIGSAW, UNIT)]:
        assert colliding_shifts(region, lattice) == count_injects_clips(region, lattice) == 0
    for _, region in skewed_doubled_regions():
        expected = colliding_shifts(region, SKEW)
        assert expected > 0
        assert count_injects_clips(region, SKEW) == expected


@given(st.booleans().flatmap(lambda surd: st.lists(region_pieces(surd), min_size=1, max_size=4)),
       st.sampled_from(EQUIVALENCE_LATTICES), st.sampled_from(FAR))
@settings(max_examples=40, deadline=None)
def test_injects_clips_exactly_the_colliding_shifts_on_random_regions(pieces, lattice, offset):
    reg = Region(pieces).translate(offset)
    pair = first_overlapping_pair(reg.pieces)
    if pair is not None:
        event("overlapping")
        with pytest.raises(GeometryError, match=f"^region pieces {pair[0]} and {pair[1]} overlap$"):
            count_injects_clips(reg, lattice)
        return
    expected = colliding_shifts(reg, lattice)
    event("collides" if expected else "injects")
    assert count_injects_clips(reg, lattice) == expected


@st.composite
def overlap_pairs(draw):
    """(p, q, shift): convex pieces with int or Q(sqrt 2) coordinates, q
    equal to p, inside it, across one of its edges, on a line through two
    of its vertices or anywhere, and a small integer shift of q."""
    root = sqrt(2) if draw(st.booleans()) else 0

    def point():
        x, y, s = (draw(st.integers(-3, 3)) for _ in range(3))
        return pt(x + s * root, y)

    def piece(first=()):
        vs = list(first)
        while True:
            try:
                return ConvexPolygon(vs + [point() for _ in range(draw(st.integers(3, 5)) - len(vs))])
            except GeometryError:
                vs = list(first)
                if not vs:
                    return ConvexPolygon([pt(0, 0), pt(2, 0), pt(2 + root, 2), pt(root, 2)])

    p = piece()
    kind = draw(st.sampled_from(["equal", "inside", "across", "through", "any"]))
    event(kind)
    vs = p.vertices
    if kind == "equal":
        q = p
    elif kind == "inside":  # halved towards a vertex
        c = draw(st.sampled_from(vs))
        q = ConvexPolygon([c + (v - c).scale(Fraction(1, 2)) for v in vs])
    elif kind == "across":  # turned half a turn about an edge's midpoint
        k = draw(st.integers(0, len(vs) - 1))
        m = vs[k] + vs[k - 1]
        q = ConvexPolygon([m - v for v in vs])
    elif kind == "through":
        k = draw(st.integers(0, len(vs) - 1))
        q = piece([vs[k], vs[k - 2]])
    else:
        q = piece()
    shift = draw(st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1), (-1, 1), (2, -1)]))
    return p, q, shift


@given(overlap_pairs())
@settings(max_examples=300, deadline=None)
def test_overlap_on_lattice_coordinates_matches_plane_clip(case):
    # `_overlap` cuts piece p by the edge lines of q shifted by (aL, bL) on
    # lattice coordinates; `clip` intersects the plane polygons
    p, q, (a, b) = case
    core = lattice_region(Region([p, q]), UNIT)
    L = core.scale
    got = torus_module._overlap(core.pieces[0], core._edges[1], a * L, b * L)
    want = clip(p, q.translate(pt(a, b)))
    event("meets" if want else "apart")
    if want is None:
        assert got is None
    else:
        n, d = (torus_module._surd(x) for x in got)
        assert n > 0 and d > 0 and n / d / (2 * L * L) == want.area()


def half_and_whole_moved_theorem1():
    """theorem1 at eps = 0 with its first final piece moved by 7/2 g1, half a
    lattice vector (and far enough that it meets no other piece unshifted),
    and by 3 g1 + g2, a whole one."""
    cert = theorem1_filling(0)
    first, rest = cert.final.pieces[0], cert.final.pieces[1:]
    g1, g2 = cert.lattice.g1, cert.lattice.g2
    return (cert.lattice, Region([first.translate(g1.scale(Fraction(7, 2)))] + rest),
            Region([first.translate(g1.scale(3) + g2)] + rest))


def test_theorem1_moved_by_half_a_lattice_vector_collides():
    lattice, half, whole = half_and_whole_moved_theorem1()
    collisions = lattice_region(half, lattice).verdict().collisions
    assert collisions and collisions == candidate_collisions(half, lattice)
    verdict = lattice_region(whole, lattice).verdict()
    assert verdict.collisions == [] == candidate_collisions(whole, lattice)
    assert verdict.fundamental_domain


def test_a_separated_pair_that_passes_the_line_test_is_an_internal_error(monkeypatch):
    # the pieces of the jigsaw tile, so every pair and shift whose boxes
    # overlap is separated by an edge line; let none be, and the first cut
    # that comes out empty or of zero area must raise, not count as 0
    core = lattice_region(SCATTERED_JIGSAW, UNIT)
    monkeypatch.setattr(torus_module, "_separates", lambda *args: False)
    with pytest.raises(TorusError, match="internal error: pieces .* meet in zero area"):
        core.verdict()


def test_lattice_region_builds_no_plane_polygon(monkeypatch):
    # collisions are measured on lattice coordinates: no ConvexPolygon is
    # made, and the package has no `clip` or `clip_halfplane` to run
    lattice, half, _ = half_and_whole_moved_theorem1()
    cases = [(half, lattice)] + [(region, SKEW) for _, region in skewed_doubled_regions()]
    points = [([p.vertices for p in region.pieces], lattice) for region, lattice in cases]

    def refuse(*args):
        raise AssertionError("LatticeRegion built a plane polygon")

    monkeypatch.setattr(geom_module, "_raw", refuse)
    for name in ("clip", "clip_halfplane"):
        assert not hasattr(geom_module, name)
    monkeypatch.setattr(ConvexPolygon, "__init__", refuse)
    for name in ("ConvexPolygon", "_raw", "clip"):
        assert not hasattr(torus_module, name)
    for vertex_lists, lattice in points:
        assert LatticeRegion(vertex_lists, lattice).verdict().collisions


# -- the lattice-coordinate core against the plane decisions it replaced -------

@st.composite
def given_orders(draw, piece):
    """The vertices of a canonical piece as a file may give them: rotated,
    and in either orientation."""
    vs = piece.vertices
    k = draw(st.integers(0, len(vs) - 1))
    vs = vs[k:] + vs[:k]
    return vs[::-1] if draw(st.booleans()) else vs


@given(st.booleans().flatmap(lambda surd: st.lists(region_pieces(surd), min_size=2, max_size=5))
       .flatmap(lambda pieces: st.tuples(st.just(pieces),
                                         st.tuples(*(given_orders(p) for p in pieces)))),
       st.sampled_from(EQUIVALENCE_LATTICES), st.sampled_from(FAR))
@settings(max_examples=80, deadline=None)
def test_verdict_names_the_pair_the_plane_clip_loop_names(case, lattice, offset):
    pieces, orders = case
    pieces = [p.translate(offset) for p in pieces]
    region = LatticeRegion([[v + offset for v in vs] for vs in orders], lattice)
    want = first_overlapping_pair(pieces)
    event("overlapping" if want else "valid")
    if want is None:
        region.verdict()
    else:
        with pytest.raises(GeometryError, match=f"^region pieces {want[0]} and {want[1]} overlap$"):
            region.verdict()


@given(vertex_lists(), st.sampled_from(EQUIVALENCE_LATTICES), st.sampled_from(FAR))
@example(PENTAGRAM, SKEW, FAR[0])
@example([pt(0, 0), pt(1, 0), pt(1, 0), pt(1, 1), pt(0, 1)], SKEW, FAR[1])  # repeated point
@example([pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)], EQUIVALENCE_LATTICES[1], FAR[2])  # collinear
@example([pt(0, 0), pt(1, 0), pt(2, 0)], SKEW, FAR[0])  # all collinear
@example([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)] * 2, UNIT, FAR[0])  # winds twice
@settings(max_examples=300, deadline=None)
def test_lattice_canonicalisation_accepts_what_the_plane_accepts(vs, lattice, offset):
    points = [p + offset for p in vs]
    want = plane_canonical(points)
    try:
        got = LatticeRegion([points], lattice)
    except GeometryError as exc:
        event("rejected")
        assert str(exc) == want
    else:
        event("accepted")
        assert isinstance(want, ConvexPolygon)
        assert got.area() == want.area()
        assert len(got.pieces[0]) == len(want.vertices)


def test_surd_lattice_coordinates_take_the_same_path():
    # theorem1's finals, where ints and QuadInts mix, and a rational region
    # on the sqrt 2 lattice have lattice coordinates in Q(sqrt 2)
    cert = theorem1_filling(0)
    for region, lattice, kinds in [(cert.final, cert.lattice, {int, QuadInt}),
                                   (SCATTERED_JIGSAW, EQUIVALENCE_LATTICES[1], {QuadInt})]:
        core = lattice_region(region, lattice)
        assert {type(c) for vs in core.pieces for v in vs for c in (v.x1, v.x2)} == kinds
        assert core.area() == region.area()
        assert core.verdict().collisions == candidate_collisions(region, lattice)
    assert lattice_region(cert.final, cert.lattice).verdict().fundamental_domain


def test_coordinates_over_two_radicands_take_the_same_path(tmp_path, capsys):
    # the cell of the lattice (1 + sqrt 2) Z x (1 + sqrt 3) Z cut at x1 = 1
    # and x2 = 1: its lattice coordinates need both sqrt 2 and sqrt 3, so no
    # one Q(sqrt r) holds them and the core runs on SurdScalars; moving the
    # top right piece by (1/2, 0) makes it collide with the top left one.
    # On the unit lattice, a rectangle of height (sqrt 2 + sqrt 3) / 4 has
    # one coordinate that spans both radicands.
    s2, s3 = 1 + sqrt(2), 1 + sqrt(3)
    lattice = Lattice2.rectangular(s2, s3)
    cell = Region([rectangle(x0, x1, y0, y1) for x0, x1 in ((0, 1), (1, s2))
                   for y0, y1 in ((0, 1), (1, s3))])
    moved = Region(cell.pieces[:3] + [cell.pieces[3].translate(pt(Fraction(1, 2), 0))])
    strip = Region([rectangle(0, 1, 0, (sqrt(2) + sqrt(3)) / 4)])
    for k, (region, lat, fundamental, code) in enumerate([
            (cell, lattice, True, 0), (moved, lattice, False, 1), (strip, UNIT, False, 0)]):
        core = lattice_region(region, lat)
        coords = [c for vs in core.pieces for v in vs for c in (v.x1, v.x2)]
        # rational coordinates are ints or SurdScalars here, never QuadInts
        assert QuadInt not in {type(c) for c in coords} and SurdScalar in {type(c) for c in coords}
        assert set().union(*(c.radicands for c in coords if type(c) is SurdScalar)) >= {2, 3}
        verdict = core.verdict()
        assert verdict.collisions == candidate_collisions(region, lat)
        assert verdict.fundamental_domain == fundamental and verdict.area == region.area()
        region_file, lattice_file = tmp_path / f"region{k}.json", tmp_path / f"lattice{k}.json"
        region_file.write_text(_json_text(region.to_json()))
        lattice_file.write_text(_json_text(lat.to_json()))
        assert main(["verify", str(region_file), "--lattice-file", str(lattice_file)]) == code
        capsys.readouterr()
    assert lattice_region(moved, lattice).verdict().collisions


def test_inverse_basis_and_vertices_in_two_fields_share_one_decision():
    # the lattice sqrt(2) Z x Z has its inverse basis in Q(sqrt 2), and the
    # vertices lie in Q(sqrt 3): each alone is one field, so only a field
    # decided over both keeps their products off QuadInts of two radicands
    lattice = Lattice2.rectangular(sqrt(2), 1)
    half = sqrt(3) / 2
    wide = Region([rectangle(0, half, 0, 1), rectangle(half, 2 * half, 0, 1)])
    narrow = Region([rectangle(0, half, 0, Fraction(1, 3)), rectangle(0, half, Fraction(1, 3), 1)])
    for region, injective in ((wide, False), (narrow, True)):
        core = lattice_region(region, lattice)
        kinds = {type(c) for vs in core.pieces for v in vs for c in (v.x1, v.x2)}
        assert QuadInt not in kinds and SurdScalar in kinds
        verdict = core.verdict()
        assert verdict.collisions == candidate_collisions(region, lattice)
        assert verdict.injective == injective and verdict.area == region.area()


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


@pytest.mark.parametrize("name", sorted(JIGSAWS))
def test_read_region_decides_as_its_point_lists_do(name):
    # a region file read straight into integers and the same region's plane
    # points give one core the same lattice coordinates and the same verdict
    region, lattice = JIGSAWS[name]
    read = LatticeRegion.read(region_coordinates(written(region.to_json())),
                              lattice)
    built = lattice_region(region, lattice)
    assert (read.pieces, read.scale) == (built.pieces, built.scale)
    assert read.verdict() == built.verdict()

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (clip_halfplane, evaluate, rationals, shear_walk_failures,
                      symmetric_difference_area)
from torusfill.fillings import certify
from torusfill.geom import (
    ConvexPolygon,
    Point2,
    Region,
    _from_lowest,
    pt,
    rectangle,
)
from torusfill.shears import (
    ComposabilityReport,
    PLFunction,
    Shear,
    ShearError,
    Violation,
    check_composable,
)
from torusfill.surd import rat, sqrt
from torusfill.torus import Lattice2


def diamond_region(a) -> Region:
    h = rat(a) / 2
    zero = rat(0)
    return Region([ConvexPolygon([Point2(h, zero), Point2(zero, h),
                                  Point2(-h, zero), Point2(zero, -h)])])


def ramp() -> PLFunction:
    """0 on [-1/3, 1/3], slope 1 outside."""
    third = Fraction(1, 3)
    return PLFunction([-third, third], [1, 0, 1], anchor=(0, 0))


def image_under(shear, region) -> Region:
    """The region pushed through one shear, as `check_composable` reports it."""
    return check_composable(region, [shear]).final


MOVES_EVERYTHING = Shear("x2", PLFunction.linear(1))


def violated_pairs(shears, region):
    return [(v.first, v.second, v.overlap)
            for v in check_composable(region, shears).violations]


def test_pl_function_evaluation():
    f = ramp()
    assert evaluate(f, Fraction(2, 3)) == rat(Fraction(1, 3))
    assert evaluate(f, Fraction(-2, 3)) == rat(Fraction(-1, 3))
    assert evaluate(f, 0) == rat(0)
    assert f.slab_is_identity(1)
    assert not f.slab_is_identity(0)


def test_pl_function_validation():
    with pytest.raises(ShearError):
        PLFunction([1, 1], [0, 0, 0])
    with pytest.raises(ShearError):
        PLFunction([0], [1])
    with pytest.raises(ShearError):
        PLFunction([0], [1, 1], anchor=(0, 0))  # anchor on a breakpoint


def test_pl_function_with_jumps():
    f = PLFunction([0, 1], [Fraction(1, 2), 0, Fraction(1, 2)],
                   anchor=(Fraction(1, 2), 0),
                   jumps=[Fraction(-2, 5), Fraction(-2, 5)])
    assert evaluate(f, Fraction(1, 2)) == rat(0)
    assert evaluate(f, Fraction(6, 5)) == rat(Fraction(-2, 5)) + rat(Fraction(1, 5)) / 2
    assert evaluate(f, Fraction(-1, 5)) == rat(Fraction(2, 5)) - rat(Fraction(1, 10))
    # at a breakpoint the right-hand slab holds, on either side of the anchor
    assert evaluate(f, 1) == rat(Fraction(-2, 5))
    assert evaluate(f, 0) == rat(0)
    assert not f.is_continuous()


def test_identity_shear_fixes_region():
    reg = diamond_region(Fraction(4, 3))
    shear = Shear("x1", PLFunction.linear(0))
    assert symmetric_difference_area(image_under(shear, reg), reg).is_zero()
    # it moves nothing, so a shear moving every point may follow it
    assert violated_pairs([shear, MOVES_EVERYTHING], reg) == []


def test_example2_shear_moves_upper_triangle():
    # the x1-shear that is 0 on [-1/3, 1/3] with slope 1 outside moves the
    # apex (0, 2/3) of the size-4/3 diamond to (1/3, 2/3)
    reg = diamond_region(Fraction(4, 3))
    image = image_under(Shear("x1", ramp()), reg)
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    upper = ConvexPolygon([pt(-third, third), pt(third, third), pt(third, two_thirds)])
    assert any(piece == upper for piece in image.pieces)
    assert image.area() == reg.area()


def test_moved_set_examples():
    # a shear moving every point overlaps the image of the first shear's
    # moved set in all of its area
    reg = diamond_region(Fraction(4, 3))
    ramp_shear, linear = Shear("x1", ramp()), Shear("x1", PLFunction.linear(1))
    # the two triangles |x2| > 1/3, each of base 2/3 and height 1/3
    assert violated_pairs([ramp_shear, MOVES_EVERYTHING], reg) == [(0, 1, rat(Fraction(2, 9)))]
    assert violated_pairs([linear, MOVES_EVERYTHING], reg) == [(0, 1, reg.area())]
    identity = Shear("x2", PLFunction.linear(0))
    assert violated_pairs([ramp_shear, identity], reg) == []
    assert violated_pairs([linear, identity], reg) == []


def test_plane_image_preserves_area():
    reg = Region([rectangle(Fraction(-1, 2), 2, Fraction(-3, 2), 1)])
    f = PLFunction([Fraction(-1, 2), Fraction(1, 4)], [2, Fraction(-1, 3), 0],
                   anchor=(0, Fraction(1, 7)))
    for axis in ("x1", "x2"):
        assert image_under(Shear(axis, f), reg).area() == reg.area()


def test_check_composable_single_and_pair():
    reg = diamond_region(Fraction(4, 3))
    assert check_composable(reg, [Shear("x1", ramp())]).ok

    f = ramp()
    neg = PLFunction(f.breakpoints, [-s for s in f.slopes], anchor=(0, 0))
    assert check_composable(reg, [Shear("x1", f), Shear("x2", neg)]).ok


def test_check_composable_violation():
    reg = Region([rectangle(0, 1, 0, 1)])
    report = check_composable(reg, [Shear("x1", PLFunction.linear(1)),
                                    Shear("x2", PLFunction.linear(1))])
    assert not report.ok
    assert report.violations[0].overlap == rat(1)


def test_shear_reflections():
    f = ramp()
    shear = Shear("x1", f)
    reg = diamond_region(Fraction(4, 3))
    image = image_under(shear, reg)
    mirrored = image_under(shear.reflect("x1"), reg)
    flip = lambda r: Region([ConvexPolygon([pt(-v.x1, v.x2) for v in p.vertices])
                             for p in r.pieces])
    assert symmetric_difference_area(flip(image), mirrored).is_zero()
    mirrored2 = image_under(shear.reflect("x2"), reg)
    flip2 = lambda r: Region([ConvexPolygon([pt(v.x1, -v.x2) for v in p.vertices])
                              for p in r.pieces])
    assert symmetric_difference_area(flip2(image), mirrored2).is_zero()
    with pytest.raises(ShearError):
        shear.reflect("x3")


def test_shear_json_round_trip():
    f = PLFunction([0, 1], [Fraction(1, 2), 0, Fraction(1, 2)],
                   anchor=(Fraction(1, 2), 0),
                   jumps=[Fraction(-2, 5), Fraction(-2, 5)])
    shear = Shear("x1", f)
    again = Shear.from_json(shear.to_json())
    assert again.axis == shear.axis
    assert again.f.breakpoints == f.breakpoints
    assert again.f.slopes == f.slopes
    assert again.f.jumps == f.jumps
    cont = Shear("x2", ramp())
    assert Shear.from_json(cont.to_json()).f.is_continuous()


def test_moved_and_fixed_sets_partition_region():
    # the fixed part, the region's area minus the moved overlap, is the band
    # |x2| < 1/3 of the diamond that the ramp's identity slab keeps
    reg = diamond_region(Fraction(4, 3))
    [(_, _, moved)] = violated_pairs([Shear("x1", ramp()), MOVES_EVERYTHING], reg)
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    band = ConvexPolygon([pt(-two_thirds, 0), pt(-third, -third), pt(third, -third),
                          pt(two_thirds, 0), pt(third, third), pt(-third, third)])
    assert reg.area() - moved == band.area()


def test_composite_agrees_with_pointwise_map():
    # for a composable pair, chasing individual points through the pointwise
    # shear formulas lands inside the staged plane image, and back
    f = ramp()
    neg = PLFunction(f.breakpoints, [-s for s in f.slopes], anchor=(0, 0))
    source, shears = diamond_region(Fraction(4, 3)), [Shear("x1", f), Shear("x2", neg)]
    report = check_composable(source, shears)
    assert report.ok
    assert shear_walk_failures(source, shears, report.final) == []


@given(rationals(bound=4), rationals(bound=4), st.sampled_from(["x1", "x2"]))
@settings(max_examples=40, deadline=None)
def test_random_shears_preserve_area_and_symplecticity(b0, slope, axis):
    breakpoints = [b0, b0 + 1]
    f = PLFunction(breakpoints, [slope, 0, -slope], anchor=(b0 + Fraction(1, 2), 0))
    reg = Region([rectangle(-2, 2, -2, 2)])
    shear = Shear(axis, f)
    assert image_under(shear, reg).area() == reg.area()


# -- the full-slab loop as an oracle for the slab-range split ----------------

def slab_bounds(f: PLFunction, i: int):
    """(lo, hi) of slab i, None at an unbounded end."""
    bps = f.breakpoints
    return (bps[i - 1] if i > 0 else None), (bps[i] if i < len(bps) else None)


def clip_to_slab(shear, poly, lo, hi):
    """Clip to lo <= slab coordinate <= hi by general half-plane clips; a
    bound of None is not clipped."""
    out = poly
    if shear.axis == "x1":  # slab in the x2 coordinate
        if lo is not None:
            out = clip_halfplane(out, pt(0, lo), pt(1, lo))
        if out is not None and hi is not None:
            out = clip_halfplane(out, pt(1, hi), pt(0, hi))
    else:
        if lo is not None:
            out = clip_halfplane(out, pt(lo, 1), pt(lo, 0))
        if out is not None and hi is not None:
            out = clip_halfplane(out, pt(hi, 0), pt(hi, 1))
    return out


def from_lowest(parts):
    """(slab, vertices) of each part, rotated to its lowest vertex: `split`
    and `map_part` keep a part's starting vertex, and `check_composable`
    rotates only the final pieces."""
    return [(i, _from_lowest(part.vertices)) for i, part in parts]


def full_slab_parts(shear, piece, moving_only=False):
    """Clip the piece against every slab in turn, as the shear layer once did."""
    for i in range(len(shear.f.slopes)):
        if moving_only and shear.f.slab_is_identity(i):
            continue
        part = clip_to_slab(shear, piece, *slab_bounds(shear.f, i))
        if part is not None:
            yield i, part


def slab_point_map(shear, i):
    """The plane map of slab i, point by point."""
    c, s = shear.f.slab_affine(i)
    if shear.axis == "x1":
        return lambda p: Point2(p.x1 + c + s * p.x2, p.x2)
    return lambda p: Point2(p.x1, p.x2 + c + s * p.x1)


def full_slab_plane_image(shear, region):
    return Region([ConvexPolygon([slab_point_map(shear, i)(v) for v in part.vertices])
                   for piece in region.pieces
                   for i, part in full_slab_parts(shear, piece)])


@st.composite
def slab_profiles(draw):
    """A PL profile with 1 to 4 breakpoints, rational or in Q(sqrt 2), with or
    without jumps, often with an identity slab."""
    surd = draw(st.booleans())
    raw = draw(st.lists(rationals(bound=6), min_size=1, max_size=4, unique=True))
    bps = sorted(rat(b) + (sqrt(2) / 7 if surd else 0) for b in raw)
    slopes = draw(st.lists(rationals(bound=4), min_size=len(bps) + 1,
                           max_size=len(bps) + 1))
    jumps = (draw(st.lists(rationals(bound=3), min_size=len(bps), max_size=len(bps)))
             if draw(st.booleans()) else None)
    k = draw(st.integers(0, len(bps)))  # the anchor's slab
    ends = [bps[0] - 1] + bps + [bps[-1] + 1]
    anchor = ((ends[k] + ends[k + 1]) / 2, draw(rationals(bound=2)))
    if draw(st.booleans()):  # make slab k an identity slab
        slopes[k], anchor = 0, (anchor[0], 0)
    return PLFunction(bps, slopes, anchor=anchor, jumps=jumps)


@given(slab_profiles())
@settings(max_examples=60, deadline=None)
def test_slab_constants_match_integrated_profile(f):
    # the constants built from the anchor agree with the profile integrated
    # from the anchor, inside every slab
    bps = f.breakpoints
    inside = ([bps[0] - 1] + [(a + b) / 2 for a, b in zip(bps, bps[1:])] + [bps[-1] + 1])
    for i, x in enumerate(inside):
        c, s = f.slab_affine(i)
        assert c + s * x == evaluate(f, x)


@st.composite
def slab_pieces(draw, f, axis):
    """A trapezoid or triangle whose interval in the slab coordinate has its
    ends on breakpoints, inside one slab, or spanning several slabs."""
    bps = f.breakpoints
    ends = [bps[0] - 1] + bps + [bps[-1] + 1]
    mode = draw(st.sampled_from(["on_breakpoints", "one_slab", "spanning"]))
    if mode == "on_breakpoints":
        i, j = sorted(draw(st.lists(st.integers(0, len(ends) - 1), min_size=2,
                                    max_size=2, unique=True)))
        lo, hi = ends[i], ends[j]
    elif mode == "one_slab":
        k = draw(st.integers(0, len(ends) - 2))
        t1, t2 = sorted(draw(st.lists(st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]),
                                      min_size=2, max_size=2, unique=True)))
        width = ends[k + 1] - ends[k]
        lo, hi = ends[k] + width * t1, ends[k] + width * t2
    else:
        lo = ends[0] + rat(draw(rationals(bound=4))) / 4
        hi = ends[-1] - rat(draw(rationals(bound=4))) / 4
        if lo >= hi:
            lo, hi = ends[0], ends[-1]
    y1, y2, y3, y4 = (rat(draw(rationals(bound=5))) for _ in range(4))
    if draw(st.booleans()):  # trapezoid with its sides on coordinate lines
        coords = [(lo, y1), (hi, y2), (hi, y2 + abs(y3) + 1), (lo, y1 + abs(y4) + 1)]
    else:
        mid = lo + (hi - lo) * rat(draw(st.sampled_from([0, Fraction(1, 2), 1])))
        apex = max(y1, y2) + abs(y3) + 1
        coords = [(lo, y1), (hi, y2), (mid, apex)]
    if axis == "x1":  # the slab coordinate is x2
        return ConvexPolygon([Point2(other, c) for c, other in coords])
    return ConvexPolygon([Point2(c, other) for c, other in coords])


@given(st.sampled_from(["x1", "x2"]).flatmap(lambda axis: slab_profiles().flatmap(
    lambda f: st.tuples(st.just(Shear(axis, f)),
                        st.lists(slab_pieces(f, axis), min_size=1, max_size=3)))))
@settings(max_examples=120, deadline=None)
def test_slab_range_split_matches_full_slab_loop(case):
    shear, pieces = case
    for piece in pieces:
        assert from_lowest(shear.split(piece)) == from_lowest(full_slab_parts(shear, piece))


def test_piece_touching_a_breakpoint_is_not_clipped(monkeypatch):
    # the box of each piece ends exactly on a breakpoint: only the slab on
    # the inside of that end is met, and the piece is taken without a cut
    shear = Shear("x1", ramp())
    third = Fraction(1, 3)
    below, inside = rectangle(0, 1, -1, -third), rectangle(0, 1, -third, third)
    cuts = []
    original = Shear._cut
    counting = lambda self, poly, bound: cuts.append(bound) or original(self, poly, bound)
    monkeypatch.setattr(Shear, "_cut", counting)
    assert from_lowest(shear.split(below)) == from_lowest([(0, below)])
    assert from_lowest(shear.split(inside)) == from_lowest([(1, inside)])
    assert shear.f.slab_is_identity(1)  # so the piece inside is not moved
    assert cuts == []
    across = rectangle(0, 1, -1, 1)
    assert [i for i, _ in shear.split(across)] == [0, 1, 2]
    assert cuts == shear.f.breakpoints  # one cut per inner breakpoint, bottom up
    for piece in (below, inside, across):
        assert from_lowest(shear.split(piece)) == from_lowest(full_slab_parts(shear, piece))


@given(st.sampled_from(["x1", "x2"]), st.booleans(), slab_profiles(), st.data())
@settings(max_examples=80, deadline=None)
def test_map_part_matches_canonicalising_constructor(axis, surd_slopes, f, data):
    # every slab's part of some pieces, among them one spanning all slabs,
    # with rational or Q(sqrt 2) slopes and the profile's constants and jumps
    if surd_slopes:
        f = PLFunction(f.breakpoints, [s + sqrt(2) for s in f.slopes], anchor=f.anchor,
                       jumps=f.jumps)
    shear = Shear(axis, f)
    ends = [f.breakpoints[0] - 1, f.breakpoints[-1] + 1]
    spanning = [(ends[0], 0), (ends[1], 0), (ends[0], 1)]
    if axis == "x1":  # the slab coordinate is x2
        spanning = [(y, x) for x, y in spanning]
    pieces = [ConvexPolygon([pt(*v) for v in spanning])]
    pieces += data.draw(st.lists(slab_pieces(f, axis), min_size=0, max_size=2))
    slabs = set()
    for piece in pieces:
        for i, part in shear.split(piece):
            image = shear.map_part(i, part)
            plane_map = slab_point_map(shear, i)
            assert (_from_lowest(image.vertices)
                    == ConvexPolygon([plane_map(v) for v in part.vertices]).vertices)
            assert image.area() == part.area()
            slabs.add(i)
    assert slabs == set(range(len(f.slopes)))


def test_certify_pushes_the_source_through_each_shear_once(monkeypatch):
    # shear j splits each piece that enters stage j exactly once; the pieces
    # entering stage j + 1 are the parts that stage j yields
    h = Fraction(2, 3)  # the size-4/3 diamond, cut in two along x1 = 0
    source = Region([ConvexPolygon([pt(-h, 0), pt(0, -h), pt(0, h)]),
                     ConvexPolygon([pt(0, -h), pt(h, 0), pt(0, h)])])
    f = ramp()
    shears = [Shear("x1", f),
              Shear("x2", PLFunction(f.breakpoints, [-s for s in f.slopes], anchor=(0, 0)))]
    calls, parts = Counter(), Counter()
    original = Shear.split

    def counting(shear, *args, **kwargs):
        calls[id(shear)] += 1
        for item in original(shear, *args, **kwargs):
            parts[id(shear)] += 1
            yield item

    monkeypatch.setattr(Shear, "split", counting)
    cert = certify("pair", {}, source, shears, Lattice2.rectangular(1, 1))
    assert cert.valid
    entering = len(source.pieces)
    for shear in shears:
        assert calls[id(shear)] == entering
        assert parts[id(shear)] > entering  # every stage cuts some piece
        entering = parts[id(shear)]
    assert entering == len(cert.final.pieces)


# -- carried moved sets as an oracle for the labelled walk -------------------

def carried_check_composable(source, shears):
    """check_composable as it once was: the image of each earlier shear's
    moved set is carried beside the region and split again at every stage."""
    def full_slab_moved_set(shear, region):
        return Region([part for piece in region.pieces
                       for _, part in full_slab_parts(shear, piece, moving_only=True)])

    violations, carried, cur = [], [], source
    for j, shear in enumerate(shears):
        moved_j = full_slab_moved_set(shear, cur)
        for i, img in carried:
            a = full_slab_moved_set(shear, img).area()
            if a.sign() > 0:
                violations.append(Violation(i, j, a))
        carried = [(i, full_slab_plane_image(shear, img)) for i, img in carried]
        carried.append((j, full_slab_plane_image(shear, moved_j)))
        cur = full_slab_plane_image(shear, cur)
    return ComposabilityReport(violations, cur)


def assert_matches_carried_oracle(source, shears):
    report = check_composable(source, shears)
    oracle = carried_check_composable(source, shears)
    assert report.to_json() == oracle.to_json()
    assert [p.vertices for p in report.final.pieces] == \
        [p.vertices for p in oracle.final.pieces]
    return report


SOURCES = [
    diamond_region(Fraction(4, 3)),
    Region([rectangle(-3, 0, -2, 2), rectangle(0, 3, -2, 2)]),
    Region([ConvexPolygon([pt(-2, -1), Point2(sqrt(2), rat(-1)), pt(0, 2)])]),
]


@given(st.lists(st.tuples(st.sampled_from(["x1", "x2"]), slab_profiles()),
                min_size=1, max_size=4),
       st.sampled_from(SOURCES))
@settings(max_examples=60, deadline=None)
def test_labelled_walk_matches_carried_oracle(profiles, source):
    assert_matches_carried_oracle(source, [Shear(axis, f) for axis, f in profiles])


def test_piece_moved_by_three_shears_violates_every_pair():
    report = assert_matches_carried_oracle(Region([rectangle(0, 1, 0, 1)]),
                                           [Shear("x1", PLFunction.linear(1)),
                                            Shear("x2", PLFunction.linear(1)),
                                            Shear("x1", PLFunction.linear(1))])
    assert [(v.first, v.second) for v in report.violations] == [(0, 1), (0, 2), (1, 2)]
    assert all(v.overlap == rat(1) for v in report.violations)

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    PENTAGRAM,
    SKEW,
    UNIT,
    candidate_vectors,
    clip,
    clip_halfplane,
    edges,
    lattice_region,
    overlap_area,
    rationals,
    region_overlap_area,
    region_pieces,
    skewed_doubled_regions,
    vertex_lists,
    written,
)
import torusfill.geom as geom_module
import torusfill.torus as torus_module
from torusfill.fillings import family_filling
from torusfill.geom import (
    ConvexPolygon,
    GeometryError,
    Point2,
    Region,
    _canonicalize,
    _from_lowest,
    pt,
    rectangle,
    region_coordinates,
    region_points,
    shoelace,
)
from torusfill.surd import QuadInt, lattice_integers, rat, sqrt


def diamond_poly(a) -> ConvexPolygon:
    h = rat(a) / 2
    return ConvexPolygon([Point2(h, rat(0)), Point2(rat(0), h),
                          Point2(-h, rat(0)), Point2(rat(0), -h)])


def test_point_is_a_value():
    # equal coordinates make equal points with equal hashes; a point is not
    # its coordinate pair, and it carries no instance dict
    p, q = pt(1, sqrt(2)), Point2(rat(1), sqrt(2))
    assert p == q and not p != q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Point2(sqrt(2), rat(1)) and pt(1, 2) != pt(2, 1)
    assert p != (p.x1, p.x2) and (p.x1, p.x2) != p
    assert not hasattr(p, "__dict__")


def test_shoelace_areas():
    assert diamond_poly(Fraction(4, 3)).area() == rat(Fraction(8, 9))
    assert rectangle(0, 1, 0, 1).area() == rat(1)
    # the size-3 sheared parallelogram with vertices (+-3, 0), +-(15, 3)
    p = ConvexPolygon([pt(-3, 0), pt(15, 3), pt(3, 0), pt(-15, -3)])
    assert p.area() == rat(18)


def test_shoelace_positive_for_ccw():
    square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    assert shoelace(square).sign() > 0
    assert shoelace(list(reversed(square))).sign() < 0


def test_polygon_canonicalization():
    # clockwise input is reversed; collinear vertex dropped
    poly = ConvexPolygon([pt(0, 1), pt(Fraction(1, 2), Fraction(1, 2)), pt(1, 0), pt(0, 0)])
    assert len(poly.vertices) == 3
    assert poly.area() == rat(Fraction(1, 2))
    with pytest.raises(GeometryError):
        ConvexPolygon([pt(0, 0), pt(1, 0), pt(2, 0)])
    with pytest.raises(GeometryError):  # nonconvex
        ConvexPolygon([pt(0, 0), pt(2, 0), pt(1, Fraction(1, 10)), pt(1, 1)])
    with pytest.raises(GeometryError):  # turns left at every vertex, winds twice
        ConvexPolygon(PENTAGRAM)
    with pytest.raises(GeometryError):  # the unit square, twice round
        ConvexPolygon([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)] * 2)


def test_clip_idempotent_and_disjoint():
    sq = rectangle(0, 1, 0, 1)
    assert clip(sq, sq) == sq
    assert clip(diamond_poly(1), rectangle(1, 2, 1, 2)) is None


def test_clip_half_diamond():
    # hand-derived via half-plane clipping: keep x1 >= 0, x2 >= 0, x1 <= 1, x2 <= 1
    result = clip(diamond_poly(2), rectangle(0, 1, 0, 1))
    assert result == ConvexPolygon([pt(0, 0), pt(1, 0), pt(0, 1)])
    assert result.area() == rat(Fraction(1, 2))


def test_clip_shared_edge_is_empty():
    a = rectangle(0, 1, 0, 1)
    b = rectangle(1, 2, 0, 1)
    assert clip(a, b) is None
    assert overlap_area(a, b).is_zero()


def test_region_invariant_checks():
    lattice_region(Region([rectangle(0, 1, 0, 1), rectangle(1, 2, 0, 1)]), UNIT).verdict()
    with pytest.raises(GeometryError, match="region pieces 0 and 1 overlap"):
        lattice_region(Region([rectangle(0, 1, 0, 1), rectangle(Fraction(1, 2), 2, 0, 1)]),
                       UNIT).verdict()


def test_surd_coordinates():
    s = sqrt(2)
    tri = ConvexPolygon([pt(0, 0), Point2(s, rat(0)), Point2(rat(0), s)])
    assert tri.area() == rat(1)
    assert clip(tri, rectangle(0, 2, 0, 2)) == tri


def test_region_json_round_trip():
    reg = Region([diamond_poly(Fraction(4, 3)),
                  rectangle(Fraction(5, 2), 3, 0, 1)])
    again = Region.from_json(written(reg.to_json()))
    assert [p.vertices for p in again.pieces] == [p.vertices for p in reg.pieces]


@st.composite
def coordinates(draw, surd=False):
    """A rational, or with surd=True an element of Q(sqrt 2)."""
    c = rat(draw(rationals(bound=6)))
    return c + rat(draw(rationals(bound=3))) * sqrt(2) if surd else c


@st.composite
def points(draw, surd=False):
    return Point2(draw(coordinates(surd)), draw(coordinates(surd)))


@st.composite
def triangles(draw, surd=False):
    try:
        return ConvexPolygon([draw(points(surd)) for _ in range(3)])
    except GeometryError:  # collinear or repeated points
        return rectangle(0, 1, 0, 1)


@given(triangles(), triangles())
@settings(max_examples=50, deadline=None)
def test_clip_bounds_and_symmetry(a, b):
    ab = overlap_area(a, b)
    assert ab == overlap_area(b, a)
    assert ab <= a.area() and ab <= b.area()
    assert ab.sign() >= 0


@given(triangles())
@settings(max_examples=40, deadline=None)
def test_region_overlap_self(a):
    reg = Region([a])
    assert region_overlap_area(reg, reg) == reg.area()


def hull_area_oracle(a: ConvexPolygon, b: ConvexPolygon) -> Fraction:
    """Intersection area of two convex polygons with rational vertices, found
    without clipping: the intersection is the convex hull of the vertices of
    each polygon that lie in the other (boundary included) and of the points
    where their edges cross."""
    pa = [(v.x1.as_fraction(), v.x2.as_fraction()) for v in a.vertices]
    pb = [(v.x1.as_fraction(), v.x2.as_fraction()) for v in b.vertices]

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def inside(p, poly):  # poly counterclockwise
        return all(cross(poly[i - 1], poly[i], p) >= 0 for i in range(len(poly)))

    found = {p for p in pa if inside(p, pb)} | {p for p in pb if inside(p, pa)}
    for p, p2 in zip(pa, pa[1:] + pa[:1]):
        for q, q2 in zip(pb, pb[1:] + pb[:1]):
            dp, dq = (p2[0] - p[0], p2[1] - p[1]), (q2[0] - q[0], q2[1] - q[1])
            denom = dp[0] * dq[1] - dp[1] * dq[0]
            if denom == 0:  # parallel: any shared endpoints are already found
                continue
            w = (q[0] - p[0], q[1] - p[1])
            t = (w[0] * dq[1] - w[1] * dq[0]) / denom
            u = (w[0] * dp[1] - w[1] * dp[0]) / denom
            if 0 <= t <= 1 and 0 <= u <= 1:
                found.add((p[0] + t * dp[0], p[1] + t * dp[1]))
    pts = sorted(found)
    if len(pts) < 3:
        return Fraction(0)

    def half(seq):  # Andrew's monotone chain
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = half(pts) + half(pts[::-1])
    twice = sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(hull, hull[1:] + hull[:1]))
    return twice / 2


@given(triangles(), triangles())
@settings(max_examples=200, deadline=None)
def test_clip_area_matches_hull_oracle(a, b):
    assert overlap_area(a, b) == hull_area_oracle(a, b)


def test_hull_oracle_on_known_overlaps():
    assert hull_area_oracle(rectangle(0, 2, 0, 2), rectangle(1, 3, 1, 3)) == 1
    assert hull_area_oracle(rectangle(0, 1, 0, 1), rectangle(1, 2, 0, 1)) == 0
    half = ConvexPolygon([pt(0, 0), pt(1, 0), pt(0, 1)])
    assert hull_area_oracle(half, rectangle(0, 1, 0, 1)) == Fraction(1, 2)


def box_of_vertices(poly: ConvexPolygon):
    xs = [p.x1 for p in poly.vertices]
    ys = [p.x2 for p in poly.vertices]
    return min(xs), max(xs), min(ys), max(ys)


def unfiltered_overlap(a: Region, b: Region):
    """Sum over all piece pairs of chained half-plane clips, with no box test."""
    total = rat(0)
    for p in a.pieces:
        for q in b.pieces:
            c = p
            for s, t in edges(q):
                c = clip_halfplane(c, s, t)
                if c is None:
                    break
            if c is not None:
                total = total + c.area()
    return total


@given(st.booleans().flatmap(lambda surd: st.tuples(
    st.lists(triangles(surd), min_size=1, max_size=3),
    st.lists(triangles(surd), min_size=1, max_size=3),
    points(surd))))
@settings(max_examples=60, deadline=None)
def test_region_overlap_area_matches_unfiltered_oracle(case):
    ps, qs, v = case
    a, b = Region(ps), Region(qs).translate(v)
    assert region_overlap_area(a, b) == unfiltered_overlap(a, b)
    assert region_overlap_area(a, a) == unfiltered_overlap(a, a)


def test_injects_collisions_match_unfiltered_oracle():
    for _, region in skewed_doubled_regions():
        expected = []
        for a, b in candidate_vectors(region, SKEW):
            overlap = unfiltered_overlap(region, region.translate(SKEW.vector(a, b)))
            if overlap.sign() > 0:
                expected.append(((a, b), overlap))
        assert expected
        assert lattice_region(region, SKEW).verdict().collisions == expected


# -- clip before the separating-edge test, as an oracle for clip ---------------

def clip_by_halfplanes(a: ConvexPolygon, b: ConvexPolygon):
    """clip as it was before the separating-edge test: the box test, then one
    half-plane cut per edge of b."""
    ax1, ax2, ay1, ay2 = box_of_vertices(a)
    bx1, bx2, by1, by2 = box_of_vertices(b)
    if (ax2 - bx1).sign() <= 0 or (bx2 - ax1).sign() <= 0:
        return None
    if (ay2 - by1).sign() <= 0 or (by2 - ay1).sign() <= 0:
        return None
    result = a
    for p, q in edges(b):
        result = clip_halfplane(result, p, q)
        if result is None:
            return None
    return result


@st.composite
def piece_pairs(draw, surd):
    """Two pieces: drawn apart, or the second the point reflection of the
    first through the midpoint of one of its edges (they share that edge),
    through one of its vertices (they share that vertex), or through an edge
    midpoint and then slid along that edge (they share part of it)."""
    p = draw(region_pieces(surd))
    mode = draw(st.sampled_from(["apart", "edge", "vertex", "slid"]))
    if mode == "apart":
        return mode, p, draw(region_pieces(surd))
    a, b = edges(p)[draw(st.integers(0, len(p.vertices) - 1))]
    centre = a + a if mode == "vertex" else a + b
    if mode == "slid":
        centre = centre + (b - a).scale(draw(rationals(bound=3)))
    return mode, p, ConvexPolygon([centre - v for v in p.vertices])


@given(st.booleans().flatmap(piece_pairs))
@settings(max_examples=300, deadline=None)
def test_clip_matches_halfplane_oracle(case):
    mode, p, q = case
    event(mode)
    for a, b in ((p, q), (q, p)):
        got, want = clip(a, b), clip_by_halfplanes(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.vertices == want.vertices
        if mode in ("edge", "vertex"):
            assert got is None


def test_certifying_a_full_filling_cuts_no_halfplane_in_clip(monkeypatch):
    # the pieces of a valid filling and their lattice translates overlap in
    # zero area, and a separating edge line settles each pair and shift on
    # lattice coordinates: no overlap is measured (`torus._overlap` is never
    # called), and the package has no half-plane cut to call
    for name in ("clip", "clip_halfplane"):
        assert not hasattr(geom_module, name)
    clips = []
    original_clip = torus_module._overlap

    def counted_clip(*args):
        clips.append(1)
        return original_clip(*args)

    monkeypatch.setattr(torus_module, "_overlap", counted_clip)
    cert = family_filling(10)
    assert cert.valid and len(cert.final.pieces) == 43
    assert clips == []


# -- the canonicalising clip as an oracle for the canonical-by-construction one

def canonicalising_clip_halfplane(poly, a, b):
    """clip_halfplane as it once was: the kept vertices and the crossings are
    run through the validating constructor."""
    d = b - a
    vs = poly.vertices
    sides = [d.cross(p - a).sign() for p in vs]
    if all(s >= 0 for s in sides):
        return poly
    out = []
    for i in range(len(vs)):
        p, q = vs[i], vs[(i + 1) % len(vs)]
        sp, sq = sides[i], sides[(i + 1) % len(vs)]
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            out.append(p + (q - p).scale(d.cross(a - p) / d.cross(q - p)))
    try:
        return ConvexPolygon(out)
    except (GeometryError, IndexError):  # fewer than three vertices, or zero area
        return None


@st.composite
def convex_polygons(draw, surd=False):
    """3 to 6 points of the parabola x2 = x1^2, in order, under a random shear
    and translation: a strictly convex polygon with up to six vertices."""
    ts = sorted(draw(st.lists(rationals(bound=4), min_size=3, max_size=6, unique=True)))
    s, t = draw(coordinates(surd)), draw(points(surd))
    return ConvexPolygon([Point2(rat(x) + s * rat(x * x), rat(x * x)) + t for x in ts])


@st.composite
def clip_lines(draw, poly, surd=False):
    """A directed line that cuts the polygon at random, passes through a
    vertex, runs along an edge, joins two vertices, or touches it at a
    single vertex; either direction."""
    vs = poly.vertices
    k = draw(st.integers(0, len(vs) - 1))
    prev, v, nxt = vs[k - 1], vs[k], vs[(k + 1) % len(vs)]
    mode = draw(st.sampled_from(["random", "through_vertex", "along_edge",
                                 "two_vertices", "touching_vertex"]))
    if mode == "random":
        a, b = draw(points(surd)), draw(points(surd))
    elif mode == "through_vertex":
        a, b = v, draw(points(surd))
    elif mode == "along_edge":
        a, b = v, nxt
    elif mode == "two_vertices":
        a, b = v, vs[draw(st.integers(0, len(vs) - 1))]
    else:  # parallel to the chord prev -> nxt: meets the polygon only at v
        a, b = v, v + (nxt - prev)
    if a == b:
        b = a + pt(1, draw(rationals(bound=3)))
    return (b, a) if draw(st.booleans()) else (a, b)


@given(st.booleans().flatmap(lambda surd: convex_polygons(surd).flatmap(
    lambda poly: st.tuples(st.just(poly), clip_lines(poly, surd)))))
@settings(max_examples=300, deadline=None)
def test_clip_halfplane_matches_canonicalising_oracle(case):
    poly, (a, b) = case
    got, want = clip_halfplane(poly, a, b), canonicalising_clip_halfplane(poly, a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.vertices == want.vertices


def test_clip_halfplane_edge_cases():
    sq = rectangle(0, 2, 0, 2)
    # along an edge: the whole square on its left, nothing on its right
    assert clip_halfplane(sq, pt(0, 0), pt(2, 0)) is sq
    assert clip_halfplane(sq, pt(2, 0), pt(0, 0)) is None
    # touching at the single vertex (2, 2) from outside, in both directions
    assert clip_halfplane(sq, pt(2, 2), pt(0, 4)) is sq
    assert clip_halfplane(sq, pt(0, 4), pt(2, 2)) is None
    # the diagonal through two vertices keeps a triangle with both on the cut
    assert clip_halfplane(sq, pt(0, 0), pt(2, 2)).vertices == [pt(0, 0), pt(2, 2), pt(0, 2)]
    # through one vertex and across the opposite edge; the result starts at
    # its lowest vertex, a crossing
    cut = clip_halfplane(sq, pt(0, 1), pt(2, 0))
    assert cut.vertices == [pt(0, 1), pt(2, 0), pt(2, 2), pt(0, 2)]
    for poly in (cut, clip_halfplane(sq, pt(0, 0), pt(2, 2))):
        assert poly.vertices == ConvexPolygon(poly.vertices).vertices


# -- the shoelace canonicaliser as an oracle for the one-pass turn-sign one

def _orient(a, b, c):
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    return (b - a).cross(c - a).sign()


def shoelace_canonicalize(vertices):
    """_canonicalize as it once was: orientation from the shoelace sum, a
    collinear pass restarted after every removal, then a convexity pass.
    It accepts lists that turn left throughout but wind more than once."""
    vs = [vertices[0]]
    for p in vertices[1:]:
        if p != vs[-1]:
            vs.append(p)
    while len(vs) > 1 and vs[0] == vs[-1]:
        vs.pop()
    if len(vs) < 3:
        return None
    if shoelace(vs).sign() < 0:
        vs.reverse()
    changed = True
    while changed and len(vs) >= 3:
        changed = False
        for i in range(len(vs)):
            a, b, c = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
            if _orient(a, b, c) == 0:
                vs.pop(i)
                changed = True
                break
    if len(vs) < 3 or shoelace(vs).sign() <= 0:
        return None
    for i in range(len(vs)):
        a, b, c = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
        if _orient(a, b, c) <= 0:
            return None
    return _from_lowest(vs)


def winds_once(vs):
    """A counterclockwise list with left turns throughout winds once iff every
    fan triangle from its first vertex is counterclockwise."""
    return all(_orient(vs[0], vs[i], vs[i + 1]) > 0 for i in range(1, len(vs) - 1))


@given(vertex_lists())
@settings(max_examples=400, deadline=None)
def test_canonicalize_matches_shoelace_oracle(vs):
    # the steps that come with the vertices are their edges, in turn
    want = shoelace_canonicalize(vs)
    got = _canonicalize([p.x1 for p in vs], [p.x2 for p in vs])
    if want is not None and winds_once(want):
        event("strictly convex, winds once")
        vertices, steps = got
        assert vertices == want
        assert steps == [(q.x1 - p.x1, q.x2 - p.x2)
                         for p, q in zip(want, want[1:] + want[:1])]
    else:
        event("rejected by the oracle" if want is None else "winds more than once")
        assert got is None



POINT = [[[1, 1, 2]], [[2, 1, 1]]]
BAD_TRIPLE_POINT = [[[2, 1, 0]], [[1, 1, 1]]]
THREE_COORDINATE_POINT = [[[1, 1, 1]]] * 3


@pytest.mark.parametrize("data", [
    [], {}, {"polygons": "x"}, {"polygons": [{}]}, {"polygons": [[POINT, {"0": POINT[0]}]]},
    {"polygons": [[POINT, THREE_COORDINATE_POINT]]},
    {"polygons": [[POINT, BAD_TRIPLE_POINT, THREE_COORDINATE_POINT]]},
    {"polygons": [[POINT, THREE_COORDINATE_POINT, BAD_TRIPLE_POINT]]},
    {"polygons": [[BAD_TRIPLE_POINT], "x"]},
    {"polygons": [[POINT], [[POINT[0], [[2**32, 1, 1]]]]]},
], ids=["list", "no-polygons", "polygons-string", "object-polygon", "object-point",
        "three-coordinates", "bad-triple-first", "three-coordinates-first",
        "bad-triple-then-string-polygon", "huge-radicand-in-second-polygon"])
def test_region_reader_raises_what_the_point_reader_raises(data):
    # the first fault by polygon, point and coordinate, with its message
    with pytest.raises(Exception) as want:
        region_points(data)
    with pytest.raises(type(want.value)) as got:
        region_coordinates(data)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_region_reader_builds_plane_points_only_for_a_message():
    data = {"polygons": [[POINT, [[[1, 3, 1]], [[2, 1, 1]]], [[[1, 5, 1]], [[2, 1, 1]]]]]}
    sizes, read, shown = region_coordinates(data)
    assert sizes == [3]
    assert read == [({1: 1}, 2), ({2: 1}, 1), ({1: 3}, 1), ({2: 1}, 1), ({1: 5}, 1), ({2: 1}, 1)]
    root2 = QuadInt(0, 2, 2)
    assert lattice_integers(read) == [([1, root2, 6, root2, 10, root2], 2)]
    assert shown(0) == region_points(data)[0]

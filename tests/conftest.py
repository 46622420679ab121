import os
import sys
from fractions import Fraction
from math import prod

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import strategies as st

from torusfill.geom import ConvexPolygon, GeometryError, Point2, Region, pt, rectangle
from torusfill.surd import SurdScalar, rat, scalar, sqrt
from torusfill.torus import Lattice2, LatticeRegion, TorusError

SMALL_RADICANDS = [1, 2, 3, 5, 6]
LARGE_PRIMES = [2**31 - 1, 998244353, 1000000007, 2**61 - 1]


@st.composite
def surds(draw, radicands=None, max_terms=3, large=False):
    """Scalars with coefficients num/den, |num| <= 9 and den <= 9; with
    large=True, |num| <= 10**30 and den a small integer times up to two
    primes from LARGE_PRIMES, so that operands share large factors."""
    rads = draw(st.lists(
        st.sampled_from(radicands or SMALL_RADICANDS),
        min_size=0, max_size=max_terms, unique=True))
    terms = []
    for r in rads:
        if large:
            num = draw(st.integers(min_value=-10**30, max_value=10**30))
            den = draw(st.integers(min_value=1, max_value=9)) * prod(
                draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=2)))
        else:
            num = draw(st.integers(min_value=-9, max_value=9))
            den = draw(st.integers(min_value=1, max_value=9))
        terms.append((r, Fraction(num, den)))
    return SurdScalar.from_terms(terms)


@st.composite
def nonzero_surds(draw, **kw):
    value = draw(surds(**kw))
    if value.is_zero():
        value = value + 1
    return value


@st.composite
def rationals(draw, bound=9):
    num = draw(st.integers(min_value=-bound, max_value=bound))
    den = draw(st.integers(min_value=1, max_value=bound))
    return Fraction(num, den)


@st.composite
def region_pieces(draw, surd):
    """A rectangle or a triangle near the origin, with rational coordinates,
    plus a rational multiple of sqrt(2) when surd is set; a degenerate
    triangle becomes the unit square."""
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


# -- the plane clip, as the oracle for the package's cuts ---------------------
# It reads SurdScalar, Point2 and ConvexPolygon as data types only and calls no
# turn, cut or canonicalising helper of the package, so it shares no cutting
# code with `torus.LatticeRegion` or `shears.Shear`.

def edges(poly: ConvexPolygon):
    """The directed edges (p, q) of the polygon, counterclockwise."""
    vs = poly.vertices
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _polygon_from_lowest(vs: list[Point2]) -> ConvexPolygon:
    """The polygon on a canonical counterclockwise vertex list, taken as it
    is once rotated to start at its lexicographically smallest vertex."""
    start = min(range(len(vs)), key=lambda i: (vs[i].x1, vs[i].x2))
    poly = object.__new__(ConvexPolygon)
    poly.vertices = vs[start:] + vs[:start]
    return poly


def clip_halfplane(poly: ConvexPolygon, a: Point2, b: Point2) -> ConvexPolygon | None:
    """Clip to the closed half-plane on the left of the directed line a->b.

    The cut of a canonical polygon is canonical but for its starting vertex:
    the kept vertices stay counterclockwise, at most two output vertices lie
    on the cut line and each crossing lies strictly inside its edge, so no
    vertex repeats, no three in a row are collinear, and three or more
    output vertices enclose positive area.
    """
    d = b - a
    out: list[Point2] = []
    vs = poly.vertices
    sides = [d.cross(p - a).sign() for p in vs]
    if all(s >= 0 for s in sides):
        return poly
    for i in range(len(vs)):
        p, q = vs[i], vs[(i + 1) % len(vs)]
        sp, sq = sides[i], sides[(i + 1) % len(vs)]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            # intersection of segment pq with the line through a, b
            t = d.cross(a - p) / d.cross(q - p)
            out.append(p + (q - p).scale(t))
    return _polygon_from_lowest(out) if len(out) >= 3 else None


def clip(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Exact intersection of two convex polygons; None when it has zero area.

    One half-plane cut of a per edge of b; a pair that meets in zero area
    comes out None after its cuts all the same.
    """
    result: ConvexPolygon | None = a
    for p, q in edges(b):
        result = clip_halfplane(result, p, q)
        if result is None:
            return None
    return result


# -- overlap areas and interior points, as oracles ----------------------------

def contains(poly: ConvexPolygon, p: Point2) -> bool:
    """True iff p is interior to the (open) polygon."""
    return all((b - a).cross(p - a).sign() > 0 for a, b in edges(poly))


def overlap_area(a: ConvexPolygon, b: ConvexPolygon) -> SurdScalar:
    c = clip(a, b)
    return rat(0) if c is None else c.area()


def region_overlap_area(a: Region, b: Region) -> SurdScalar:
    total = rat(0)
    for p in a.pieces:
        for q in b.pieces:
            total = total + overlap_area(p, q)
    return total


def symmetric_difference_area(a: Region, b: Region) -> SurdScalar:
    """area(a) + area(b) - 2*overlap; zero iff the regions agree a.e."""
    return a.area() + b.area() - rat(2) * region_overlap_area(a, b)


def map_region(f, r: Region) -> Region:
    """The image of a region under the point map f, piece by piece, each
    piece re-canonicalised."""
    return Region([ConvexPolygon([f(v) for v in p.vertices]) for p in r.pieces])


UNIT = Lattice2.rectangular(1, 1)
SKEW = Lattice2(pt(1, 0), pt(Fraction(1, 2), 1))


def skewed_doubled_regions():
    """(a, b), region pairs: a small square plus its translate by a*g1 + b*g2
    of SKEW, nudged so that they overlap; collisions occur only at
    mixed-coefficient lattice vectors."""
    base = rectangle(0, Fraction(1, 4), 0, Fraction(1, 4))
    nudge = pt(Fraction(1, 100), Fraction(1, 100))
    return [((a, b), Region([base, base.translate(SKEW.vector(a, b) + nudge)]))
            for a, b in [(2, -1), (1, 1), (-1, 2), (0, 1), (3, -2)]]


# -- the plane-coordinate candidate enumeration, as an oracle for `injectivity`

def _interval_for_b(a: int, u, v, lo, hi):
    """Solve lo <= a*u + b*v <= hi for b; returns (blo, bhi) or None or 'all'."""
    base_lo = lo - rat(a) * u
    base_hi = hi - rat(a) * u
    if v.sign() == 0:
        return "all" if base_lo.sign() <= 0 <= base_hi.sign() else None
    if v.sign() > 0:
        return base_lo / v, base_hi / v
    return base_hi / v, base_lo / v


def candidate_vectors(r: Region, lattice: Lattice2):
    """Nonzero (a, b) with r and r + a*g1 + b*g2 having touching bounding boxes.

    Only one of each +/- pair is produced (overlap with the translate by v
    equals overlap with the translate by -v).
    """
    x1, x2, y1, y2 = r.bounding_box()
    bx_lo, bx_hi = x1 - x2, x2 - x1
    by_lo, by_hi = y1 - y2, y2 - y1
    g1, g2 = lattice.g1, lattice.g2
    det = lattice.covolume()
    # a-range from the box corners mapped through the inverse basis matrix
    corners = [pt(bx_lo, by_lo), pt(bx_lo, by_hi), pt(bx_hi, by_lo), pt(bx_hi, by_hi)]
    a_vals = [c.cross(g2) / det for c in corners]
    a_min, a_max = min(a_vals).floor(), -(-max(a_vals)).floor()
    for a in range(max(a_min, 0), a_max + 1):
        ix = _interval_for_b(a, g1.x1, g2.x1, bx_lo, bx_hi)
        iy = _interval_for_b(a, g1.x2, g2.x2, by_lo, by_hi)
        if ix is None or iy is None:
            continue
        if ix == "all" and iy == "all":  # impossible for a genuine lattice
            raise TorusError("unbounded candidate set")
        if ix == "all":
            blo, bhi = iy
        elif iy == "all":
            blo, bhi = ix
        else:
            blo, bhi = max(ix[0], iy[0]), min(ix[1], iy[1])
        if (bhi - blo).sign() < 0:
            continue
        for b in range(-(-blo).floor(), bhi.floor() + 1):
            if a == 0 and b <= 0:
                continue
            yield a, b


def candidate_collisions(r: Region, lattice: Lattice2):
    """The collisions `LatticeRegion.verdict` reports, found the
    plane-coordinate way: the overlap of r with each candidate translate,
    kept where it is positive."""
    out = []
    for a, b in candidate_vectors(r, lattice):
        overlap = region_overlap_area(r, r.translate(lattice.vector(a, b)))
        if overlap.sign() > 0:
            out.append(((a, b), overlap))
    return out


# -- the plane decisions that `LatticeRegion` replaced, as oracles ------------

EQUIVALENCE_LATTICES = [
    SKEW,
    Lattice2(pt(sqrt(2), Fraction(1, 3)), pt(Fraction(-1, 2), 1)),
    Lattice2(pt(0, 1), pt(Fraction(3, 2), Fraction(-1, 3))),  # input basis negatively oriented
]
FAR = [pt(0, 0), pt(Fraction(-52, 3), Fraction(-29, 7)), pt(31, -12) + pt(sqrt(2), 0)]


def lattice_region(r: Region, lattice: Lattice2) -> LatticeRegion:
    return LatticeRegion([p.vertices for p in r.pieces], lattice)


def first_overlapping_pair(pieces: list[ConvexPolygon]):
    """The validity check as it was, on plane pieces: the first pair i < j,
    by i and then j, that `clip` finds overlapping in positive area, or
    None."""
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if clip(pieces[i], pieces[j]) is not None:
                return i, j
    return None


def plane_canonical(points: list[Point2]):
    """Plane canonicalisation, as `verify` once read each polygon: the
    canonical ConvexPolygon, or the GeometryError message that rejects the
    point list."""
    try:
        return ConvexPolygon(points)
    except GeometryError as exc:
        return str(exc)


ROOT2_LATTICE = Lattice2(pt(1 + sqrt(2) / 4, Fraction(1, 4)), pt(Fraction(-1, 2), 1 + sqrt(2) / 2))


def jigsaw(pieces: int, lattice: Lattice2, nudge=0) -> Region:
    """A fundamental domain of the lattice in 3 or 6 pieces: its basis cell
    cut into three strips along g2, for 6 each cut along a diagonal too,
    and the pieces scattered by lattice vectors.  With a nudge, the first
    piece moves by nudge * g1 more, so that it collides."""
    g1, g2 = lattice.g1, lattice.g2
    third = Fraction(1, 3)
    cells = []
    for x in (0, third, 2 * third):
        corners = [(x, 0), (x + third, 0), (x + third, 1), (x, 1)]
        cells += ([corners] if pieces == 3
                  else [corners[:3], [corners[0], corners[2], corners[3]]])
    shifts = [(2, -1), (-2, 0), (0, 2), (1, 1), (-1, -2), (2, 2)]
    out = []
    for k, (cell, (a, b)) in enumerate(zip(cells, shifts)):
        a = a + nudge if k == 0 else a
        out.append(ConvexPolygon([g1.scale(u + a) + g2.scale(w + b) for u, w in cell]))
    return Region(out)


# (region, lattice) pairs over Q(sqrt 2): fundamental domains in 3 and 6
# pieces, and the 6 with its first piece moved by half of g1
JIGSAWS = {
    "3-pieces": (jigsaw(3, ROOT2_LATTICE), ROOT2_LATTICE),
    "6-pieces": (jigsaw(6, ROOT2_LATTICE), ROOT2_LATTICE),
    "6-pieces-displaced": (jigsaw(6, ROOT2_LATTICE, Fraction(1, 2)), ROOT2_LATTICE),
}


R2 = sqrt(2) / 2
REGULAR = [
    [pt(1, 0), pt(0, 1), pt(-1, -1)],                       # affine-regular triangle
    [pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)],
    [pt(1, 0), pt(1, 1), pt(0, 1), pt(-1, 0), pt(-1, -1), pt(0, -1)],  # affine-regular
    [pt(1, 0), Point2(R2, R2), pt(0, 1), Point2(-R2, R2),
     pt(-1, 0), Point2(-R2, -R2), pt(0, -1), Point2(R2, -R2)],
]
PENTAGRAM = [pt(0, 10), pt(6, -8), pt(-10, 3), pt(10, 3), pt(-6, -8)]


@st.composite
def vertex_lists(draw):
    """3 to 8 small grid points, or a regular polygon visited with step 1 to 3
    (a star or a repeated cycle when the step or the count says so); then
    midpoints, spikes past the next vertex and repeated points inserted,
    either orientation, and an optional sqrt 2 shear."""
    count = draw(st.integers(3, 8))
    if draw(st.booleans()):
        grid = st.integers(-2, 2)
        vs = [pt(draw(grid), draw(grid)) for _ in range(count)]
    else:
        base = draw(st.sampled_from(REGULAR))
        start, step = draw(st.integers(0, len(base) - 1)), draw(st.integers(1, 3))
        vs = [base[(start + i * step) % len(base)] for i in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(vs) - 1))
        p, q = vs[i], vs[(i + 1) % len(vs)]
        kind = draw(st.sampled_from(["midpoint", "spike", "repeat"]))
        if kind == "midpoint":
            vs.insert(i + 1, p + (q - p).scale(Fraction(1, 2)))
        elif kind == "spike":  # out past q along pq and back to q
            vs.insert(i + 1, q + (q - p).scale(Fraction(draw(st.integers(1, 4)), 2)))
        else:
            vs.insert(i, p)
    if draw(st.booleans()):
        vs.reverse()
    if draw(st.booleans()):
        vs = [Point2(p.x1 + sqrt(2) * p.x2, p.x2) for p in vs]
    return vs


def fraction_from_triples(triples) -> SurdScalar:
    """`SurdScalar.from_triples` as it was, through one Fraction per triple:
    the same checks in the same order, then `from_terms`."""
    if type(triples) is not list or any(type(t) is not list or len(t) != 3
                                        for t in triples):
        raise TypeError("a scalar is a list of [radicand, numerator, denominator] lists")
    if any(type(r) is int and r >= 2**32 for r, _, _ in triples):
        raise ValueError("radicands must be below 2**32")

    def fraction(num, den):
        if type(num) is not int or type(den) is not int:
            raise TypeError("numerator and denominator must be integers")
        return Fraction(num, den)

    return SurdScalar.from_terms((r, fraction(num, den)) for r, num, den in triples)


# -- the eps = 0 constants of the full T(1, 1) filling -----------------------

def theorem1_constants() -> dict[str, SurdScalar]:
    """The exact constants of the full T(1,1) filling, in Q(sqrt 2)."""
    b = rat(3) - 2 * sqrt(2)
    return {
        "b": b,
        "h_t": 2 * b / (1 + b),
        "h_b": 4 * b * b / (1 - b * b),
        "ell": (1 - 3 * b) / (1 - b),
    }


# -- shears as maps of points, as an oracle for `check_composable` ------------
# It reads a profile's breakpoints, slopes, jumps and anchor as data and maps
# one point at a time, so it shares no splitting or mapping code with
# `shears`.

def evaluate(f, x) -> SurdScalar:
    """f(x) from the anchor, slopes and jumps alone, with the right-hand slab
    at a breakpoint: the anchor value plus the integral of the slope from the
    anchor to x, plus the jumps at the breakpoints in (x0, x], or minus those
    in (x, x0)."""
    x0, y0 = f.anchor
    x = scalar(x)
    sign, lo, hi = (1, x0, x) if x >= x0 else (-1, x, x0)
    ends = [lo] + [min(max(b, lo), hi) for b in f.breakpoints] + [hi]
    total = rat(0)
    for s, a, b in zip(f.slopes, ends, ends[1:]):
        total = total + s * (b - a)
    for b, j in zip(f.breakpoints, f.jumps):
        if lo < b <= hi:
            total = total + j
    return y0 + sign * total


# positive weights (i, j, k) / 17 of a triangle's corners, one point each
FAN_WEIGHTS = [(Fraction(i, 17), Fraction(j, 17), Fraction(17 - i - j, 17))
               for i in range(1, 16) for j in range(1, 17 - i)]


def interior_samples(poly: ConvexPolygon, count: int) -> list[Point2]:
    """count exact points strictly inside the open convex polygon, evenly
    strided through the positive combinations FAN_WEIGHTS of the corners of
    each triangle that fans out from its first vertex."""
    vs = poly.vertices
    points = [vs[0].scale(u) + vs[i].scale(v) + vs[i + 1].scale(w)
              for i in range(1, len(vs) - 1) for u, v, w in FAN_WEIGHTS]
    return [points[k * len(points) // count] for k in range(count)]


def shear_point(shear, p: Point2, inverse=False):
    """(image, moved): p under the shear, or under its inverse, and whether
    the 4D lift over p is not the identity, f or f' being nonzero there;
    None when p lies on a breakpoint line of the shear."""
    f = shear.f
    c = p.x2 if shear.axis == "x1" else p.x1
    if any(c == b for b in f.breakpoints):
        return None
    d = evaluate(f, c)
    moved = not (d.is_zero() and f.slopes[sum(b < c for b in f.breakpoints)].is_zero())
    d = -d if inverse else d
    return (Point2(p.x1 + d, p.x2) if shear.axis == "x1" else Point2(p.x1, p.x2 + d)), moved


def shear_walk_failures(source: Region, shears, final: Region, samples=200) -> list[str]:
    """Why the shears, taken as maps of points, disagree with the stated
    final region of the source: [] when they agree.

    Forward, half the samples, spread over the source pieces: each is pushed
    through the shears one at a time, must be moved by at most one of them,
    and must land strictly inside exactly one final piece.  Backward, the
    other half, spread over the final pieces: each is pulled back through the
    inverse shears in reverse order and must land strictly inside the
    source.  A sample on a breakpoint line at any stage is skipped, but
    every piece must keep at least one sample.
    """
    failures = []

    def walk(p, order, inverse):
        moves = 0
        for shear in order:
            step = shear_point(shear, p, inverse)
            if step is None:
                return None, 0
            p, moved = step
            moves += moved
        return p, moves

    for n, piece in enumerate(source.pieces):
        kept = 0
        for p in interior_samples(piece, max(1, samples // 2 // len(source.pieces))):
            q, moves = walk(p, shears, False)
            if q is None:
                continue
            kept += 1
            if moves > 1:
                failures.append(f"source piece {n}: a sample is moved by {moves} shears")
            inside = sum(contains(f, q) for f in final.pieces)
            if inside != 1:
                failures.append(f"source piece {n}: a sample lands in {inside} final pieces")
        if not kept:
            failures.append(f"source piece {n}: every sample lies on a breakpoint line")
    for n, piece in enumerate(final.pieces):
        kept = 0
        for p in interior_samples(piece, max(1, samples // 2 // len(final.pieces))):
            q, _ = walk(p, reversed(shears), True)
            if q is None:
                continue
            kept += 1
            if not any(contains(s, q) for s in source.pieces):
                failures.append(f"final piece {n}: a sample pulls back outside the source")
        if not kept:
            failures.append(f"final piece {n}: every sample lies on a breakpoint line")
    return failures

import os
import sys
from fractions import Fraction
from math import prod

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import strategies as st

from torusfill.geom import AffineMap2, ConvexPolygon, Point2, Region, clip, pt, rectangle
from torusfill.surd import SurdScalar, rat
from torusfill.torus import Lattice2, TorusError

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


# -- overlap areas and interior points, as oracles ----------------------------

def contains(poly: ConvexPolygon, p: Point2) -> bool:
    """True iff p is interior to the (open) polygon."""
    return all((b - a).cross(p - a).sign() > 0 for a, b in poly.edges())


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


def map_region(m: AffineMap2, r: Region) -> Region:
    """The image of a region under an affine map, piece by piece."""
    return Region([m.apply_polygon(p) for p in r.pieces])


SKEW = Lattice2(pt(1, 0), pt(Fraction(1, 2), 1))


def skewed_doubled_regions():
    """(a, b), region pairs: a small square plus its translate by a*g1 + b*g2
    of SKEW, nudged so that they overlap; collisions occur only at
    mixed-coefficient lattice vectors."""
    base = rectangle(0, Fraction(1, 4), 0, Fraction(1, 4))
    nudge = pt(Fraction(1, 100), Fraction(1, 100))
    return [((a, b), Region([base, base.translate(SKEW.vector(a, b) + nudge)]))
            for a, b in [(2, -1), (1, 1), (-1, 2), (0, 1), (3, -2)]]


# -- the plane-coordinate candidate enumeration, as an oracle for `injects`

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
    a_min, a_max = min(a_vals).floor(), max(a_vals).ceil()
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
        for b in range(blo.ceil(), bhi.floor() + 1):
            if a == 0 and b <= 0:
                continue
            yield a, b


def candidate_collisions(r: Region, lattice: Lattice2):
    """The collisions `injects` reports, found the plane-coordinate way: the
    overlap of r with each candidate translate, kept where it is positive."""
    out = []
    for a, b in candidate_vectors(r, lattice):
        overlap = region_overlap_area(r, r.translate(lattice.vector(a, b)))
        if overlap.sign() > 0:
            out.append(((a, b), overlap))
    return out

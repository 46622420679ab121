"""Quotients of the plane by rank-2 lattices.

A region is decided on integer lattice coordinates (`LatticeRegion`).  Its
vertices are mapped once into the coordinates of a Lagrange-reduced basis
and multiplied by L, a common denominator, so that a lattice vector is a
shift (aL, bL).  The inverse basis and the vertices are cleared of their
denominators in one step that decides their field once
(`surd.lattice_integers`), from a scalar's numerators or from those that
`geom.region_coordinates` reads off a region file's triples, with no
scalar per coordinate; one core takes both from there.  When the inverse
basis and the vertices all lie in one Q(sqrt r), a rational coordinate is
an int and an irrational one a `QuadInt` a + b sqrt(r) on two ints, and a
result whose sqrt(r) part is 0 is a plain int, never a pair; when they
span two radicands or more, a coordinate is a SurdScalar of denominator 1
or an int, through the same code.  The map has determinant 1/covolume > 0,
so it keeps convexity, winding, collinearity, repeated points and
positive-area overlap; there each piece is canonicalised in one pass over
its edges that also gives its box, edge lines and twice its area, and
each pair of pieces is checked at every lattice shift that their boxes
allow, the zero shift included: two pieces that meet unshifted overlap,
and shifted they collide.  A pair's shift bounds are taken one at a time,
and it is dropped at the first empty range.  Two convex pieces overlap in
positive area unless an edge line of one separates them, and each piece's
vertices are projected onto the other's edge normals once per pair with a
shift to test, so a shift costs integer additions and comparisons.  A
colliding (pair, shift) is measured there too
(`_overlap`): one piece is cut by the other's shifted edge lines in
homogeneous points, with no division, and one shoelace gives the area.
Shared edges are allowed, per the open-set convention.

`LatticeRegion.verdict` is the one decision on a region: it raises
GeometryError on two pieces that overlap, or returns a `RegionVerdict` of
the collisions, the area and the covolume, from which injectivity, the
covered fraction and the fundamental-domain verdict are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surd import QuadInt, SurdScalar, lattice_integers, scalar
from .geom import GeometryError, Point2, _canonical, _sign, pt


class TorusError(ValueError):
    pass


class Lattice2:
    """Rank-2 lattice spanned by two plane vectors, covolume positive."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: Point2, g2: Point2):
        orientation = g1.cross(g2).sign()
        if orientation == 0:
            raise TorusError("degenerate lattice basis")
        if orientation < 0:
            g1, g2 = g2, g1
        self.g1 = g1
        self.g2 = g2

    @classmethod
    def rectangular(cls, mu1, mu2) -> "Lattice2":
        return cls(pt(scalar(mu1), 0), pt(0, scalar(mu2)))

    def covolume(self) -> SurdScalar:
        return self.g1.cross(self.g2)

    def vector(self, a: int, b: int) -> Point2:
        return self.g1.scale(a) + self.g2.scale(b)

    def to_json(self):
        return {"basis": [self.g1.to_json(), self.g2.to_json()]}

    @classmethod
    def from_json(cls, data) -> "Lattice2":
        basis = data["basis"]
        if type(basis) is not list:
            raise TypeError(f"a lattice basis must be a list, got {type(basis).__name__}")
        if len(basis) != 2:
            raise TorusError(f"a lattice basis has two vectors, got {len(basis)}")
        return cls(Point2.from_json(basis[0]), Point2.from_json(basis[1]))

    def __repr__(self):
        return (f"Lattice2[({self.g1.x1},{self.g1.x2}), "
                f"({self.g2.x1},{self.g2.x2})]")


@dataclass(frozen=True)
class RegionVerdict:
    """What a region is modulo a lattice: its collisions, each a lattice
    vector's coefficients and the plane area of the overlap there, its area
    and the lattice's covolume.  Everything else is read off these three."""

    collisions: list[tuple[tuple[int, int], SurdScalar]]
    area: SurdScalar
    covolume: SurdScalar

    @property
    def injective(self) -> bool:
        return not self.collisions

    @property
    def fraction(self) -> SurdScalar | None:
        """The share of the torus covered, when the region maps injectively."""
        return self.area / self.covolume if self.injective else None

    @property
    def fundamental_domain(self) -> bool:
        return self.injective and self.area == self.covolume

    def fraction_json(self) -> tuple:
        """(the fraction, its 30-digit decimal), or (None, None)."""
        f = self.fraction
        return (None, None) if f is None else (f, f.decimal(30))

    def collisions_json(self) -> list:
        """Each collision's coefficients and its overlap area, a scalar."""
        return [{"coeffs": list(ab), "overlap": area}
                for ab, area in self.collisions]


def _reduced(g1: Point2, g2: Point2):
    """Lagrange-reduce the basis (g1, g2), keeping its orientation.

    Returns (h1, h2, c1, c2) with h_j = c_j[0]*g1 + c_j[1]*g2.  The shorter
    vector comes first, as (h1, h2) -> (h2, -h1), and h2 loses the integer
    multiple of h1 nearest to its projection, until that multiple is 0.
    Each squared length n1, n2 is taken once per vector.
    """
    def dot(u, v):
        return u.x1 * v.x1 + u.x2 * v.x2

    h1, h2, c1, c2 = g1, g2, (1, 0), (0, 1)
    n1, n2 = dot(h1, h1), dot(h2, h2)
    while True:
        if n1 > n2:
            h1, h2, c1, c2, n1, n2 = h2, -h1, c2, (-c1[0], -c1[1]), n2, n1
        k = (dot(h1, h2) / n1 + Fraction(1, 2)).floor()
        if not k:
            return h1, h2, c1, c2
        h2, c2 = h2 - h1.scale(k), (c2[0] - k * c1[0], c2[1] - k * c1[1])
        n2 = dot(h2, h2)


def _floordiv(x, n: int) -> int:
    """floor(x / n) for an int or a SurdScalar x and a positive int n, which
    is floor(x) // n."""
    return (x if type(x) is int else x.floor()) // n


def _surd(x) -> SurdScalar:
    """A lattice-coordinate value (an int, a QuadInt or a SurdScalar) as a
    SurdScalar, where it leaves the core."""
    return x.surd() if type(x) is QuadInt else scalar(x)


def _separates(seen: list, lines, a: int, b: int) -> bool:
    """True iff a line (alpha, beta, t) has alpha*a + beta*b <= t: first
    those in seen, then more drawn from the iterator lines, each kept in
    seen for the next shift."""
    for al, be, t in seen:
        if al * a + be * b <= t:
            return True
    for line in lines:
        seen.append(line)
        al, be, t = line
        if al * a + be * b <= t:
            return True
    return False


def _overlap(piece: list[Point2], edges: list, su, sw):
    """Twice the area of a strictly convex piece cut by the closed left sides
    of the edge lines (du, dw, c) of `edges`, each shifted by (su, sw), as
    (n, d) with n, d > 0; None when the cut has no interior.

    Points are homogeneous (X, Y, W) with W > 0, for (X/W, Y/W).  A shift
    moves c to c + du*sw - dw*su, and a point's side is the sign of
    du*Y - dw*X - c*W.  The points with side >= 0 are kept, and between
    sides fp > 0 > fq the crossing is fp*Q - fq*P: its side is 0 and its W
    is positive, so no cut divides.  A cut of a strictly convex polygon
    with a point on each side keeps one off the line and adds two
    crossings, and is strictly convex again, so every cut but one with no
    point on the side > 0 leaves positive area.  The shoelace sums the
    cross products over W W' into one fraction.
    """
    poly = [(v.x1, v.x2, 1) for v in piece]
    for du, dw, c in edges:
        c = c + du * sw - dw * su
        fs = [du * y - dw * x - c * w for x, y, w in poly]
        sides = [_sign(f) for f in fs]
        if min(sides) >= 0:
            continue
        if max(sides) <= 0:
            return None
        out = []
        p, fp, sp = poly[-1], fs[-1], sides[-1]
        for q, fq, sq in zip(poly, fs, sides):
            if sp >= 0:
                out.append(p)
            if sp > 0 > sq:
                out.append((fp * q[0] - fq * p[0], fp * q[1] - fq * p[1], fp * q[2] - fq * p[2]))
            elif sq > 0 > sp:
                out.append((fq * p[0] - fp * q[0], fq * p[1] - fp * q[1], fq * p[2] - fp * q[2]))
            p, fp, sp = q, fq, sq
        poly = out
    n, d = 0, 1
    x0, y0, w0 = poly[-1]
    for x1, y1, w1 in poly:
        w = w0 * w1
        n, d = n * w + (x0 * y1 - y0 * x1) * d, d * w
        x0, y0, w0 = x1, y1, w1
    return n, d


class LatticeRegion:
    """A region in the coordinates of a lattice's reduced basis h1, h2.

    Built from the plane vertex lists of its pieces, as given, or by `read`
    from the numerators over denominators that `geom.region_coordinates`
    reads a region file into; a list that does not bound a strictly convex
    polygon winding once raises GeometryError with its plane points.  A
    point x maps to (u, w) with x = (u h1 + w h2) / L, so a*h1 + b*h2 is
    the shift (aL, bL); in one Q(sqrt r) u and w are ints where rational
    and QuadInts otherwise, and when several radicands meet they are ints
    or SurdScalars.  Only the operators the three
    types share are used on them, with `_floordiv` and `_sign`.  `verdict`
    decides everything, overlapping pieces and the areas of collisions
    included, on these coordinates: no plane polygon is built, and an area
    becomes a SurdScalar only where it leaves the core (`_surd`).

    The map is taken on integers.  `surd.lattice_integers` makes E times
    the four entries of the inverse basis integral, and D times the vertex
    coordinates, E and D the lcms of their denominators; it decides the
    field once for both, so each product is L = D*E times the true
    coordinate.  L need not be minimal: it is read only through the shifts
    (aL, bL) and the areas over 2 L^2, which do not depend on it.
    """

    __slots__ = ("pieces", "scale", "_det", "_c1", "_c2", "_boxes", "_edges", "_twice")

    def __init__(self, polygons: list[list[Point2]], lattice: Lattice2):
        self._build([len(points) for points in polygons],
                    [(c._num, c._den) for points in polygons for p in points for c in (p.x1, p.x2)],
                    polygons.__getitem__, lattice)

    @classmethod
    def read(cls, coordinates, lattice: Lattice2) -> LatticeRegion:
        """The region that `geom.region_coordinates` read, as (sizes, read,
        shown); shown(k) builds the plane points of piece k only for the
        message that rejects it."""
        region = object.__new__(cls)
        region._build(*coordinates, lattice)
        return region

    def _build(self, sizes: list[int], read: list, shown, lattice: Lattice2) -> None:
        """The core, from the vertex coordinates as numerators over a
        denominator on."""
        h1, h2, self._c1, self._c2 = _reduced(lattice.g1, lattice.g2)
        self._det = det = lattice.covolume()
        inv = det.inverse()
        inverse = (h2.x2 * inv, -h2.x1 * inv, -h1.x2 * inv, h1.x1 * inv)
        ((m11, m12, m21, m22), e), (xs, d) = lattice_integers(
            [(v._num, v._den) for v in inverse], read)
        self.scale = d * e
        coords = []
        for x1, x2 in zip(xs[::2], xs[1::2]):
            coords += (m11 * x1 + m12 * x2, m21 * x1 + m22 * x2)
        self.pieces, self._boxes, self._edges = [], [], []
        twice = at = 0
        for k, size in enumerate(sizes):
            end = at + 2 * size
            vs, steps = _canonical(coords[at:end:2], coords[at + 1:end:2], lambda: shown(k))
            at = end
            edges = []  # edge p -> p + d as (du, dw, d x p), with d x v = du*v.w - dw*v.u
            for p, (du, dw) in zip(vs, steps):
                c = du * p.x2 - dw * p.x1
                edges.append((du, dw, c))
                twice = twice - c
            ws = [v.x2 for v in vs]
            self.pieces.append(vs)
            self._boxes.append((vs[0].x1, max(v.x1 for v in vs), min(ws), max(ws)))
            self._edges.append(edges)
        self._twice = twice

    def area(self) -> SurdScalar:
        """Plane area: covolume / (2 L^2) times the integer shoelace, which
        `_build` sums as -c over the edge lines (du, dw, c) of every piece,
        as c = -(p x q) for the edge p -> q."""
        return self._det * _surd(self._twice) / (2 * self.scale * self.scale)

    def _lines(self, i: int, j: int):
        """(alpha, beta, t) per edge line of piece j and then of piece i,
        each made when it is drawn: the line separates piece i from piece j
        shifted by (aL, bL), the two on its closed sides, iff
        alpha*a + beta*b <= t.  Its normal projects the vertices of the
        other piece once."""
        L, p, q = self.scale, self.pieces[i], self.pieces[j]
        for du, dw, c in self._edges[j]:  # all of p right of the shifted line
            top = max(du * v.x2 - dw * v.x1 for v in p)
            yield dw * L, -du * L, c - top
        for du, dw, c in self._edges[i]:  # all of q + shift right of the line
            top = max(du * v.x2 - dw * v.x1 for v in q)
            yield -dw * L, du * L, c - top

    def verdict(self) -> RegionVerdict:
        """The region modulo the lattice, decided in one pass over the ordered
        pairs (i, j) of pieces, by i and then j.

        Piece q = j shifted by (aL, bL) meets piece p = i in positive area
        only if their boxes do: aL lies strictly between p.umin - q.umax and
        p.umax - q.umin, and bL likewise.  Those bounds are taken only for
        pairs that the floors and ceilings of the piece boxes over L, taken
        once per piece, leave a shift, and then one at a time, a_hi, a_lo,
        b_hi and b_lo: the pair is dropped at the first empty range, and
        its edge lines are made only when a shift is left.  Shifts by v and
        -v overlap equally, so only a > 0, or a = 0 < b, is tried, and for
        i < j the zero shift too, first.  It is in range exactly when the
        boxes overlap; if no edge line separates the pieces there, they
        overlap, and GeometryError names the pair, the first one by i and
        then j.  At any other shift that no edge line separates, the pair
        collides: p is cut by the edge lines of q shifted there
        (`_overlap`), to measure its area; as no line separates the two, an
        empty or zero-area cut is an internal error and raises TorusError.
        A collision is reported by its coefficients in the given basis,
        signed the same way.
        """
        L, boxes, c1, c2 = self.scale, self._boxes, self._c1, self._c2
        ints = [(_floordiv(u1, L), -_floordiv(-u2, L), _floordiv(w1, L), -_floordiv(-w2, L))
                for u1, u2, w1, w2 in boxes]
        overlaps: dict[tuple[int, int], SurdScalar] = {}
        for i, ((pu1, pu2, pw1, pw2), (_, pa, _, pb)) in enumerate(zip(boxes, ints)):
            for j, ((qu1, qu2, qw1, qw2), (qa, _, qb, _)) in enumerate(zip(boxes, ints)):
                b0 = 0 if i < j else 1  # the least b tried at a = 0
                # a < pa - qa and b < pb - qb, read off the integer boxes: skip
                # the pair when that leaves no a > 0 nor a = 0 with b >= b0
                if pa - qa < 1 or (pa - qa == 1 and pb - qb <= b0):
                    continue
                a_hi = -_floordiv(qu1 - pu2, L)
                if a_hi < 1 or (a_lo := max(_floordiv(pu1 - qu2, L) + 1, 0)) >= a_hi:
                    continue
                b_hi = -_floordiv(qw1 - pw2, L)  # at a = 0 alone, b0 <= b < b_hi
                if (a_hi == 1 and b_hi <= b0) or (b_lo := _floordiv(pw1 - qw2, L) + 1) >= b_hi:
                    continue
                seen: list = []
                lines = self._lines(i, j)
                for a in range(a_lo, a_hi):
                    for b in range(b_lo if a else max(b_lo, b0), b_hi):
                        if _separates(seen, lines, a, b):
                            continue
                        if not (a or b):
                            raise GeometryError(f"region pieces {i} and {j} overlap")
                        twice = _overlap(self.pieces[i], self._edges[j], a * L, b * L)
                        if twice is None:
                            raise TorusError(f"internal error: pieces {i} and {j} at shift "
                                             f"({a}, {b}) meet in zero area, yet no edge "
                                             "line separates them")
                        v = (a * c1[0] + b * c2[0], a * c1[1] + b * c2[1])
                        if v < (0, 0):  # a < 0, or a = 0 > b
                            v = (-v[0], -v[1])
                        overlaps[v] = overlaps.get(v, 0) + self._det * _surd(twice[0]) / _surd(twice[1])
        collisions = [(ab, area / (2 * L * L)) for ab, area in sorted(overlaps.items())]
        return RegionVerdict(collisions, self.area(), self._det)

"""Exact planar geometry over the surd ring.

Convex polygons with surd coordinates, finite unions of interior-disjoint
convex pieces (regions) and convex clipping.  All predicates
are decided by exact sign computations; regions follow the open-set
convention, so degenerate (zero-area) intersections count as empty.
Whether the pieces of a region overlap, whether it maps injectively
modulo a lattice, and how much area each collision has, is decided in
`torus` on integer lattice coordinates: `_canonical` and `_sign` serve both
the plane polygons here and those lattice coordinates.  `clip` is the plane
intersection of two polygons; `torus` does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surd import SurdScalar, rat, scalar


class GeometryError(ValueError):
    """Raised on invalid polygons or bad region data."""


@dataclass(frozen=True)
class Point2:
    """A plane point; `torus` also holds lattice coordinates in it, each an
    int where it is rational."""

    x1: SurdScalar
    x2: SurdScalar

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Point2":
        return Point2(-self.x1, -self.x2)

    def scale(self, factor) -> "Point2":
        f = scalar(factor)
        return Point2(self.x1 * f, self.x2 * f)

    def cross(self, other: "Point2") -> SurdScalar:
        return self.x1 * other.x2 - self.x2 * other.x1

    def to_json(self):
        return [self.x1.to_triples(), self.x2.to_triples()]

    @classmethod
    def from_json(cls, data) -> "Point2":
        if type(data) is not list:  # an object would be read by its keys 0 and 1
            raise TypeError(f"a point must be a list, got {type(data).__name__}")
        if len(data) != 2:
            raise GeometryError(f"a point has two coordinates, got {len(data)}")
        return cls(SurdScalar.from_triples(data[0]), SurdScalar.from_triples(data[1]))


def pt(x1, x2) -> Point2:
    """Point from ints/Fractions/SurdScalars."""
    return Point2(scalar(x1), scalar(x2))


def _sign(t) -> int:
    """Sign of an int or a SurdScalar: int comparisons, or one `sign()`."""
    return t.sign() if type(t) is SurdScalar else (t > 0) - (t < 0)


def _turn(d: Point2, e: Point2) -> int:
    """Sign of d x e (+1 when e turns left from d), for coordinates that are
    SurdScalars or ints."""
    return _sign(d.cross(e))


class ConvexPolygon:
    """Strictly convex polygon, vertices stored counterclockwise.

    Canonical form: repeated and collinear points merged, the rest bounding a
    strictly convex polygon that winds once (see `_canonicalize`), vertex list
    rotated to start at the lexicographically smallest vertex.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: list[Point2]):
        self.vertices = _canonical(vertices)

    def area(self) -> SurdScalar:
        return shoelace(self.vertices)

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def translate(self, v: Point2) -> "ConvexPolygon":
        return _raw([p + v for p in self.vertices])

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(tuple(self.vertices))

    def __repr__(self):
        pts = ", ".join(f"({v.x1},{v.x2})" for v in self.vertices)
        return f"ConvexPolygon[{pts}]"

    def to_json(self):
        return [v.to_json() for v in self.vertices]


def region_points(data) -> list[list[Point2]]:
    """The point lists of {"polygons": [...]}, as given (not canonicalised).
    A polygon list or a polygon that is not a list raises TypeError: iterated
    as it comes, "" or {} would read as the empty region, and an object
    would iterate its keys as points."""
    polygons = data["polygons"]
    if type(polygons) is not list:
        raise TypeError(f"polygons must be a list, got {type(polygons).__name__}")
    out = []
    for points in polygons:
        if type(points) is not list:
            raise TypeError(f"a polygon must be a list of points, got {type(points).__name__}")
        out.append([Point2.from_json(p) for p in points])
    return out


def _raw(vertices: list[Point2]) -> ConvexPolygon:
    """Construct trusting the input (already canonical counterclockwise)."""
    poly = object.__new__(ConvexPolygon)
    poly.vertices = vertices
    return poly


def _canonical(vertices: list[Point2], shown: list[Point2] | None = None) -> list[Point2]:
    """`_canonicalize(vertices)`, or GeometryError naming the points `shown`
    (by default `vertices`) when they bound no strictly convex polygon
    winding once."""
    vs = _canonicalize(vertices)
    if vs is None:
        raise GeometryError("not a strictly convex polygon winding once: "
                            f"{[str(v.x1)+','+str(v.x2) for v in (shown or vertices)]}")
    return vs


def _canonicalize(vertices: list[Point2]) -> list[Point2] | None:
    """Canonical vertex list of the polygon a cyclic point list bounds, or None.

    Repeated points and points collinear with their neighbours are merged
    away (a vertex whose turn is 0 is dropped, its two edges become one and
    its neighbours' turns are recomputed). What is left must bound a
    strictly convex polygon that winds once: every turn has the same sign,
    and the lexicographic up/down direction of the edges switches exactly
    twice around the cycle (a list turning one way throughout but winding k
    times switches 2k times). Either orientation is read; the result is
    counterclockwise and starts at the lowest vertex.  Coordinates may be
    SurdScalars or ints: an affine map of positive determinant keeps every
    turn sign and the winding, so it accepts a list exactly when it accepts
    the list's image.
    """
    vs = [p for i, p in enumerate(vertices) if p != vertices[i - 1]]
    edges = [q - p for p, q in zip(vs, vs[1:] + vs[:1])]  # vs[i] -> vs[i + 1]
    turns = [_turn(edges[i - 1], e) for i, e in enumerate(edges)]
    while len(vs) >= 3 and 0 in turns:
        i = turns.index(0)
        edges[i - 1] = edges[i - 1] + edges[i]
        del vs[i], turns[i], edges[i]
        for j in (i - 1, i % len(vs)):
            turns[j] = _turn(edges[j - 1], edges[j])
    if len(vs) < 3 or len(set(turns)) != 1:
        return None
    up = [(0, 0) < (e.x1, e.x2) for e in edges]
    if sum(u != w for u, w in zip(up, up[1:] + up[:1])) != 2:
        return None
    if turns[0] < 0:
        vs.reverse()
    return _from_lowest(vs)


def _from_lowest(vs: list[Point2]) -> list[Point2]:
    """Rotate a cyclic vertex list to start at its lexicographically smallest vertex."""
    start = min(range(len(vs)), key=lambda i: (vs[i].x1, vs[i].x2))
    return vs[start:] + vs[:start]


def shoelace(vertices: list[Point2]) -> SurdScalar:
    """Signed area (positive for counterclockwise order)."""
    total = rat(0)
    for i in range(len(vertices)):
        total = total + vertices[i].cross(vertices[(i + 1) % len(vertices)])
    return total / 2


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
    return _raw(_from_lowest(out)) if len(out) >= 3 else None


def clip(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Exact intersection of two convex polygons; None when it has zero area.

    One half-plane cut of a per edge of b; a pair that meets in zero area
    comes out None after its cuts all the same.
    """
    result: ConvexPolygon | None = a
    for p, q in b.edges():
        result = clip_halfplane(result, p, q)
        if result is None:
            return None
    return result


class Region:
    """Finite union of convex polygons whose pairwise overlaps have zero area
    (`torus.LatticeRegion.verdict` checks it)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[ConvexPolygon]):
        self.pieces = list(pieces)

    def area(self) -> SurdScalar:
        total = rat(0)
        for p in self.pieces:
            total = total + p.area()
        return total

    def translate(self, v: Point2) -> "Region":
        return Region([p.translate(v) for p in self.pieces])

    def bounding_box(self):
        """(x_min, x_max, y_min, y_max) over the vertices of every piece."""
        xs = [v.x1 for p in self.pieces for v in p.vertices]
        ys = [v.x2 for p in self.pieces for v in p.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def __repr__(self):
        return f"Region({len(self.pieces)} pieces, area {self.area()})"

    def to_json(self):
        return {"polygons": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data) -> "Region":
        """Read {"polygons": [...]} (see `region_points`)."""
        return cls([ConvexPolygon(points) for points in region_points(data)])


def rectangle(x_lo, x_hi, y_lo, y_hi) -> ConvexPolygon:
    return ConvexPolygon([pt(x_lo, y_lo), pt(x_hi, y_lo), pt(x_hi, y_hi), pt(x_lo, y_hi)])

"""Quotients of the plane by rank-2 lattices.

Exact injectivity of a bounded region modulo a lattice, decided in the
coordinates of a Lagrange-reduced basis, where a lattice vector is an
integer shift: each pair of pieces is clipped only at the shifts where
their exact boxes overlap, and the overlap area must be exactly zero
(shared edges allowed, per the open-set convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .surd import SurdScalar, rat, scalar
from .geom import AffineMap2, Point2, Region, clip, pt


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


@dataclass
class InjectivityReport:
    ok: bool
    collisions: list[tuple[tuple[int, int], SurdScalar]] = field(default_factory=list)

    def to_json(self):
        return {
            "ok": self.ok,
            "collisions": [
                {"coeffs": list(ab), "overlap": area.to_triples()}
                for ab, area in self.collisions
            ],
        }


def _reduced(g1: Point2, g2: Point2):
    """Lagrange-reduce the basis (g1, g2), keeping its orientation.

    Returns (h1, h2, c1, c2) with h_j = c_j[0]*g1 + c_j[1]*g2.  The shorter
    vector comes first, as (h1, h2) -> (h2, -h1), and h2 loses the integer
    multiple of h1 nearest to its projection, until that multiple is 0.
    """
    def dot(u, v):
        return u.x1 * v.x1 + u.x2 * v.x2

    h1, h2, c1, c2 = g1, g2, (1, 0), (0, 1)
    while True:
        if dot(h1, h1) > dot(h2, h2):
            h1, h2, c1, c2 = h2, -h1, c2, (-c1[0], -c1[1])
        k = (dot(h1, h2) / dot(h1, h1) + Fraction(1, 2)).floor()
        if not k:
            return h1, h2, c1, c2
        h2, c2 = h2 - h1.scale(k), (c2[0] - k * c1[0], c2[1] - k * c1[1])


def injects(r: Region, lattice: Lattice2) -> InjectivityReport:
    """Exact verdict: does r map injectively to the torus plane quotient?

    The work runs on a Lagrange-reduced basis h1, h2, so that a skewed
    basis costs no more than a reduced one.  In its coordinates
    a*h1 + b*h2 is the shift (a, b).  Piece q shifted by (a, b) meets
    piece p in positive area only if their boxes do: a lies strictly
    between p.umin - q.umax and p.umax - q.umin, that is in
    floor(p.umin - q.umax) + 1 .. ceil(p.umax - q.umin) - 1, and b
    likewise.  These exact differences are taken once per ordered pair,
    and only for pairs that the floors and ceilings of the piece boxes,
    taken once per piece, leave a shift; `clip` then rejects a shift by a
    separating edge before it cuts.  Shifts by v and -v overlap equally,
    so only a > 0, or a = 0 < b, is tried; each collision is reported by
    its coefficients in the given basis, signed the same way.  The map has
    determinant 1/covolume > 0, so plane areas are lattice areas times the
    covolume.
    """
    h1, h2, c1, c2 = _reduced(lattice.g1, lattice.g2)
    det = lattice.covolume()
    inv = rat(1) / det
    to_lattice = AffineMap2(((h2.x2 * inv, -h2.x1 * inv), (-h1.x2 * inv, h1.x1 * inv)),
                            pt(0, 0))
    pieces = [to_lattice.apply_polygon(p) for p in r.pieces]
    boxes = [p.bounding_box() for p in pieces]
    ints = [(u1.floor(), u2.ceil(), w1.floor(), w2.ceil()) for u1, u2, w1, w2 in boxes]
    overlaps: dict[tuple[int, int], SurdScalar] = {}
    for p, (pu1, pu2, pw1, pw2), (_, pa, _, pb) in zip(pieces, boxes, ints):
        for q, (qu1, qu2, qw1, qw2), (qa, _, qb, _) in zip(pieces, boxes, ints):
            # a < pa - qa and b < pb - qb, read off the integer boxes: skip
            # the pair when that leaves no a > 0 nor a = 0 < b
            if pa - qa < 1 or (pa - qa == 1 and pb - qb < 2):
                continue
            a_hi = (pu2 - qu1).ceil()
            b_lo, b_hi = (pw1 - qw2).floor() + 1, (pw2 - qw1).ceil()
            for a in range(max((pu1 - qu2).floor() + 1, 0), a_hi):
                for b in range(b_lo if a else max(b_lo, 1), b_hi):
                    c = clip(p, q.translate(pt(a, b)))
                    if c is not None:
                        v = (a * c1[0] + b * c2[0], a * c1[1] + b * c2[1])
                        if v < (0, 0):  # a < 0, or a = 0 > b
                            v = (-v[0], -v[1])
                        overlaps[v] = overlaps.get(v, rat(0)) + c.area()
    collisions = [(ab, area * det) for ab, area in sorted(overlaps.items())]
    return InjectivityReport(not collisions, collisions)


"""Quotients of the plane by rank-2 lattices.

Exact injectivity of a bounded region modulo a lattice, covered-fraction
computation, and fundamental-domain certification.  Injectivity is decided
by enumerating every nonzero lattice vector that could bring the region's
bounding box back onto itself and checking that the overlap area with each
translate is exactly zero (shared edges allowed, per the open-set convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .surd import SurdScalar, rat, scalar
from .geom import Point2, Region, pt, region_overlap_area


class TorusError(ValueError):
    pass


class Lattice2:
    """Rank-2 lattice spanned by two plane vectors, covolume positive."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: Point2, g2: Point2):
        if g1.cross(g2).sign() == 0:
            raise TorusError("degenerate lattice basis")
        if g1.cross(g2).sign() < 0:
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
        return cls(Point2.from_json(data["basis"][0]), Point2.from_json(data["basis"][1]))

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


def injects(r: Region, lattice: Lattice2) -> InjectivityReport:
    """Exact verdict: does r map injectively to the torus plane quotient?"""
    collisions = []
    for a, b in candidate_vectors(r, lattice):
        v = lattice.vector(a, b)
        overlap = region_overlap_area(r, r.translate(v))
        if overlap.sign() > 0:
            collisions.append(((a, b), overlap))
    return InjectivityReport(not collisions, collisions)


def covered_fraction(r: Region, lattice: Lattice2) -> SurdScalar:
    """Area of the region over the covolume; rejects regions that do not inject."""
    verdict = injects(r, lattice)
    if not verdict.ok:
        raise TorusError(f"region does not inject: {verdict.collisions[:3]}")
    return r.area() / lattice.covolume()


def is_fundamental_domain(r: Region, lattice: Lattice2) -> bool:
    return injects(r, lattice).ok and r.area() == lattice.covolume()

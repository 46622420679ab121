"""Seeded job generators for the benchmark, in pure Python.

Nothing here imports torusfill: the inputs and the expected verdicts depend
only on the seed, so a parent commit and a change always receive
byte-identical inputs and are judged against the same expectations.

A job is a `Job`: the CLI arguments (with `{name}` placeholders for input
files), the input files as bytes, and the expectation fixed before the run.
Exact scalars are written as the CLI expects them: lists of
[radicand, numerator, denominator] triples, sorted, zero coefficients
omitted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("construct", "verify", "period_lattice")

# jobs per block: each block holds the same mix of job sizes (see the generators)
BLOCK = {"construct": 84, "verify": 45, "period_lattice": 1}


@dataclass
class Job:
    kind: str
    argv: list[str]
    files: dict[str, bytes] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- exact scalars a + sum b_r sqrt(r), as {radicand: Fraction} -----------------


def triples(value: dict[int, Fraction]) -> list[list[int]]:
    return [[r, c.numerator, c.denominator] for r, c in sorted(value.items()) if c]


def s_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for r, c in y.items():
        out[r] = out.get(r, Fraction(0)) + c
    return {r: c for r, c in out.items() if c}


def s_neg(x: dict) -> dict:
    return {r: -c for r, c in x.items()}


def s_mul(x: dict, y: dict) -> dict:
    """Product for squarefree radicands: sqrt(a) sqrt(b) = g sqrt(ab / g^2)."""
    out: dict[int, Fraction] = {}
    for a, c in x.items():
        for b, e in y.items():
            g = gcd(a, b)
            r = (a // g) * (b // g)
            out[r] = out.get(r, Fraction(0)) + c * e * g
    return {r: c for r, c in out.items() if c}


def s_scale(x: dict, q: Fraction) -> dict:
    return {r: c * q for r, c in x.items() if c * q}


def s_bounds(x: dict) -> tuple[Fraction, Fraction]:
    """Rational enclosure of the real value (sqrt enclosed to 1e-6)."""
    lo = hi = Fraction(0)
    for r, c in x.items():
        if r == 1:
            lo, hi = lo + c, hi + c
            continue
        root = isqrt(r * 10 ** 12)
        slo, shi = Fraction(root, 10 ** 6), Fraction(root + 1, 10 ** 6)
        lo, hi = (lo + c * slo, hi + c * shi) if c > 0 else (lo + c * shi, hi + c * slo)
    return lo, hi


def s_independent(x: dict, y: dict) -> bool:
    """Nonzero x, y with no rational relation, i.e. not proportional."""
    r0 = next(iter(x))
    ratio = y.get(r0, Fraction(0)) / x[r0]
    return s_add(y, s_scale(x, -ratio)) != {}


# -- rational convex polygons (lattice coordinates) -----------------------------

Pt = tuple[Fraction, Fraction]


def _cross(o: Pt, a: Pt, b: Pt) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def area(poly: list[Pt]) -> Fraction:
    n = len(poly)
    return sum((poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
                for i in range(n)), Fraction(0)) / 2


def _split(poly: list[Pt], c: Pt, d: tuple[int, int]) -> tuple[list[Pt], list[Pt]]:
    """Cut a convex polygon by the line through c with direction d."""
    def side(p: Pt) -> Fraction:
        return d[0] * (p[1] - c[1]) - d[1] * (p[0] - c[0])

    left: list[Pt] = []
    right: list[Pt] = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = side(p), side(q)
        if sp >= 0:
            left.append(p)
        if sp <= 0:
            right.append(p)
        if sp * sq < 0:
            t = sp / (sp - sq)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            left.append(x)
            right.append(x)
    return left, right


def _interior(poly: list[Pt], p: Pt) -> bool:
    n = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % n], p) > 0 for i in range(n))


def jigsaw_cell(rng: random.Random, pieces: int) -> list[list[Pt]]:
    """Cut the unit cell into convex pieces by rational lines.

    Each cut splits the largest piece along a line through a point of the
    grid (1/12) Z^2 with a small integer direction, so every vertex is the
    meet of two such lines and denominators stay bounded however many cuts
    are made.
    """
    one, zero = Fraction(1), Fraction(0)
    out = [[(zero, zero), (one, zero), (one, one), (zero, one)]]
    while len(out) < pieces:
        i = max(range(len(out)), key=lambda j: area(out[j]))
        poly = out[i]
        while True:
            c = (Fraction(rng.randint(1, 11), 12), Fraction(rng.randint(1, 11), 12))
            d = (rng.randint(-3, 3), rng.randint(-3, 3))
            if d != (0, 0) and _interior(poly, c):
                break
        out[i:i + 1] = list(_split(poly, c, d))
    return out


# -- the three workloads -----------------------------------------------------------

EPS_LIMITS = {"example2": 11, "example3": 21, "theorem1": 8}  # eps = 1/n, n >= limit


def _eps_fraction(name: str, eps: Fraction) -> dict[int, Fraction]:
    """Covered fraction a^2/2 / covolume of the diamond of size a (paper)."""
    if name == "example2":
        a = Fraction(4, 3) - eps
        return {1: a * a / 2}
    if name == "example3":
        a = Fraction(7, 5) - eps
        return {1: a * a / 2}
    # theorem1: a = sqrt(2) - eps/2, a^2/2 = 1 - (eps/2) sqrt(2) + eps^2/8
    return {r: c for r, c in ((1, 1 + eps * eps / 8), (2, -eps / 2)) if c}


def construct_jobs(rng: random.Random):
    """Endless stream of `construct` jobs, in rounds of the seven constructions.

    Every round holds one job of each construction in a shuffled order;
    example2 cycles through a shuffled order of all four orientations and
    family through a shuffled order of k = 1..6, so every block of 12 rounds
    holds the same job mix for every seed and only the parameters and the
    order vary.  k for
    example1/cube/polydisc is uniform on 1..12 and eps is 0 in a third of the
    jobs, else 1/n with n uniform from the smallest allowed denominator up to
    400.
    """
    orientations: list[str] = []
    family_ks: list[int] = []
    while True:
        if not orientations:
            orientations = ["++", "+-", "-+", "--"]
            rng.shuffle(orientations)
        if not family_ks:
            family_ks = list(range(1, 7))
            rng.shuffle(family_ks)
        names = ["example1", "example2", "example3", "theorem1", "family", "cube", "polydisc"]
        rng.shuffle(names)
        for name in names:
            argv = ["construct", name]
            if name == "family":
                argv += ["--k", str(family_ks.pop())]
                frac = {1: Fraction(1)}
            elif name in ("example1", "cube", "polydisc"):
                argv += ["--k", str(rng.randint(1, 12))]
                frac = {1: Fraction(1)}
            else:
                eps = Fraction(0) if rng.randrange(3) == 0 else Fraction(
                    1, rng.randint(EPS_LIMITS[name], 400))
                argv += ["--eps", str(eps)]
                frac = _eps_fraction(name, eps)
            kind, expect = name, {"exit": 0, "fraction": triples(frac)}
            if name == "example2":
                orientation = orientations.pop()
                # the space-separated form is rejected by argparse for
                # values that start with '-'
                argv.append(f"--orientation={orientation}")
                kind = f"example2[{orientation}]"
                if orientation == "--":
                    # a failure counted, not a wrong verdict: the CLI reads
                    # --orientation=-- as [] and refuses it with exit 2
                    expect["defect_exit"] = 2
            yield Job(kind, argv, expect=expect)


def _basis(rng: random.Random, radicand: int) -> list[list[dict]]:
    """A lattice basis g1, g2: a rational matrix near the identity times a scale.

    The scale is 1 over Q and 1 + c sqrt(radicand) with c in {-1/4, 1/4, 1/2}
    otherwise.  Scaling keeps every coordinate a two-term surd without
    near-cancellations, so a job's cost follows its piece and candidate
    counts rather than the chance of a hard sign decision.
    """
    while True:
        b = [[Fraction(4 + rng.randint(0, 4), 4), Fraction(rng.randint(-2, 2), 4)],
             [Fraction(rng.randint(-2, 2), 4), Fraction(4 + rng.randint(0, 4), 4)]]
        if b[0][0] * b[1][1] != b[0][1] * b[1][0]:
            break
    scale = {1: Fraction(1)}
    if radicand > 1:
        scale[radicand] = rng.choice((Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2)))
    return [[s_scale(scale, x) for x in row] for row in b]


def _to_plane(g, p: Pt) -> tuple[dict, dict]:
    u, v = p
    return (s_add(s_scale(g[0][0], u), s_scale(g[1][0], v)),
            s_add(s_scale(g[0][1], u), s_scale(g[1][1], v)))


def plane_box(g, poly: list[Pt]):
    """Conservative plane bounding box (xlo, xhi, ylo, yhi) of a lattice polygon."""
    xs, ys = zip(*(_to_plane(g, p) for p in poly))
    xb = [s_bounds(x) for x in xs]
    yb = [s_bounds(y) for y in ys]
    return (min(b[0] for b in xb), max(b[1] for b in xb),
            min(b[0] for b in yb), max(b[1] for b in yb))


def boxes_apart(a, b) -> bool:
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def _shift(poly: list[Pt], v) -> list[Pt]:
    return [(p[0] + v[0], p[1] + v[1]) for p in poly]


def _vertex_mean(poly: list[Pt]) -> Pt:
    return (sum(p[0] for p in poly) / len(poly), sum(p[1] for p in poly) / len(poly))


def _spread(rng: random.Random, n: int, radius: int) -> list[int]:
    """n integers spread evenly over [-radius, radius], in a shuffled order."""
    out = [-radius + (2 * radius * i + (n - 1) // 2) // (n - 1) for i in range(n)]
    rng.shuffle(out)
    return out


def jigsaw(rng: random.Random, pieces: int, radius: int, radicand: int, displaced: bool):
    """A jigsaw region in lattice coordinates, its basis, and the displaced index.

    The cell's pieces are scattered by integer vectors with entries in
    [-radius, radius]; the region then tiles the torus exactly.  Each
    coordinate of the scatter vectors takes the same evenly spread values in
    a shuffled order: the number of lattice candidates, which sets the cost
    of a job, follows how far apart the pieces lie, and independent uniform
    offsets made it vary threefold within one combination.  When
    `displaced`, one piece is moved by (q - p) + mu, where p and q are
    interior points of that piece and of another piece and mu is a lattice
    vector beyond the scatter radius: the moved piece then covers q's
    neighbourhood a second time modulo the lattice (a collision), while its
    plane bounding box is clear of every other piece's, so the region stays
    valid.
    """
    cell = jigsaw_cell(rng, pieces)
    g = _basis(rng, radicand)
    offsets = zip(_spread(rng, pieces, radius), _spread(rng, pieces, radius))
    region = [_shift(p, v) for p, v in zip(cell, offsets)]
    moved = None
    if displaced:
        moved, other = rng.sample(range(pieces), 2)
        p, q = _vertex_mean(cell[moved]), _vertex_mean(cell[other])
        axis, sign = rng.randrange(2), rng.choice((-1, 1))
        lateral = rng.randint(-radius, radius)
        boxes = [plane_box(g, poly) for j, poly in enumerate(region) if j != moved]
        reach = radius + 1
        while True:
            mu = (sign * reach, lateral) if axis == 0 else (lateral, sign * reach)
            poly = _shift(cell[moved], (q[0] - p[0] + mu[0], q[1] - p[1] + mu[1]))
            box = plane_box(g, poly)
            if all(boxes_apart(box, b) for b in boxes):
                break
            reach += 1
        region[moved] = poly
    return region, g, moved


def verify_jobs(rng: random.Random):
    """Endless stream of `verify` jobs on jigsaw fundamental domains.

    Jobs come in blocks holding every combination of 2..6 pieces, scatter
    radius 0..2 and field Q, Q(sqrt 2), Q(sqrt 3) once, in a shuffled order,
    so the mix of job sizes is the same for every seed.  The 12 of these 45
    combinations whose indices sum to a multiple of 4 carry a displaced piece
    and must exit 1; fixing them per combination keeps the costlier
    displaced jobs from reshaping the mix from seed to seed.
    """
    block: list[tuple[int, int, int]] = []
    while True:
        if not block:
            block = [(p, r, f) for p in range(2, 7) for r in range(3) for f in range(3)]
            rng.shuffle(block)
        pieces, radius, field_index = block.pop()
        radicand = (1, 2, 3)[field_index]
        displaced = (pieces + radius + field_index) % 4 == 0
        region, g, _ = jigsaw(rng, pieces, radius, radicand, displaced)
        region_json = {"polygons": [
            [[triples(x), triples(y)] for x, y in (_to_plane(g, p) for p in poly)]
            for poly in region]}
        lattice_json = {"basis": [[triples(g[0][0]), triples(g[0][1])],
                                  [triples(g[1][0]), triples(g[1][1])]]}
        expect = {"exit": 1} if displaced else {"exit": 0, "fraction": [[1, 1, 1]]}
        yield Job("displaced" if displaced else "fundamental",
                  ["verify", "{region}", "--lattice-file", "{lattice}"],
                  {"region": _dumps(region_json), "lattice": _dumps(lattice_json)},
                  expect)


def random_form(rng: random.Random) -> list[dict]:
    """Upper entries of a nondegenerate irrational 4x4 alternating surd form.

    The criterion-10 distribution of the acceptance suite: each entry adds
    c*sqrt(r) with c uniform on [-4, 4], independently with probability 0.45
    for each r in {1, 2, 3, 5}; forms are redrawn until the omega^2
    coefficient b13 b24 - b14 b23 - b12 b34 is nonzero and the entries do not
    lie on one rational ray.
    """
    while True:
        upper = []
        for _ in range(6):
            value: dict[int, Fraction] = {}
            for radicand in (1, 2, 3, 5):
                if rng.random() < 0.45:
                    value = s_add(value, {radicand: Fraction(rng.randint(-4, 4))})
            upper.append(value)
        b12, b13, b14, b23, b24, b34 = upper
        volume = s_add(s_add(s_mul(b13, b24), s_neg(s_mul(b14, b23))), s_neg(s_mul(b12, b34)))
        if not volume:
            continue
        nonzero = [x for x in upper if x]
        if any(s_independent(nonzero[0], x) for x in nonzero[1:]):
            return upper


def period_lattice_jobs(rng: random.Random):
    """Endless stream of `period-lattice --bound 20` jobs on random forms."""
    while True:
        matrix = {"n": 2, "upper": [triples(x) for x in random_form(rng)]}
        yield Job("form", ["period-lattice", "{matrix}", "--bound", "20"],
                  {"matrix": _dumps(matrix)}, {"exit": 0, "conditions": 6})


def jobs(workload: str, seed: int):
    rng = random.Random(seed)
    return {"construct": construct_jobs, "verify": verify_jobs,
            "period_lattice": period_lattice_jobs}[workload](rng)

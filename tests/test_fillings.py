import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (UNIT, interior_samples, lattice_region, map_region,
                      region_overlap_area, shear_walk_failures,
                      symmetric_difference_area, theorem1_constants)
from torusfill.fillings import (
    CONSTRUCTORS,
    FillingError,
    cube_filling,
    diamond,
    example_T2k2,
    example_eight_ninths,
    example_fortynine_fiftieths,
    family_filling,
    polydisc_filling,
    theorem1_filling,
)
from torusfill.geom import ConvexPolygon, Region, pt, rectangle
from torusfill.shears import PLFunction, Shear, check_composable
from torusfill.surd import rat, sqrt
from torusfill.torus import Lattice2


def test_diamond_basics():
    assert diamond(2).area() == rat(2)
    assert diamond(Fraction(4, 3)).area() == rat(Fraction(8, 9))
    assert diamond(sqrt(2)).area() == rat(1)
    verts = diamond(2).pieces[0].vertices
    assert pt(1, 0) in verts and pt(0, 1) in verts and pt(-1, 0) in verts
    with pytest.raises(FillingError):
        diamond(0)


@pytest.mark.parametrize("eps", [0, Fraction(1, 100), Fraction(1, 17), Fraction(1, 8)], ids=str)
def test_theorem1_source_is_a_distorted_diamond(eps):
    # the rectangle (0, w) x (-1/2, 1/2), w = a - 1, a triangle on each
    # horizontal edge and a flap on each vertical one, area a^2/2
    a, h = sqrt(2) - rat(eps) / 2, rat(Fraction(1, 2))
    w = a - 1
    source = theorem1_filling(eps).source
    assert len(source.pieces) == 5
    rect, top, bottom, left, right = source.pieces
    assert rect == rectangle(0, w, -h, h)
    assert source.area() == a * a / 2
    lattice_region(source, UNIT).verdict()  # raises when two pieces overlap
    apexes = []
    for piece, base in ((top, [pt(0, h), pt(w, h)]), (bottom, [pt(0, -h), pt(w, -h)]),
                        (left, [pt(0, -h), pt(0, h)]), (right, [pt(w, -h), pt(w, h)])):
        assert len(piece.vertices) == 3 and all(v in piece.vertices for v in base)
        apexes += [v for v in piece.vertices if v not in base]
    top_apex, bottom_apex, left_apex, right_apex = apexes
    h_top, h_bot = top_apex.x2 - h, -h - bottom_apex.x2
    assert h_top > 0 and h_bot > 0 and h_top + h_bot == a - 1
    w_left, w_right = -left_apex.x1, right_apex.x1 - w
    assert w_left > 0 and w_right > 0 and w_left + w_right == 1
    assert all(0 <= p.x1 <= w for p in (top_apex, bottom_apex))
    assert all(-h <= p.x2 <= h for p in (left_apex, right_apex))
    if eps == 0:
        c = theorem1_constants()
        assert (h_top, h_bot) == (c["h_t"], c["h_b"])


def test_example1_k1_parallelogram():
    cert = example_T2k2(1)
    expected = ConvexPolygon([pt(-1, 0), pt(1, 1), pt(1, 0), pt(-1, -1)])
    assert symmetric_difference_area(cert.final, Region([expected])).is_zero()
    assert cert.valid and cert.verdict.fraction == rat(1) and cert.verdict.fundamental_domain


def test_example1_k3_vertices_and_fraction():
    cert = example_T2k2(3)
    verts = cert.final.pieces[0].vertices
    for v in (pt(-3, 0), pt(3, 0), pt(15, 3), pt(-15, -3)):
        assert v in verts
    assert cert.verdict.fraction == rat(1)
    assert cert.lattice.covolume() == rat(18)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_example1_long_edges_vertical_distance_one(k):
    cert = example_T2k2(k)
    verts = set(cert.final.pieces[0].vertices)
    # top edge through (-k, 0) and (2k^2-k, k); bottom edge through
    # (-2k^2+k, -k) and (k, 0); at x1 = 0 their heights differ by exactly 1
    top = [pt(-k, 0), pt(2 * k * k - k, k)]
    bot = [pt(-2 * k * k + k, -k), pt(k, 0)]
    assert all(v in verts for v in top + bot)
    slope = (top[1].x2 - top[0].x2) / (top[1].x1 - top[0].x1)
    top_at0 = top[0].x2 - slope * top[0].x1
    bot_at0 = bot[0].x2 - slope * bot[0].x1
    assert top_at0 - bot_at0 == rat(1)


@pytest.mark.parametrize("orientation", ["++", "+-", "-+", "--"])
def test_example2_schematic(orientation):
    cert = example_eight_ninths(0, orientation)
    assert cert.valid
    assert cert.verdict.fraction == rat(Fraction(8, 9))
    uncovered = rat(1) - cert.verdict.fraction
    assert uncovered == 4 * rat(Fraction(1, 6)) ** 2


def test_example2_point_reflection_pair():
    plus = example_eight_ninths(0, "++").final
    minus = example_eight_ninths(0, "--").final
    assert symmetric_difference_area(map_region(lambda p: -p, plus), minus).is_zero()


def test_example2_eps_variants():
    cert = example_eight_ninths(Fraction(1, 100), "++")
    assert cert.valid
    assert cert.verdict.fraction >= rat(Fraction(83, 100))
    eps = Fraction(1, 100)
    assert cert.verdict.fraction == rat((Fraction(4, 3) - eps) ** 2 / 2)
    assert cert.verdict.fraction >= rat(Fraction(8, 9) - 5 * eps)
    with pytest.raises(FillingError):
        example_eight_ninths(Fraction(1, 10), "++")
    with pytest.raises(FillingError):
        example_eight_ninths(0, "+*")


def test_example3_schematic():
    cert = example_fortynine_fiftieths(0)
    assert cert.valid
    assert cert.verdict.fraction == rat(Fraction(49, 50))
    assert rat(1) - cert.verdict.fraction == rat(Fraction(1, 50))
    # ball-volume consistency: a^2/2 equals the covered fraction
    assert cert.source_area == rat(Fraction(49, 50))


def test_example3_fitting_and_freed_triangles():
    cert = example_fortynine_fiftieths(0)
    # the sheared top triangle: width 2/5, height 1/5 (the "fitting" one)
    fitting = ConvexPolygon([pt(Fraction(-2, 5), 1), pt(0, 1),
                             pt(Fraction(-1, 10), Fraction(6, 5))])
    assert any(p == fitting for p in cert.final.pieces)
    # the uncovered set is exactly two triangle-pairs of total area 1/50:
    # each pair is (freed width 1/2) minus (fitting width 2/5) at height 1/5
    gap_bottom = ConvexPolygon([pt(Fraction(1, 2), 0), pt(Fraction(3, 5), 0),
                                pt(Fraction(9, 10), Fraction(1, 5))])
    gap_top = ConvexPolygon([pt(Fraction(4, 5), 1), pt(Fraction(9, 10), 1),
                             pt(Fraction(1, 2), Fraction(4, 5))])
    gaps = Region([gap_bottom, gap_top])
    assert gaps.area() == rat(Fraction(1, 50))
    lattice = Lattice2.rectangular(1, 1)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            shifted = cert.final.translate(lattice.vector(a, b))
            assert region_overlap_area(gaps, shifted).is_zero()


def test_example3_eps_variant_and_bounds():
    cert = example_fortynine_fiftieths(Fraction(1, 100))
    assert cert.valid
    assert cert.verdict.fraction == rat((Fraction(7, 5) - Fraction(1, 100)) ** 2 / 2)
    with pytest.raises(FillingError):
        example_fortynine_fiftieths(Fraction(1, 20))


def test_theorem1_identities():
    c = theorem1_constants()
    b = c["b"]
    assert (b * b - 6 * b + 1).is_zero()
    assert c["h_t"] == rat(1) - sqrt(2) / 2
    assert c["h_b"] == 3 * sqrt(2) / 2 - 2
    assert c["h_t"] + c["h_b"] == (1 - b) / 2
    assert c["h_t"] + c["h_b"] == 2 * b / (1 - b)
    assert rat(1) - c["ell"] == 2 * b / (1 - b)
    # numeric spot checks of the closed forms
    assert c["h_t"].decimal(5) == "0.29289"
    assert c["h_b"].decimal(5) == "0.12132"
    assert (c["h_t"] + c["h_b"]).decimal(5) == "0.41421"


def test_theorem1_schematic_full_filling():
    cert = theorem1_filling(0)
    assert cert.valid
    assert cert.verdict.fraction == rat(1)
    assert cert.verdict.fundamental_domain
    assert cert.source_area == rat(1)  # a^2/2 for a = sqrt 2
    # re-checkable: the recorded final region still injects and tiles
    assert lattice_region(cert.final, cert.lattice).verdict().injective
    assert check_composable(cert.source, cert.shears).ok


def test_theorem1_eps_sequence():
    fractions = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        cert = theorem1_filling(eps)
        assert cert.valid
        fractions.append(cert.verdict.fraction)
    assert fractions[0] < fractions[1] < fractions[2]
    assert fractions[2] >= rat(Fraction(99, 100))
    with pytest.raises(FillingError):
        theorem1_filling(Fraction(1, 4))


def test_theorem1_ball_volume_consistency():
    for eps in (0, Fraction(1, 100)):
        cert = theorem1_filling(eps)
        assert cert.verdict.fraction * cert.lattice.covolume() == cert.source_area


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_full_fillings(k):
    cert = family_filling(k)
    assert cert.valid
    assert cert.verdict.fraction == rat(1)
    assert cert.verdict.fundamental_domain
    mu = Fraction((2 * k + 1) ** 2, 2 * (k + 1) ** 2)
    assert cert.lattice.covolume() == rat(mu)
    assert cert.source_area == rat(mu)


def test_family_k1_is_the_nine_eighths_filling():
    cert = family_filling(1)
    assert cert.lattice.covolume() == rat(Fraction(9, 8))


def test_family_k2_slice_heights():
    cert = family_filling(2)
    x1 = next(s for s in cert.shears if s.axis == "x1")
    tops = [b for b in x1.f.breakpoints if b >= rat(1)]
    # slice boundaries above x2 = 1 at cumulative heights 1/9, then the apex
    assert tops == [rat(1), rat(1) + rat(Fraction(1, 9))]
    heights = [Fraction(1, 9), Fraction(2, 9)]
    assert sum(heights, Fraction(0)) == Fraction(1, 3)  # triangle height d/2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cube_fillings(k):
    cert = cube_filling(k)
    assert cert.valid
    assert cert.verdict.fundamental_domain
    assert cert.lattice.covolume() == rat(k * k)


def test_cube_k2_span():
    cert = cube_filling(2)
    x_lo, x_hi, _, _ = cert.final.bounding_box()
    assert (x_lo, x_hi) == (rat(-3), rat(3))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polydisc_fillings(k):
    cert = polydisc_filling(k)
    assert cert.valid
    assert cert.verdict.fraction == rat(1)
    assert cert.lattice.covolume() == rat(1)


def test_eps_monotonicity_within_ranges():
    for ctor, eps_values in [
        (example_eight_ninths, (Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000))),
        (example_fortynine_fiftieths, (Fraction(1, 30), Fraction(1, 100), Fraction(1, 1000))),
    ]:
        fracs = [ctor(eps).verdict.fraction for eps in eps_values]
        assert fracs[0] < fracs[1] < fracs[2]


def test_certificate_json_round_trip():
    cert = example_fortynine_fiftieths(0)
    blob = cert.to_json()
    assert blob["valid"] and blob["is_fundamental_domain"] is False
    final = check_composable(Region.from_json(blob["source"]),
                             [Shear.from_json(s) for s in blob["shears"]]).final
    assert symmetric_difference_area(final, cert.final).is_zero()
    assert final.to_json() == blob["final"]  # the same pieces, vertex for vertex
    again = Region.from_json(blob["final"])
    assert symmetric_difference_area(again, cert.final).is_zero()


def test_invalid_parameters():
    for ctor in (example_T2k2, family_filling, cube_filling, polydisc_filling):
        with pytest.raises(FillingError):
            ctor(0)


@pytest.mark.parametrize("ctor,eps", [
    (example_eight_ninths, Fraction(99, 1000)),
    (example_fortynine_fiftieths, Fraction(1, 21)),
    (theorem1_filling, Fraction(1, 8)),
])
def test_constructions_valid_at_domain_edges(ctor, eps):
    cert = ctor(eps)
    assert cert.valid


def test_family_generalizes_beyond_small_k():
    cert = family_filling(5)
    assert cert.valid and cert.verdict.fundamental_domain
    assert cert.lattice.covolume() == rat(Fraction(121, 72))


# which shears carry jumps, as the certificate JSON records them: a "jumps"
# key marks a shear with a jump discontinuity, by shear in sequence order
JUMP_SHEARS = [
    *[("example1", {"k": k}, [False]) for k in (1, 2)],
    *[("example2", {"eps": eps}, [False, False]) for eps in (0, Fraction(1, 100))],
    ("example3", {"eps": 0}, [False, True]),
    ("example3", {"eps": Fraction(1, 100)}, [False, False]),
    *[("theorem1", {"eps": eps}, [False, True]) for eps in (0, Fraction(1, 100), Fraction(1, 8))],
    *[("family", {"k": k}, [False, True]) for k in (1, 2, 3)],
    *[(name, {"k": k}, [False]) for name in ("cube", "polydisc") for k in (1, 2)],
]


@pytest.mark.parametrize("name, params, jumps", JUMP_SHEARS, ids=[
    f"{name}-{key}={value}" for name, params, _ in JUMP_SHEARS for key, value in params.items()])
def test_which_constructions_carry_jump_shears(name, params, jumps):
    shears = CONSTRUCTORS[name](**params).to_json()["shears"]
    assert ["jumps" in shear for shear in shears] == jumps


CONSTRUCT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "construct_golden.json").read_text())["cases"]


def golden_walk(case):
    """(source, shears, final) of a golden certificate, read from its JSON."""
    blob = json.loads(case["stdout"])
    return (Region.from_json(blob["source"]), [Shear.from_json(s) for s in blob["shears"]],
            Region.from_json(blob["final"]))


@pytest.mark.parametrize("case", CONSTRUCT_GOLDEN, ids=lambda case: " ".join(case["argv"][1:]))
def test_golden_shears_as_point_maps_give_the_final_region(case):
    assert shear_walk_failures(*golden_walk(case)) == []


@pytest.mark.parametrize("case", CONSTRUCT_GOLDEN, ids=lambda case: " ".join(case["argv"][1:]))
def test_point_map_oracle_fails_a_changed_slope(case):
    # the first shear's slope, one more on the slab of the first source
    # sample, against the final region of the unchanged shears
    source, shears, final = golden_walk(case)
    shear, p = shears[0], interior_samples(source.pieces[0], 1)[0]
    f = shear.f
    c = p.x2 if shear.axis == "x1" else p.x1
    i = sum(b < c for b in f.breakpoints)
    slopes = f.slopes[:i] + [f.slopes[i] + 1] + f.slopes[i + 1:]
    changed = Shear(shear.axis, PLFunction(f.breakpoints, slopes, f.anchor, f.jumps))
    assert shear_walk_failures(source, [changed] + shears[1:], final) != []

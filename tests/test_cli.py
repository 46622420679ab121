import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JIGSAWS, surds, triples_of, written
from test_latforms import snf_paired_divisors

import torusfill
import torusfill.surd as surd_module
from torusfill.cli import _json_text, main, render_svg
from torusfill.fillings import example_T2k2
from torusfill.geom import Region
from torusfill.latforms import _det_int
from torusfill.surd import SurdScalar, rat, sqrt


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_verify_example1(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    region_file = tmp_path / "region.json"
    code, _, _ = run_cli(["construct", "example1", "--k", "3",
                          "--cert-out", str(cert_file), "--out", str(region_file)],
                         capsys)
    assert code == 0
    cert = json.loads(cert_file.read_text())
    assert cert["valid"] and cert["is_fundamental_domain"]

    code, out, _ = run_cli(["verify", str(region_file), "--lattice", "18", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"injective": True, "fundamental_domain": True}
    assert report["covered_fraction_decimal"].startswith("1.000000")


def test_verify_translation_invariance(tmp_path, capsys):
    cert = example_T2k2(2)
    region_file = tmp_path / "region.json"
    shifted_file = tmp_path / "shifted.json"
    region_file.write_text(_json_text(cert.final.to_json()))
    from torusfill.geom import pt
    shifted = cert.final.translate(pt(Fraction(1, 3), 0))
    shifted_file.write_text(_json_text(shifted.to_json()))
    code1, out1, _ = run_cli(["verify", str(region_file), "--lattice", "8", "1"], capsys)
    code2, out2, _ = run_cli(["verify", str(shifted_file), "--lattice", "8", "1"], capsys)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["verdicts"] == r2["verdicts"]
    assert r1["covered_fraction"] == r2["covered_fraction"]


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = {"polygons": [[[[ [1, 0, 1] ], [[1, 0, 1]]],
                         [[[1, 3, 1]], [[1, 0, 1]]],
                         [[[1, 3, 1]], [[1, 1, 2]]],
                         [[[1, 0, 1]], [[1, 1, 2]]]]]}
    region_file = tmp_path / "wide.json"
    region_file.write_text(json.dumps(bad))
    code, out, _ = run_cli(["verify", str(region_file), "--lattice", "1", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert not report["verdicts"]["injective"]
    assert report["collisions"]


def test_verify_large_prime_radicand_finishes(tmp_path):
    # a vertex at sqrt(2^31 - 1)/46340, just right of x1 = 1: clipping against
    # the (1, 0) translate divides by surds in sqrt(p), whose inverse once
    # factored p*p by trial division and never returned
    p = 2**31 - 1
    zero, one = [[1, 0, 1]], [[1, 1, 1]]
    region = {"polygons": [[[zero, zero], [[[p, 1, 46340]], zero], [zero, one]]]}
    region_file = tmp_path / "prime.json"
    region_file.write_text(json.dumps(region))
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", "verify", str(region_file),
         "--lattice", "1", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["verdicts"]["injective"] == (proc.returncode == 0)


def test_verify_two_large_prime_radicands_finishes(tmp_path):
    # legs sqrt(2^31 - 1)/46340 and sqrt(2147483629)/46340, both primes: the
    # clips divide by surds in sqrt(p*q), whose inverse once factored p*q by
    # trial division and never returned
    zero = [[1, 0, 1]]
    legs = [[[2**31 - 1, 1, 46340]], [[2147483629, 1, 46340]]]
    region = {"polygons": [[[zero, zero], [legs[0], zero], [zero, legs[1]]]]}
    region_file = tmp_path / "two_primes.json"
    region_file.write_text(json.dumps(region))
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", "verify", str(region_file),
         "--lattice", "1", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verdicts"]["injective"] is False


def test_verify_rejects_radicand_beyond_bound(tmp_path):
    # 2^61 - 1 is prime: factoring it by trial division once ran for hours
    zero, one = [[1, 0, 1]], [[1, 1, 1]]
    region = {"polygons": [[[zero, zero], [[[2**61 - 1, 1, 1]], zero], [zero, one]]]}
    region_file = tmp_path / "huge.json"
    region_file.write_text(json.dumps(region))
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", "verify", str(region_file),
         "--lattice", "1", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "radicand" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["verify", "{nested}", "--lattice", "1", "1"],
    ["verify", "{square}", "--lattice-file", "{nested}"],
    ["period-lattice", "{nested}"],
    ["type", "{nested}"],
    ["svg", "{nested}", "--lattice", "1", "1", "--out", "{out}"],
], ids=["verify", "verify-lattice-file", "period-lattice", "type", "svg"])
def test_deeply_nested_json_exits_two(tmp_path, argv):
    # json raises RecursionError on 100,000 nested lists; exit 1 would claim
    # a failed verification, so it must read as malformed input
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    square = tmp_path / "square.json"
    square.write_text(json.dumps(SQUARE))
    names = {"nested": str(nested), "square": str(square), "out": str(tmp_path / "out.svg")}
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", *(a.format(**names) for a in argv)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_malformed_input_exit_code(tmp_path, capsys):
    bad_file = tmp_path / "broken.json"
    bad_file.write_text("{not json")
    code, _, err = run_cli(["verify", str(bad_file), "--lattice", "1", "1"], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["verify", str(bad_file), "--lattice", "0", "1"], capsys)
    assert code == 2  # degenerate lattice is malformed input too


SQUARE = {"polygons": [[[[[1, 0, 1]], []], [[[1, 1, 1]], []], [[[1, 1, 1]], [[1, 1, 1]]],
                        [[], [[1, 1, 1]]]]]}
SURD_FORM = {"n": 2, "upper": [[[1, 0, 1]], [[1, 1, 1]], [[2, 1, 1]],
                               [[1, -1, 1]], [[1, -1, 1]], [[1, 0, 1]]]}
# the unit square with the x-coordinate of (1, 0) written with radicand 1.5,
# which int() would have truncated to the valid square
FLOAT_RADICAND_SQUARE = {"polygons": [[SQUARE["polygons"][0][0], [[[1.5, 1, 1]], []],
                                       *SQUARE["polygons"][0][2:]]]}
# JSON true is not the integer 1: the square with x = [1, true, 1] at (1, 0),
# and the surd form with the entry sqrt(2) written [2, 1, true]
BOOL_NUMERATOR_SQUARE = {"polygons": [[SQUARE["polygons"][0][0], [[[1, True, 1]], []],
                                       *SQUARE["polygons"][0][2:]]]}
BOOL_DENOMINATOR_FORM = {"n": 2, "upper": [*SURD_FORM["upper"][:2], [[2, 1, True]],
                                           *SURD_FORM["upper"][3:]]}
# the unit square with a third coordinate at (1, 1); and the unit lattice
# with a third basis vector, stored beside the square so that one file is
# both the region and the lattice
THREE_COORDINATE_SQUARE = {"polygons": [[*SQUARE["polygons"][0][:2],
                                         [[[1, 1, 1]], [[1, 1, 1]], [[1, 5, 1]]],
                                         SQUARE["polygons"][0][3]]]}
THREE_VECTOR_BASIS = {**SQUARE, "basis": [[[[1, 1, 1]], []], [[], [[1, 1, 1]]],
                                          [[[1, 1, 1]], [[1, 1, 1]]]]}


def blank_zeros(data, blank):
    """data with every zero scalar (the empty triple list) written as blank."""
    return json.loads(json.dumps(data).replace("[]", json.dumps(blank)))


# a scalar must be a list of triples: "" and {} iterate as no triples, and
# were read as 0, so these passed for the unit square and its lattice
UNIT_BASIS = {"basis": [[[[1, 1, 1]], []], [[], [[1, 1, 1]]]]}
EMPTY_STRING_SQUARE = blank_zeros(SQUARE, "")
EMPTY_OBJECT_SQUARE = blank_zeros(SQUARE, {})
EMPTY_STRING_BASIS = {**SQUARE, **blank_zeros(UNIT_BASIS, "")}
EMPTY_OBJECT_BASIS = {**SQUARE, **blank_zeros(UNIT_BASIS, {})}
BLANK_ENTRY_FORM = {"n": 2, "upper": [{}, *SURD_FORM["upper"][1:5], ""]}
# polygons and a basis must be lists too: "" and {} iterated as the empty
# region, which verified as injective; an object basis failed on its key 0
OBJECT_BASIS = {**SQUARE, "basis": dict(enumerate(UNIT_BASIS["basis"]))}
# a point and a polygon must be lists: a point written {"0": x, "1": y}
# failed on its key 0, and a polygon written as an object read its keys
OBJECT_POINT_SQUARE = {"polygons": [[{str(i): c for i, c in enumerate(SQUARE["polygons"][0][0])},
                                     *SQUARE["polygons"][0][1:]]]}
OBJECT_POLYGON_SQUARE = {"polygons": [{str(i): p for i, p in enumerate(SQUARE["polygons"][0])}]}
# a matrix file must be an object and its upper entries a list: an object
# was read by its keys, so one key gave "needs 6 upper entries, got 1"
OBJECT_UPPER_FORM = {"n": 2, "upper": {"a": 1}}
SIX_KEY_UPPER_FORM = {"n": 2, "upper": dict(enumerate(SURD_FORM["upper"]))}


@pytest.mark.parametrize("argv, data", [
    (["verify", "{input}", "--lattice", "1", "1"], {"polygons": 5}),
    (["verify", "{input}", "--lattice", "1", "1"], [SQUARE]),
    (["period-lattice", "{input}"], {"n": 2, "upper": [[[1, 1, 0]]] + SURD_FORM["upper"][1:]}),
    (["verify", "{input}", "--lattice", "1", "1", "--out", "{missing}"], SQUARE),
    (["period-lattice", "{input}", "--bound", "-1"], SURD_FORM),
    (["period-lattice", "{input}", "--bound", "0"], SURD_FORM),
    (["verify", "{input}", "--lattice", "1", "1"], FLOAT_RADICAND_SQUARE),
    (["type", "{input}"], {"n": 0, "upper": []}),
    (["type", "{input}"], {"n": 2, "upper": [True, 0, 0, 0, 0, 3]}),
    (["verify", "{input}", "--lattice", "1", "1"], BOOL_NUMERATOR_SQUARE),
    (["period-lattice", "{input}"], BOOL_DENOMINATOR_FORM),
    # omega^2 = b13 b24 - b14 b23 - b12 b34 = 0 with b12 = sqrt 2
    (["period-lattice", "{input}"], {"n": 2, "upper": [[[2, 1, 1]], 0, 0, 0, 0, 0]}),
    # b12 = 1 and b34 = 2 written as triples: nondegenerate but rational
    (["period-lattice", "{input}"], {"n": 2, "upper": [[[1, 1, 1]], 0, 0, 0, 0, [[1, 2, 1]]]}),
    (["verify", "{input}", "--lattice", "1", "1"], THREE_COORDINATE_SQUARE),
    (["verify", "{input}", "--lattice-file", "{input}"], THREE_VECTOR_BASIS),
    (["verify", "{input}", "--lattice", "1", "1"], EMPTY_STRING_SQUARE),
    (["verify", "{input}", "--lattice", "1", "1"], EMPTY_OBJECT_SQUARE),
    (["verify", "{input}", "--lattice-file", "{input}"], EMPTY_STRING_BASIS),
    (["verify", "{input}", "--lattice-file", "{input}"], EMPTY_OBJECT_BASIS),
    (["period-lattice", "{input}"], BLANK_ENTRY_FORM),
    (["svg", "{input}", "--lattice", "1", "1", "--out", "{out}"], EMPTY_STRING_SQUARE),
    (["svg", "{input}", "--lattice-file", "{input}", "--out", "{out}"], EMPTY_OBJECT_BASIS),
    (["verify", "{input}", "--lattice", "1", "1"], {"polygons": {}}),
    (["verify", "{input}", "--lattice", "1", "1"], {"polygons": ""}),
    (["svg", "{input}", "--lattice", "1", "1", "--out", "{out}"], {"polygons": {}}),
    (["verify", "{input}", "--lattice-file", "{input}"], OBJECT_BASIS),
    (["verify", "{input}", "--lattice", "1", "1"], OBJECT_POINT_SQUARE),
    (["verify", "{input}", "--lattice", "1", "1"], OBJECT_POLYGON_SQUARE),
    (["type", "{input}"], [1, 2]),
    (["period-lattice", "{input}"], [1, 2]),
    (["type", "{input}"], OBJECT_UPPER_FORM),
    (["period-lattice", "{input}"], SIX_KEY_UPPER_FORM),
], ids=["polygons-not-a-list", "top-level-list", "zero-denominator", "unwritable-out",
        "negative-bound", "zero-bound", "float-radicand", "type-n-zero", "type-bool-entry",
        "bool-numerator", "bool-denominator", "degenerate-surd-form", "rational-surd-form",
        "three-coordinate-point", "three-vector-basis", "empty-string-scalar",
        "empty-object-scalar", "empty-string-scalar-in-basis", "empty-object-scalar-in-basis",
        "blank-surd-form-entries", "svg-empty-string-scalar", "svg-empty-object-scalar-in-basis",
        "empty-object-polygons", "empty-string-polygons", "svg-empty-object-polygons",
        "object-basis", "object-point", "object-polygon", "type-matrix-list",
        "period-lattice-matrix-list", "type-object-upper", "period-lattice-six-key-upper"])
def test_malformed_input_exits_two(tmp_path, capsys, argv, data):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(data))
    names = {"input": str(input_file), "missing": str(tmp_path / "no-such-dir" / "x.json"),
             "out": str(tmp_path / "out.svg")}
    code, _, err = run_cli([a.format(**names) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_object_basis_error_names_the_basis(tmp_path, capsys):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(OBJECT_BASIS))
    code, out, err = run_cli(["verify", str(input_file), "--lattice-file", str(input_file)],
                             capsys)
    assert code == 2 and out == ""
    assert "basis must be a list" in err


@pytest.mark.parametrize("data, message", [
    (OBJECT_POINT_SQUARE, "a point must be a list, got dict"),
    (OBJECT_POLYGON_SQUARE, "a polygon must be a list of points, got dict"),
], ids=["point", "polygon"])
def test_object_point_or_polygon_error_names_it(tmp_path, capsys, data, message):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", str(input_file), "--lattice", "1", "1"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {input_file}: {message}\n"


@pytest.mark.parametrize("command, data, message", [
    ("type", [1, 2], "matrix JSON needs an object with fields 'n' and 'upper'"),
    ("type", OBJECT_UPPER_FORM, "'upper' must be a list, got dict"),
    ("period-lattice", SIX_KEY_UPPER_FORM, "'upper' must be a list, got dict"),
    ("type", {"n": 0, "upper": []}, "'n' must be a positive integer, got 0"),
    ("type", {"n": 2, "upper": [1, 2, 3]}, "n=2 needs 6 upper entries, got 3"),
    ("type", {"n": 2, "upper": [1, 0, 0, 0, 0, 0]}, "matrix is degenerate"),
    ("type", {"n": 2, "upper": [[[1, 1, 1]], 0, 0, 0, 0, [[2, 1, 1]]]},
     "polarization type needs an integer matrix"),
    ("period-lattice", {"n": 2, "upper": [1, 0, 0, 0, 0, 1]},
     "period-lattice needs a surd-valued 4x4 matrix"),
    ("period-lattice", {"n": 2, "upper": [[[0, 1, 1]], 0, 0, 0, 0, [[2, 1, 1]]]},
     "radicand must be positive, got 0"),
    ("type", {"n": 2, "upper": [[[2**32 + 1, 1, 1]], 0, 0, 0, 0, [[2, 1, 1]]]},
     "radicands must be below 2**32"),
], ids=["list", "object-upper", "six-key-upper", "n-zero", "short-upper", "degenerate",
        "surd-for-type", "integer-for-period-lattice", "zero-radicand", "huge-radicand"])
def test_matrix_error_names_the_file(tmp_path, capsys, command, data, message):
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(data))
    code, out, err = run_cli([command, str(matrix_file)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {matrix_file}: {message}\n"


COLLINEAR_SQUARE = {"polygons": [[[[[1, x, 1]], [[1, 0, 1]]] for x in (0, 1, 2)]]}
OVERLAPPING_SQUARES = {"polygons": SQUARE["polygons"] * 2}
ZERO_RADICAND_SQUARE = {"polygons": [[[[[0, 1, 1]], [[1, 0, 1]]]] + SQUARE["polygons"][0][1:]]}
HUGE_RADICAND_SQUARE = {"polygons": [[[[[2**32 + 1, 1, 1]], [[1, 0, 1]]]]
                                     + SQUARE["polygons"][0][1:]]}


@pytest.mark.parametrize("region, lattice, faulty, message", [
    (THREE_COORDINATE_SQUARE, UNIT_BASIS, "region", "a point has two coordinates, got 3"),
    (COLLINEAR_SQUARE, UNIT_BASIS, "region",
     "not a strictly convex polygon winding once: ['0,0', '1,0', '2,0']"),
    (OVERLAPPING_SQUARES, UNIT_BASIS, "region", "region pieces 0 and 1 overlap"),
    (SQUARE, THREE_VECTOR_BASIS, "lattice", "a lattice basis has two vectors, got 3"),
    ({}, UNIT_BASIS, "region", "'polygons'"),
    (SQUARE, {}, "lattice", "'basis'"),
    (b'{"polygons": "\xff"}', UNIT_BASIS, "region",
     "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
    (ZERO_RADICAND_SQUARE, UNIT_BASIS, "region", "radicand must be positive, got 0"),
    (HUGE_RADICAND_SQUARE, UNIT_BASIS, "region", "radicands must be below 2**32"),
], ids=["three-coordinate-point", "collinear-polygon", "overlapping-pieces",
        "three-vector-basis", "no-polygons-key", "no-basis-key", "not-utf-8", "zero-radicand",
        "huge-radicand"])
def test_verify_error_names_the_faulty_file(tmp_path, capsys, region, lattice, faulty, message):
    # the region and the lattice come from two files; the message says which
    # one is at fault, also for the polygon and overlap checks that run on
    # lattice coordinates once both are read
    files = {"region": tmp_path / "region.json", "lattice": tmp_path / "lattice.json"}
    for name, data in (("region", region), ("lattice", lattice)):
        files[name].write_bytes(data if type(data) is bytes else json.dumps(data).encode())
    code, out, err = run_cli(["verify", str(files["region"]),
                              "--lattice-file", str(files["lattice"])], capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {files[faulty]}: {message}\n"


def test_file_with_a_byte_order_mark_names_it(tmp_path, capsys):
    # input is decoded as UTF-8, not UTF-8-SIG: the mark is malformed input
    region_file = tmp_path / "region.json"
    region_file.write_bytes(b'\xef\xbb\xbf{"polygons": []}')
    code, out, err = run_cli(["verify", str(region_file), "--lattice", "1", "1"], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: cannot read {region_file}: Unexpected UTF-8 BOM "
                   "(decode using utf-8-sig): line 1 column 1 (char 0)\n")


def test_empty_polygon_list_is_the_empty_region(tmp_path, capsys):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps({"polygons": []}))
    code, out, _ = run_cli(["verify", str(input_file), "--lattice", "1", "1"], capsys)
    report = json.loads(out)
    assert code == 0 and report["verdicts"]["injective"] is True
    assert report["area"] == [] and report["covered_fraction_decimal"] == "0." + "0" * 30


def test_verify_rejects_star_polygon(tmp_path, capsys):
    # the pentagram turns left at every vertex but winds twice; read as one
    # convex piece it counted the central pentagon twice (area 152)
    star = [[[[1, x, 1]], [[1, y, 1]]] for x, y in
            [(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)]]
    region_file = tmp_path / "star.json"
    region_file.write_text(json.dumps({"polygons": [star]}))
    code, out, err = run_cli(["verify", str(region_file), "--lattice", "20", "20"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "winding once" in err and "Traceback" not in err


def test_construct_example2_orientation_minus_minus(capsys):
    # argparse strips the literal value "--"; the command must still build it
    code, out, _ = run_cli(["construct", "example2", "--orientation=--"], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["valid"] is True
    assert SurdScalar.from_triples(cert["fraction"]) == Fraction(8, 9)


@pytest.mark.parametrize("argv", [
    ["construct", "cube", "--eps", "1/10"],
    ["construct", "theorem1", "--k", "3"],
    ["construct", "family", "--k", "2", "--orientation=-+"],
    ["construct", "example3", "--orientation=--"],
], ids=lambda argv: " ".join(argv[1:]))
def test_construct_rejects_options_its_construction_does_not_take(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    # an option left out takes the constructor's own default
    [golden] = [case for case in CONSTRUCT_GOLDEN["cases"]
                if case["argv"] == ["construct", "example1", "--k", "1"]]
    code, out, _ = run_cli(["construct", "example1"], capsys)
    assert code == golden["exit"] and out == golden["stdout"]


def test_seshadri_csv(capsys):
    code, out, _ = run_cli(["seshadri", "--dmax", "30", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,k0,l0,p_lower"
    assert len(lines) == 31
    assert lines[11] == "11,42,197,38808/38809"
    assert lines[2] == "2,,,1"


def test_seshadri_json(capsys):
    code, out, _ = run_cli(["seshadri", "--dmax", "3", "--format", "json"], capsys)
    rows = json.loads(out)
    assert code == 0
    assert rows[0] == {"d": 1, "k0": 2, "l0": 3, "epsilon": "4/3", "p_lower": "8/9"}


def test_pell_command(capsys):
    code, out, _ = run_cli(["pell", "46"], capsys)
    assert code == 0
    assert json.loads(out) == {"N": 46, "k0": 3588, "l0": 24335}
    code, _, err = run_cli(["pell", "49"], capsys)
    assert code == 2


SESHADRI_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "seshadri_golden.json").read_text())


@pytest.mark.parametrize("case", SESHADRI_GOLDEN["cases"],
                         ids=lambda case: " ".join(case["argv"]))
def test_seshadri_and_pell_match_golden_bytes(capsys, case):
    # The golden file holds the full stdout of `seshadri --dmax 30` in the
    # table, csv and json formats, and of `pell 46`, recorded before the
    # three formats were built from one list of rows.  A change to these
    # bytes must be deliberate: regenerate the file and say why.
    code, out, _ = run_cli(case["argv"], capsys)
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize("argv", [
    ["verify", "{input}"],
    ["svg", "{input}", "--out", "{out}"],
], ids=["verify", "svg"])
def test_lattice_is_required(tmp_path, capsys, argv):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(SQUARE))
    names = {"input": str(input_file), "out": str(tmp_path / "out.svg")}
    code, out, err = run_cli([a.format(**names) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err == "error: a lattice is required (--lattice MU1 MU2 or --lattice-file)\n"
    assert not (tmp_path / "out.svg").exists()


def test_type_command(tmp_path, capsys):
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps({"n": 2, "upper": [2, 0, 0, 0, 0, 3]}))
    code, out, _ = run_cli(["type", str(matrix_file)], capsys)
    assert code == 0
    assert json.loads(out)["type"] == [1, 6]


def test_type_prints_a_unimodular_base_change_to_its_blocks(tmp_path, capsys):
    # read back from the printed JSON alone: U is an integer matrix with
    # |det U| = 1, U^T B U is the block-diagonal form of the printed type, and
    # the type is the Smith normal form's divisor chain
    rng = random.Random(15)
    matrix_file = tmp_path / "matrix.json"
    checked = 0
    while checked < 90:
        dim = (2, 4, 6)[checked % 3]
        upper = [rng.randint(-30, 30) for _ in range(dim * (dim - 1) // 2)]
        b = [[0] * dim for _ in range(dim)]
        it = iter(upper)
        for i in range(dim):
            for j in range(i + 1, dim):
                b[i][j] = next(it)
                b[j][i] = -b[i][j]
        if not _det_int(b):
            continue
        matrix_file.write_text(json.dumps({"n": dim // 2, "upper": upper}))
        code, out, _ = run_cli(["type", str(matrix_file)], capsys)
        assert code == 0
        report = json.loads(out)
        divisors, u = report["type"], report["base_change"]
        assert len(u) == dim and all(len(row) == dim for row in u)
        assert all(type(x) is int for row in u for x in row)
        assert abs(_det_int(u)) == 1
        blocks = [[0] * dim for _ in range(dim)]
        for t, d in enumerate(divisors):
            blocks[2 * t][2 * t + 1], blocks[2 * t + 1][2 * t] = d, -d
        assert [[sum(u[k][i] * b[k][l] * u[l][j] for k in range(dim) for l in range(dim))
                 for j in range(dim)] for i in range(dim)] == blocks, upper
        assert tuple(divisors) == snf_paired_divisors(b), upper
        checked += 1


def test_verify_with_lattice_file(tmp_path, capsys):
    from torusfill.torus import Lattice2
    region_file = tmp_path / "region.json"
    region_file.write_text(_json_text(example_T2k2(2).final.to_json()))
    lattice_file = tmp_path / "lattice.json"
    lattice_file.write_text(_json_text(Lattice2.rectangular(8, 1).to_json()))
    code, out, _ = run_cli(["verify", str(region_file),
                            "--lattice-file", str(lattice_file)], capsys)
    assert code == 0
    assert json.loads(out)["verdicts"]["fundamental_domain"]


@pytest.mark.parametrize("command", ["verify", "svg"])
def test_lattice_and_lattice_file_exclusive(tmp_path, capsys, command):
    # given both, one of them would be silently ignored
    from torusfill.torus import Lattice2
    region_file = tmp_path / "region.json"
    region_file.write_text(json.dumps(SQUARE))
    lattice_file = tmp_path / "lattice.json"
    lattice_file.write_text(_json_text(Lattice2.rectangular(2, 1).to_json()))
    argv = [command, str(region_file), "--lattice", "1", "1",
            "--lattice-file", str(lattice_file), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_type_command_six_by_six(tmp_path, capsys):
    # upper triangle of blockdiag(2, 6, 18), row-major: 15 entries
    upper = [2, 0, 0, 0, 0,
             0, 0, 0, 0,
             6, 0, 0,
             0, 0,
             18]
    matrix_file = tmp_path / "matrix6.json"
    matrix_file.write_text(json.dumps({"n": 3, "upper": upper}))
    code, out, _ = run_cli(["type", str(matrix_file)], capsys)
    assert code == 0
    assert json.loads(out)["type"] == [2, 6, 18]


def test_period_lattice_command(tmp_path, capsys):
    matrix_file = tmp_path / "surd.json"
    upper = [[[1, 0, 1]], [[1, 1, 1]], [[2, 1, 1]],
             [[1, -1, 1]], [[1, -1, 1]], [[1, 0, 1]]]
    matrix_file.write_text(json.dumps({"n": 2, "upper": upper}))
    code, out, _ = run_cli(["period-lattice", str(matrix_file), "--bound", "10"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["no_curves"]["ok"]
    assert len(report["solution"]["rho_decimal_50"].split(".")[1]) == 50


def test_period_lattice_of_far_from_boundary_form(tmp_path, capsys):
    # b12 = -10^30 sqrt 3, b14 = -sqrt 2 + 10^10 sqrt 3, b23 = 2 sqrt 2: the
    # perturbation needs more than 64 halvings of its step on each direction
    # it tries, and a search capped there exited 2 on this valid form
    matrix_file = tmp_path / "form.json"
    matrix_file.write_text(json.dumps({"n": 2, "upper": [
        [[3, -10**30, 1]], [], [[2, -1, 1], [3, 10**10, 1]], [[2, 2, 1]], [], []]}))
    code, out, err = run_cli(["period-lattice", str(matrix_file)], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["no_curves"]["ok"]
    assert len(report["no_curves"]["conditions"]) == 6
    assert all(report["no_curves"]["conditions"].values())


GOLDEN = json.loads((Path(__file__).parent / "data" / "period_lattice_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: f"form{case['index']}")
def test_period_lattice_matches_golden_bytes(tmp_path, capsys, case):
    # The golden file holds criterion-10 forms (the index-th draw of
    # test_acceptance._random_surd_matrix from random.Random(1234)) and the
    # full stdout of `period-lattice` on them, recorded before the scalar
    # core was rewritten for speed.  Draws 21, 34, 56, 69, 634 and 1330 were
    # added, recorded before the normaliser moved to two-entry moves: with
    # the first cases, the winning base changes use all eight (target,
    # source) transvection pairs.  Draws 413 and 432, each with two fresh
    # radicals and 32-term values, were added before the no-curves
    # certificate stopped building the products it only signs or tests.
    # Case "two-transvections" is the form of the normalize_basis docstring.
    # A change to these bytes must be deliberate: regenerate the file and
    # say why.
    matrix_file = tmp_path / "form.json"
    matrix_file.write_text(json.dumps(case["matrix"]))
    code, out, _ = run_cli(["period-lattice", str(matrix_file),
                            "--bound", str(GOLDEN["bound"])], capsys)
    assert code == case["exit"]
    assert out == case["stdout"]


CONSTRUCT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "construct_golden.json").read_text())


@pytest.mark.parametrize("case", CONSTRUCT_GOLDEN["cases"],
                         ids=lambda case: " ".join(case["argv"][1:]))
def test_construct_matches_golden_bytes(capsys, case):
    # The golden file holds the full stdout of `construct` for all seven
    # constructions, eps = 0 (jump shears) and eps > 0, and all four example2
    # orientations, recorded before the shear layer was rewritten for speed.
    # A change to these bytes must be deliberate: regenerate the file and say
    # why.
    code, out, _ = run_cli(case["argv"], capsys)
    assert code == case["exit"]
    assert out == case["stdout"]


VERIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.parametrize("case", VERIFY_GOLDEN["cases"],
                         ids=lambda case: f"Q(sqrt{case['field']})-{case['pieces']}pieces-exit{case['exit']}")
def test_verify_matches_golden_bytes(tmp_path, capsys, case):
    # The golden file holds jigsaw fundamental domains over Q, Q(sqrt 2) and
    # Q(sqrt 3), half of them with one piece displaced so that `verify` exits
    # 1, and the report of `verify` on each without its run-dependent
    # "input" path and "timings".  A change to these bytes must be
    # deliberate: regenerate the file and say why.
    region_file, lattice_file = tmp_path / "region.json", tmp_path / "lattice.json"
    region_file.write_text(json.dumps(case["region"]))
    lattice_file.write_text(json.dumps(case["lattice"]))
    code, out, _ = run_cli(["verify", str(region_file), "--lattice-file", str(lattice_file)],
                           capsys)
    report = json.loads(out)
    assert report.pop("input") == str(region_file)
    assert set(report.pop("timings")) == {"seconds"}
    assert code == case["exit"]
    assert json.dumps(report, indent=2) == case["report"]


# JSON values as the writer meets them, and the corners it must get right:
# quotes, backslashes, control characters, non-ASCII and lone surrogates in
# strings; huge ints; -0.0 and 1e16; bools inside int lists; tuples; empty
# and nested-empty containers.
JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
                                 st.characters()))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40), JSON_STRINGS,
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 1e16, 1e-7]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(JSON_STRINGS, children, max_size=4),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=4),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example([[], {}, [[]], {"": {}}, ((),)])
@example({"k": [1, True, 2], "b": [False], "t": (1, 2), "f": [-0.0, 1e16]})
@example([[1, -(2**200), 10**30]])
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


# Report data holds SurdScalars, which the writer formats as their triples
# and json.dumps refuses.  Leaves: zero, rationals, one to three radicands,
# negative numerators, numerators beyond 2**64 and denominators that share
# a factor with some numerators only (1/6 + 1/2 sqrt 2 is stored as 1 and 3
# over 6); ints mixed in among them.
SCALAR_LEAVES = st.one_of(surds(), surds(large=True), st.integers(-10**30, 10**30))


def nested(leaves, depth):
    """leaves, and lists, tuples and dicts of nested(leaves, depth - 1)."""
    if not depth:
        return leaves
    children = nested(leaves, depth - 1)
    return st.one_of(leaves, st.lists(children, max_size=3),
                     st.lists(children, max_size=3).map(tuple),
                     st.dictionaries(st.text(max_size=3), children, max_size=3))


def with_triples(value):
    """value with each SurdScalar replaced by its triples (`triples_of`)."""
    if type(value) is SurdScalar:
        return triples_of(value)
    if type(value) in (list, tuple):
        return type(value)(map(with_triples, value))
    if type(value) is dict:
        return {key: with_triples(item) for key, item in value.items()}
    return value


@settings(max_examples=300, deadline=None)
@given(nested(SCALAR_LEAVES, 4))
@example([rat(0), rat(Fraction(-7, 3)), [sqrt(2) * (2**70 + 1) / 3]])
@example({"d": rat(Fraction(1, 6)) + sqrt(2) / 2, "o": (SurdScalar.from_terms([(3, 1), (2, -1)]),)})
@example([[[[SurdScalar.from_terms([(6, Fraction(-5, 4)), (1, Fraction(3, 2)), (2, 2**65)]), 1]]]])
def test_json_writer_writes_a_scalar_as_its_triples(value):
    assert _json_text(value) == json.dumps(with_triples(value), indent=2)


def test_json_dumps_refuses_a_scalar():
    with pytest.raises(TypeError):
        json.dumps(sqrt(2), indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1, 2}, [[1, 2], {3}],
], ids=["fraction", "set", "nested-set"])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text({"value": value})


def test_json_writer_refuses_a_non_str_key():
    # json.dumps would write the key 1 as "1"; no report has such a key
    with pytest.raises(TypeError, match="keys must be str"):
        _json_text({"a": {1: 2}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _json_text([value])


@pytest.mark.parametrize("argv", [
    ["construct", "example1", "--k", "3"],
    ["construct", "example1", "--k", "3", "--cert-out", "{cert}", "--out", "{region}"],
    ["verify", "{square}", "--lattice", "1", "1"],
    ["type", "{int_matrix}"],
    ["period-lattice", "{surd_matrix}", "--bound", "5"],
    ["seshadri", "--dmax", "12", "--format", "json"],
    ["pell", "46"],
], ids=["construct", "construct-out", "verify", "type", "period-lattice", "seshadri", "pell"])
def test_cli_writes_the_bytes_of_indented_json_dumps(tmp_path, capsys, argv):
    # the CLI's own bytes, timings float included, with json.dumps as the oracle
    files = {"cert": tmp_path / "cert.json", "region": tmp_path / "region.json",
             "square": tmp_path / "square.json", "int_matrix": tmp_path / "int.json",
             "surd_matrix": tmp_path / "surd.json"}
    files["square"].write_text(json.dumps(SQUARE))
    files["int_matrix"].write_text(json.dumps({"n": 2, "upper": [2, 0, 0, 0, 0, 3]}))
    files["surd_matrix"].write_text(json.dumps({"n": 2, "upper": [
        [[1, 0, 1]], [[1, 1, 1]], [[2, 1, 1]], [[1, -1, 1]], [[1, -1, 1]], [[1, 0, 1]]]}))
    code, out, _ = run_cli([a.format(**files) for a in argv], capsys)
    assert code == 0
    texts = [out] if out else [files["cert"].read_text(), files["region"].read_text()]
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_svg_deterministic(tmp_path, capsys):
    region_file = tmp_path / "region.json"
    region_file.write_text(_json_text(example_T2k2(1).final.to_json()))
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        code, _, _ = run_cli(["svg", str(region_file), "--lattice", "2", "1",
                              "--out", str(out)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 'version="1.1"' in text


def test_render_svg_contains_cell_and_pieces():
    cert = example_T2k2(1)
    svg = render_svg(cert.final, cert.lattice)
    assert svg.count("<polygon") >= 1 + len(cert.final.pieces)
    assert "stroke-dasharray" in svg  # the fundamental cell outline


def cell_on_canvas(svg: str) -> bool:
    """Every coordinate of the dashed cell polygon lies in [0, width] x [0, height]."""
    width = Fraction(svg.split('width="', 1)[1].split('"', 1)[0])
    height = Fraction(svg.split('height="', 1)[1].split('"', 1)[0])
    [cell] = [line for line in svg.splitlines() if "stroke-dasharray" in line]
    corners = [point.split(",") for point in cell.split('points="')[1].split('"')[0].split()]
    assert len(corners) == 4
    return all(0 <= Fraction(x) <= width and 0 <= Fraction(y) <= height for x, y in corners)


@pytest.mark.parametrize("polygons, lattice, ring", [
    ([[(0, 0), (1, 0), (0, 1)]], ("10", "10"), False),
    ([[(100, 100), (101, 100), (100, 101)]], ("1", "1"), True),
    ([], ("1", "1"), True),
    ([], ("2", "3"), False),
], ids=["triangle-no-ring", "far-region-ring", "empty-ring", "empty-no-ring"])
def test_svg_draws_the_cell_on_the_canvas(tmp_path, capsys, polygons, lattice, ring):
    from torusfill.geom import ConvexPolygon, pt
    region = Region([ConvexPolygon([pt(*v) for v in poly]) for poly in polygons])
    region_file, out = tmp_path / "region.json", tmp_path / "out.svg"
    region_file.write_text(_json_text(region.to_json()))
    argv = ["svg", str(region_file), "--lattice", *lattice, "--out", str(out)]
    code, _, err = run_cli(argv + ([] if ring else ["--no-ring"]), capsys)
    assert code == 0, err
    assert cell_on_canvas(out.read_text())


@pytest.mark.parametrize("ring", [True, False], ids=["ring", "no-ring"])
def test_svg_draws_the_cell_on_the_canvas_for_golden_finals(ring):
    from torusfill.torus import Lattice2
    for case in CONSTRUCT_GOLDEN["cases"]:
        cert = json.loads(case["stdout"])
        svg = render_svg(Region.from_json(cert["final"]), Lattice2.from_json(cert["lattice"]),
                         translate_ring=ring)
        assert cell_on_canvas(svg), case["argv"]


SVG_GOLDEN = json.loads((Path(__file__).parent / "data" / "svg_golden.json").read_text())


@pytest.mark.parametrize("case", SVG_GOLDEN["cases"],
                         ids=lambda case: " ".join(case["construct"][1:])
                         + ("" if case["ring"] else " no-ring"))
def test_svg_matches_golden_bytes(tmp_path, capsys, case):
    # The golden file holds the `svg` output, with and without the translate
    # ring, for the final region and lattice of eight constructions over Q
    # and Q(sqrt 2).  A change to these bytes must be deliberate: regenerate
    # the file and say why.
    cert_file, region_file, lattice_file, out = (
        tmp_path / name for name in ("cert.json", "region.json", "lattice.json", "out.svg"))
    code, _, _ = run_cli(case["construct"] + ["--cert-out", str(cert_file)], capsys)
    assert code == 0
    cert = json.loads(cert_file.read_text())
    region_file.write_text(json.dumps(cert["final"]))
    lattice_file.write_text(json.dumps(cert["lattice"]))
    argv = ["svg", str(region_file), "--lattice-file", str(lattice_file), "--out", str(out)]
    code, _, err = run_cli(argv + ([] if case["ring"] else ["--no-ring"]), capsys)
    assert code == 0, err
    assert out.read_text() == case["svg"]


def test_region_json_round_trip_through_cli(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(["construct", "example3", "--eps", "1/100",
                          "--cert-out", str(cert_file)], capsys)
    assert code == 0
    blob = json.loads(cert_file.read_text())
    region = Region.from_json(blob["final"])
    assert written(region.to_json()) == blob["final"]
    frac = SurdScalar.from_triples(blob["fraction"])
    assert frac == SurdScalar.from_triples(triples_of(frac))


def test_precision_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    # the report has 30 digits whatever the environment holds, as `construct` does
    region_file = tmp_path / "region.json"
    region_file.write_text(_json_text(example_T2k2(1).final.to_json()))
    monkeypatch.setenv("TORUSFILL_PRECISION", "8")
    code, out, _ = run_cli(["verify", str(region_file), "--lattice", "2", "1"], capsys)
    assert code == 0
    assert json.loads(out)["covered_fraction_decimal"] == "1." + "0" * 30


def test_cli_import_leaves_numpy_out():
    # numpy is a test-only dependency; the package must not import it
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, torusfill.cli; sys.exit('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr or "importing torusfill.cli loaded numpy"


def test_console_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "torusfill.cli", "pell", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"N": 2, "k0": 2, "l0": 3}


def test_main_builds_its_parser_once_per_process():
    # argparse.ArgumentParser.__init__ runs for the root parser and its seven
    # subcommands on the first main call, and neither at import nor after
    code = "\n".join([
        "import argparse, contextlib, io, json",
        "built = [0]",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built[0] += 1",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "from torusfill.cli import main",
        "counts = [built[0]]",
        "for argv in (['pell', '2'], ['seshadri', '--dmax', '3'], ['pell', '3']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0",
        "    counts.append(built[0])",
        "print(json.dumps(counts))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(torusfill.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 8, 8, 8]


def test_repeated_main_calls_in_one_process_give_the_golden_bytes(tmp_path, capsys):
    # Every case of the three golden files, twice, in a shuffled order, with
    # argvs that argparse refuses, that a handler refuses and that ask for
    # help in between: the one parser keeps no state from call to call.
    def expect(exit_code, stdout):
        return lambda code, out: (code, out) == (exit_code, stdout)

    jobs = []
    for case in GOLDEN["cases"]:
        matrix_file = tmp_path / f"form{case['index']}.json"
        matrix_file.write_text(json.dumps(case["matrix"]))
        jobs.append((["period-lattice", str(matrix_file), "--bound", str(GOLDEN["bound"])],
                     expect(case["exit"], case["stdout"])))
    for case in CONSTRUCT_GOLDEN["cases"]:
        jobs.append((case["argv"], expect(case["exit"], case["stdout"])))
    for i, case in enumerate(VERIFY_GOLDEN["cases"]):
        region_file, lattice_file = tmp_path / f"region{i}.json", tmp_path / f"lattice{i}.json"
        region_file.write_text(json.dumps(case["region"]))
        lattice_file.write_text(json.dumps(case["lattice"]))

        def verify_report(code, out, case=case, region_file=region_file):
            report = json.loads(out)
            return (code == case["exit"] and report.pop("input") == str(region_file)
                    and set(report.pop("timings")) == {"seconds"}
                    and json.dumps(report, indent=2) == case["report"])
        jobs.append((["verify", str(region_file), "--lattice-file", str(lattice_file)],
                     verify_report))
    region_file = tmp_path / "region0.json"
    refused = [["construct", "nosuch"], ["pell"],
               ["verify", str(region_file), "--lattice", "1", "1", "--lattice-file", "x"]]
    malformed = [["construct", "theorem1", "--eps", "one/3"],
                 ["period-lattice", str(tmp_path / "form0.json"), "--bound", "0"]]
    helps = [["--help"], ["verify", "--help"], ["construct", "-h"]]
    jobs = 2 * jobs + 3 * [(argv, "refused") for argv in refused] \
        + 3 * [(argv, "malformed") for argv in malformed] + 3 * [(argv, "help") for argv in helps]
    random.Random(20261018).shuffle(jobs)

    first_help = {}
    for argv, check in jobs:
        if check in ("refused", "help"):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            if check == "refused":
                assert exc.value.code == 2 and out == "" and err.startswith("usage: torusfill")
            else:
                assert exc.value.code == 0 and out.startswith("usage: torusfill") and err == ""
                assert out == first_help.setdefault(tuple(argv), out), argv
            continue
        code, out, err = run_cli(argv, capsys)
        if check == "malformed":
            assert code == 2 and out == "" and err.startswith("error: "), argv
        else:
            assert check(code, out), argv


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    # the library example prints what its comments say, and the command
    # line's construct/verify pair exits 0, both as the README gives them
    monkeypatch.chdir(tmp_path)
    text = README.read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    printed = [line.split("#")[1].strip() for line in block.splitlines()
               if line.startswith("print(")]
    assert printed and capsys.readouterr().out.split() == printed
    pair = [line.split("#")[0].split()[1:] for line in text.splitlines()
            if line.startswith(("torusfill construct example1 --k 3 --out ",
                                 "torusfill verify "))]
    assert [argv[0] for argv in pair] == ["construct", "verify"]
    outputs = []
    for argv in pair:
        assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    verdicts = json.loads(outputs[1])["verdicts"]
    assert verdicts == {"injective": True, "fundamental_domain": True}


def test_verify_makes_no_scalar_per_coordinate(tmp_path, capsys, monkeypatch):
    # the region's triples are read straight into integers over one common
    # denominator, so deciding a jigsaw in 6 pieces makes as many scalars
    # (`surd._make` calls) as one in 3 over the same Q(sqrt 2) lattice
    made = {}
    original = surd_module._make
    for name in ("3-pieces", "6-pieces"):
        region, lattice = JIGSAWS[name]
        region_file, lattice_file = tmp_path / f"{name}.json", tmp_path / "lattice.json"
        region_file.write_text(_json_text(region.to_json()))
        lattice_file.write_text(_json_text(lattice.to_json()))
        calls = []

        def counted(num, den):
            calls.append(1)
            return original(num, den)

        monkeypatch.setattr(surd_module, "_make", counted)
        code, out, _ = run_cli(["verify", str(region_file), "--lattice-file", str(lattice_file)],
                               capsys)
        monkeypatch.setattr(surd_module, "_make", original)
        assert code == 0 and json.loads(out)["verdicts"]["fundamental_domain"]
        made[name] = len(calls)
    assert made["3-pieces"] == made["6-pieces"] > 0

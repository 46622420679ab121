"""Command-line interface: construct, verify, render and report.

Exit codes: 0 = success / verified, 1 = verification failed (a report is
still printed), 2 = malformed input.  Exact scalars are serialized as
[radicand, numerator, denominator] triples; decimals appear only in
human-readable report fields, with 30 digits.  Every JSON report is
written by `_json_text`: two-space indent, one value per line, ASCII only,
the same bytes as `json.dumps(report, indent=2)` with each `SurdScalar`
given as its triples, which it formats from the integer numerators.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd

from .surd import SurdScalar, rat
from .geom import GeometryError, Region, pt, region_coordinates
from .torus import Lattice2, LatticeRegion
from .fillings import CONSTRUCTORS, ORIENTATIONS
from .latforms import (
    AlternatingIntMatrix,
    AlternatingSurdMatrix,
    build_period_lattice,
    normalize_basis,
    polarization_type,
    verify_no_curves,
)
from .seshadri import pell_min, table


class InputError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


# Faults in a file's content, by base class: bytes that are not UTF-8 or
# JSON, bad radicands, points, polygons, bases and matrices (every layer's
# error) surface as ValueError, wrong shapes (a number where a list
# belongs, a list where an object belongs) as TypeError, short triples and
# missing keys as LookupError, zero denominators as ArithmeticError, and
# nesting too deep to parse as RecursionError.
_FILE_FAULTS = (OSError, ValueError, TypeError, LookupError, ArithmeticError, RecursionError)


@contextmanager
def _reading(path: str, faults=_FILE_FAULTS):
    """Report the faults raised inside as malformed input of the file at path."""
    try:
        yield
    except faults as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str, parse):
    """Read a JSON file and parse it; any fault in its content is malformed
    input.  The file is read as bytes and decoded as UTF-8 once."""
    with _reading(path):
        with open(path, "rb") as fh:
            return parse(json.loads(fh.read().decode("utf-8")))


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_INT_REPR = int.__repr__


def _json_text(data) -> str:
    """The bytes of `json.dumps(data, indent=2)`, in one pass, with each
    `SurdScalar` in data written as its [radicand, numerator, denominator]
    triples: radicands ascending, each term in lowest terms.

    With an indent, json encodes in pure Python; this writer appends the
    pieces to one list and joins it once.  It takes dicts with str keys,
    lists, tuples, SurdScalar, str, int, finite float, bool and None, and
    raises TypeError on any other type or key, as json does; a NaN or
    infinite float raises ValueError, as json does with allow_nan=False.
    """
    parts: list[str] = []
    _encode(data, "\n", parts)
    return "".join(parts)


@cache
def _scalar_template(newline: str) -> tuple[str, str, str]:
    """(opening, one triple's %-template, separator) of a scalar whose
    lines start with newline."""
    inner = newline + "  "
    deep = inner + "  "
    triple = "[" + deep + "%d," + deep + "%d," + deep + "%d" + inner + "]"
    return "[" + inner, triple, "," + inner


def _encode(value, newline: str, parts: list[str]) -> None:
    """Append value's JSON to parts; newline starts each line at value's depth.
    A SurdScalar is written from its numerators over its denominator, each
    term divided by gcd(numerator, denominator)."""
    kind = type(value)
    if kind is SurdScalar:
        num, den = value._num, value._den
        if not num:
            parts.append("[]")
            return
        opening, triple, comma = _scalar_template(newline)
        terms = []
        for r in sorted(num):
            g = gcd(num[r], den)
            terms.append(triple % (r, num[r] // g, den // g))
        parts += opening, comma.join(terms), newline, "]"
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            sep = comma
            _encode(item, inner, parts)
        parts += newline, "]"
    elif kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(_INT_REPR(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += sep, encode_basestring_ascii(key), ": "
            sep = comma
            _encode(item, inner, parts)
        parts += newline, "}"
    elif value is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is float:
        text = repr(value)
        if text in ("nan", "inf", "-inf"):  # json would write NaN or Infinity: not JSON
            raise ValueError(f"out of range float values are not JSON compliant: {text}")
        parts.append(text)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dump(data, path: str | None):
    _write(_json_text(data) + "\n", path)


def _lattice_from_args(args) -> Lattice2:
    if args.lattice:
        mu1, mu2 = (_parse_rational(x) for x in args.lattice)
        return Lattice2.rectangular(mu1, mu2)
    if args.lattice_file:
        return _load_json(args.lattice_file, Lattice2.from_json)
    raise InputError("a lattice is required (--lattice MU1 MU2 or --lattice-file)")


# -- construct ----------------------------------------------------------------


def cmd_construct(args) -> int:
    """Build the named filling from the options given; the constructor's own
    signature decides which options it takes and supplies the defaults."""
    build = CONSTRUCTORS[args.name]
    given = {opt: getattr(args, opt) for opt in ("k", "eps", "orientation")
             if getattr(args, opt) is not None}
    if "eps" in given:
        given["eps"] = _parse_rational(given["eps"])
    if given.get("orientation") == []:
        # argparse strips a literal "--" value, so --orientation=-- arrives as []
        given["orientation"] = "--"
    try:
        inspect.signature(build).bind(**given)
    except TypeError as exc:
        raise InputError(f"construct {args.name}: {exc}") from exc
    cert = build(**given)
    _dump(cert.to_json(), args.cert_out)
    if args.out:
        _dump(cert.final.to_json(), args.out)
    return 0 if cert.valid else 1


# -- verify --------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Read the region's coordinates straight into integers over one common
    denominator (`region_coordinates`), then the lattice, and decide
    everything on the region's lattice coordinates: no scalar is made per
    coordinate and no plane polygon is built."""
    t0 = time.perf_counter()
    coordinates = _load_json(args.region, region_coordinates)
    lattice = _lattice_from_args(args)
    with _reading(args.region, GeometryError):  # bad polygons, overlapping pieces
        verdict = LatticeRegion.read(coordinates, lattice).verdict()
    fraction, decimal = verdict.fraction_json()
    report = {
        "input": args.region,
        "lattice": lattice.to_json(),
        "verdicts": {
            "injective": verdict.injective,
            "fundamental_domain": verdict.fundamental_domain,
        },
        "area": verdict.area,
        "covolume": verdict.covolume,
        "covered_fraction": fraction,
        "covered_fraction_decimal": decimal,
        "collisions": verdict.collisions_json(),
        "timings": {"seconds": round(time.perf_counter() - t0, 6)},
    }
    _dump(report, args.out)
    return 0 if verdict.injective else 1


# -- lattice forms ---------------------------------------------------------------


def _matrix_from_json(data):
    if type(data) is not dict or "upper" not in data or "n" not in data:
        raise InputError("matrix JSON needs an object with fields 'n' and 'upper'")
    n = data["n"]
    if type(n) is not int or n < 1:  # bool is a subclass of int
        raise InputError(f"'n' must be a positive integer, got {n!r}")
    upper = data["upper"]
    if type(upper) is not list:  # an object would be read by its keys
        raise InputError(f"'upper' must be a list, got {type(upper).__name__}")
    if len(upper) != n * (2 * n - 1):
        raise InputError(f"n={n} needs {n * (2 * n - 1)} upper entries, got {len(upper)}")
    if all(type(x) is int for x in upper):
        dim = 2 * n
        m = [[0] * dim for _ in range(dim)]
        it = iter(upper)
        for i in range(dim):
            for j in range(i + 1, dim):
                m[i][j] = next(it)
                m[j][i] = -m[i][j]
        return AlternatingIntMatrix(m)
    if n != 2:
        raise InputError("surd-valued matrices are supported only for n=2 (4x4)")

    return AlternatingSurdMatrix([rat(x) if type(x) is int
                                  else SurdScalar.from_triples(x) for x in upper])


def _load_matrix(path: str, kind: type, fault: str):
    """Read the matrix file at path; a matrix not of the given kind is malformed input."""
    def parse(data):
        matrix = _matrix_from_json(data)
        if not isinstance(matrix, kind):
            raise InputError(fault)
        return matrix
    return _load_json(path, parse)


def cmd_type(args) -> int:
    matrix = _load_matrix(args.matrix, AlternatingIntMatrix,
                          "polarization type needs an integer matrix")
    divisors, base_change = polarization_type(matrix)
    _dump({"type": list(divisors), "base_change": base_change}, args.out)
    return 0


def cmd_period_lattice(args) -> int:
    if args.bound < 1:  # the box [-bound, bound]^4 would hold no nonzero vector
        raise InputError(f"--bound must be at least 1, got {args.bound}")
    matrix = _load_matrix(args.matrix, AlternatingSurdMatrix,
                          "period-lattice needs a surd-valued 4x4 matrix")
    result = normalize_basis(matrix)
    solution = build_period_lattice(result)
    certificate = verify_no_curves(solution, bound=args.bound)
    report = {
        "normalized": result.matrix.to_json(),
        "base_change": result.base_change,
        "base_change_determinant": result.determinant,
        "solution": solution.to_json(),
        "no_curves": certificate.to_json(),
    }
    _dump(report, args.out)
    return 0 if certificate.ok else 1


# -- seshadri / pell -------------------------------------------------------------


def cmd_seshadri(args) -> int:
    rows = [{"d": r.d, "k0": r.pell.k0 if r.pell else None, "l0": r.pell.l0 if r.pell else None,
             "epsilon": str(r.epsilon.as_fraction()), "p_lower": str(r.p_lower)}
            for r in table(args.dmax)]
    if args.format == "json":
        _dump(rows, args.out)
        return 0
    if args.format == "csv":  # a row without a Pell pair leaves k0 and l0 blank
        head, line, blank = "d,k0,l0,p_lower", "{d},{k0},{l0},{p_lower}", ""
    else:
        head = f"{'d':>3} {'k0':>6} {'l0':>8} {'p(T(1,d)) >=':>24}"
        line, blank = "{d:>3} {k0:>6} {l0:>8} {p_lower:>24}", "-"
    lines = [head] + [line.format(**{k: blank if v is None else v for k, v in row.items()})
                      for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_pell(args) -> int:
    sol = pell_min(args.N)
    _dump({"N": sol.N, "k0": sol.k0, "l0": sol.l0}, args.out)
    return 0


# -- svg -------------------------------------------------------------------------

PALETTE = ["#4878a8", "#e49444", "#d1615d", "#85b6b2", "#6a9f58",
           "#e7ca60", "#a87c9f", "#967662", "#b8b0ac", "#7b848f"]


def _svg_coords(p, scale, origin):
    x = (p.x1 * scale).decimal(3)
    y = ((origin - p.x2) * scale).decimal(3)
    return f"{x},{y}"


def render_svg(region: Region, lattice: Lattice2, translate_ring: bool = True) -> str:
    """Deterministic SVG: the region, the fundamental cell, one translate ring."""
    scale = rat(200) / max(
        abs(lattice.g1.x1), abs(lattice.g1.x2), abs(lattice.g2.x1), abs(lattice.g2.x2),
        rat(1),
    )
    ring = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    cells = [region]
    if translate_ring:
        cells += [region.translate(lattice.vector(a, b)) for a, b in ring]
    cell = [pt(0, 0), lattice.g1, lattice.g1 + lattice.g2, lattice.g2]
    # the canvas holds the cell's corners and every nonempty region's box
    boxes = [(v.x1, v.x1, v.x2, v.x2) for v in cell]
    boxes += [reg.bounding_box() for reg in cells if reg.pieces]
    margin = rat(Fraction(1, 4))
    x_lo = min(b[0] for b in boxes) - margin
    x_hi = max(b[1] for b in boxes) + margin
    y_lo = min(b[2] for b in boxes) - margin
    y_hi = max(b[3] for b in boxes) + margin
    width = ((x_hi - x_lo) * scale).decimal(3)
    height = ((y_hi - y_lo) * scale).decimal(3)
    shift = pt(x_lo, 0)

    def poly_tag(vertices, fill, opacity, stroke="#222222"):
        pts = " ".join(_svg_coords(v - shift, scale, y_hi) for v in vertices)
        return (f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
                f'stroke="{stroke}" stroke-width="0.75" />')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff" />',
    ]
    cell_pts = " ".join(_svg_coords(v - shift, scale, y_hi) for v in cell)
    parts.append(f'<polygon points="{cell_pts}" fill="none" '
                 f'stroke="#000000" stroke-width="1.5" stroke-dasharray="6,3" />')
    for idx, shifted in enumerate(cells[1:]):
        for piece in shifted.pieces:
            parts.append(poly_tag(piece.vertices, PALETTE[idx % len(PALETTE)],
                                  "0.18", "#999999"))
    for idx, piece in enumerate(region.pieces):
        parts.append(poly_tag(piece.vertices, PALETTE[idx % len(PALETTE)], "0.85"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_svg(args) -> int:
    region = _load_json(args.region, Region.from_json)
    lattice = _lattice_from_args(args)
    _write(render_svg(region, lattice, translate_ring=not args.no_ring), args.out)
    return 0


# -- entry point ------------------------------------------------------------------


def _add_lattice_options(p: argparse.ArgumentParser) -> None:
    # one lattice source: given both, neither may be silently ignored
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lattice", nargs=2, metavar=("MU1", "MU2"))
    group.add_argument("--lattice-file")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and returned by
    every later one.

    Reuse is safe: `parse_args` returns a new Namespace on each call and
    keeps nothing in the parser between calls, errors and --help included.
    The parser holds the `cmd_*` handlers, which read the library names
    (`LatticeRegion`, `normalize_basis`, ...) as module globals when they
    run, so a rebinding of those names after the first call still takes
    effect.
    """
    parser = argparse.ArgumentParser(
        prog="torusfill",
        description="Exact constructions and verification of symplectic torus fillings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named filling and emit its certificate")
    p.add_argument("name", choices=sorted(CONSTRUCTORS))
    # no defaults here: only the options given are passed on (see cmd_construct)
    p.add_argument("--k", type=int)
    p.add_argument("--eps", help="rational like 1/100")
    p.add_argument("--orientation", choices=ORIENTATIONS)
    p.add_argument("--out", help="write the final Region JSON here")
    p.add_argument("--cert-out", help="certificate output file (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="recheck a region file against a lattice")
    p.add_argument("region")
    _add_lattice_options(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("type", help="polarization type of an integer alternating matrix")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("period-lattice", help="normalize a surd form and build its period lattice")
    p.add_argument("matrix")
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_period_lattice)

    p = sub.add_parser("seshadri", help="Seshadri / Pell filling bounds for types (1, d)")
    p.add_argument("--dmax", type=int, default=30)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_seshadri)

    p = sub.add_parser("pell", help="minimal solution of l^2 - N k^2 = 1")
    p.add_argument("N", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("svg", help="render a region and its lattice translates")
    p.add_argument("region")
    _add_lattice_options(p)
    p.add_argument("--no-ring", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_svg)
    return parser


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` when argv is None) and return its
    exit code.  May be called any number of times in one process: the parser
    is built on the first call and reused."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # every layer's error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's input generators (run: python3 -m pytest bench)."""

import itertools
import math
import random

import pytest

import workloads as w


def _first(workload, seed, n=12):
    return [(j.kind, j.argv, j.files, j.expect)
            for j in itertools.islice(w.jobs(workload, seed), n)]


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("pieces", [2, 3, 6, 9])
def test_jigsaw_pieces_tile_the_cell(seed, pieces):
    cell = w.jigsaw_cell(random.Random(seed), pieces)
    assert len(cell) == pieces
    assert sum(w.area(p) for p in cell) == 1
    for poly in cell:  # strictly convex, counterclockwise
        n = len(poly)
        assert all(w._cross(poly[i - 1], poly[i], poly[(i + 1) % n]) > 0 for i in range(n))


def _float_box(g, poly):
    def value(x):
        return sum(float(c) * math.sqrt(r) for r, c in x.items())
    pts = [tuple(value(c) for c in w._to_plane(g, p)) for p in poly]
    return (min(p[0] for p in pts), max(p[0] for p in pts),
            min(p[1] for p in pts), max(p[1] for p in pts))


def _in_cell(poly):
    """The piece translated back by its integer scatter vector."""
    shift = (math.floor(min(p[0] for p in poly)), math.floor(min(p[1] for p in poly)))
    return [(p[0] - shift[0], p[1] - shift[1]) for p in poly]


@pytest.mark.parametrize("seed", range(12))
def test_displaced_piece_is_clear_and_collides(seed):
    rng = random.Random(seed)
    pieces, radius, radicand = rng.randint(2, 6), rng.randint(0, 2), rng.choice((1, 2, 3))
    region, g, moved = w.jigsaw(rng, pieces, radius, radicand, displaced=True)
    # exits 1, not 2: clear of every other piece's plane bounding box, so
    # the region is still a valid union of interior-disjoint pieces
    box = _float_box(g, region[moved])
    for j, poly in enumerate(region):
        if j != moved:
            other = _float_box(g, poly)
            assert (box[1] < other[0] or other[1] < box[0]
                    or box[3] < other[2] or other[3] < box[2])
    # and it collides: modulo the lattice its vertex mean is interior to
    # another piece
    mean = w._vertex_mean(region[moved])
    point = (mean[0] - math.floor(mean[0]), mean[1] - math.floor(mean[1]))
    assert any(w._interior(_in_cell(poly), point)
               for j, poly in enumerate(region) if j != moved)



@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_blocks_hold_the_same_mix(workload):
    block = w.BLOCK[workload]
    mixes = [sorted(j.kind for j in itertools.islice(w.jobs(workload, seed), block))
             for seed in range(4)]
    assert all(m == mixes[0] for m in mixes)


def test_only_the_known_defect_is_marked():
    jobs = list(itertools.islice(w.jobs("construct", 3), w.BLOCK["construct"]))
    marked = [j for j in jobs if "defect_exit" in j.expect]
    assert {j.kind for j in marked} == {"example2[--]"}
    assert len(marked) == len(jobs) // 28


def test_verdict_check_flags_crashes():
    import run
    good, defect = (next(j for j in itertools.islice(w.jobs("construct", 1), 84)
                         if j.kind == kind) for kind in ("cube", "example2[--]"))
    assert run.check(defect, 2, "") == "defect"
    assert run.check(good, 2, "") == "error"
    assert run.check(good, None, "") == "error"
    assert run.check(defect, None, "") == "error"
    assert run.check(good, 1, "{}") == "wrong"

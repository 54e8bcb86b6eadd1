"""Convex hulls, Hausdorff distances, containment, support widths."""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from numrange.geometry import (
    CROSS_TOL,
    RangePolygon,
    convex_hull,
    excess,
    hausdorff,
    polygon_csv,
    polygon_to_csv,
    support_width,
)
from numrange import ellipse
from numrange.operators import PeriodSpec, build_symbol
from numrange.sweep import SweepConfig, _symbol_points, _truncation_points, boundary_points, phi_grid
from oracles import distance_to_region, polygon_from_csv

RNG = np.random.default_rng(31)


def regular_polygon(n: int, radius: float = 1.0, center: complex = 0.0) -> RangePolygon:
    return convex_hull(center + radius * np.exp(2j * np.pi * np.arange(n) / n))


# --- convex hull ---------------------------------------------------------------


def test_hull_square_with_center():
    pts = np.array([0, 1, 1j, 1 + 1j, 0.5 + 0.5j])
    hull = convex_hull(pts)
    assert sorted(hull.vertices.tolist(), key=lambda z: (z.real, z.imag)) == [
        0,
        1j,
        1,
        1 + 1j,
    ]


def test_hull_single_point_and_collinear():
    assert convex_hull([2 + 3j]).vertices.tolist() == [2 + 3j]
    seg = convex_hull([0, 1, 2, 3, 1.5])
    assert sorted(seg.vertices.tolist(), key=lambda z: z.real) == [0, 3]
    same = convex_hull([1 + 1j] * 5)
    assert same.vertices.tolist() == [1 + 1j]


def test_hull_is_counterclockwise_and_convex():
    pts = RNG.standard_normal(200) + 1j * RNG.standard_normal(200)
    hull = convex_hull(pts).vertices
    n = len(hull)
    assert n >= 3
    for i in range(n):
        o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        cross = (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)
        assert cross > 0  # strictly convex: collinear vertices removed


def test_hull_keeps_the_lexicographic_extremes():
    # the minimum's turn between its neighbours is 1e-13, below eps, but the
    # chain never pops the first point of its lower or upper run
    pts = np.array([0, 1j, 1e-13 - 1j, 1])
    hull = convex_hull(pts).vertices
    np.testing.assert_array_equal(hull, [0, 1e-13 - 1j, 1, 1j])
    np.testing.assert_array_equal(hull, monotone_chain(pts))


def test_hull_raises_on_overflowing_turns():
    # finite points whose cross products overflow raise; at 1e150 they do not
    pts = 1e160 * np.array([0, 1, 1j, 1 + 1j, 0.5 + 0.25j])
    with pytest.raises(FloatingPointError):
        convex_hull(pts)
    np.testing.assert_array_equal(convex_hull(pts * 1e-10).vertices, [0, 1e150, 1e150 + 1e150j, 1e150j])


def test_hull_empty_input():
    with pytest.raises(ValueError, match="empty"):
        convex_hull(np.array([], dtype=complex))


def gift_wrap(points: np.ndarray) -> set:
    """Jarvis march oracle; returns hull vertices as a set."""
    pts = list(points)
    start = min(pts, key=lambda z: (z.real, z.imag))
    hull = [start]
    while True:
        current = hull[-1]
        candidate = pts[0] if pts[0] != current else pts[1]
        for z in pts:
            if z == current:
                continue
            cross = (candidate.real - current.real) * (z.imag - current.imag) - (
                candidate.imag - current.imag
            ) * (z.real - current.real)
            if cross < 0 or (
                cross == 0 and abs(z - current) > abs(candidate - current)
            ):
                candidate = z
        if candidate == start:
            return set(hull)
        hull.append(candidate)


def cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def monotone_chain(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain oracle, with the pop rule and tolerance of
    ``convex_hull``: a point b goes when ``cross(a, b, c) <= eps``."""
    pts = pts[np.lexsort((pts.imag, pts.real))]
    eps = CROSS_TOL * max(1.0, float(np.abs(pts).max()))
    chains = []
    for run in (pts, pts[::-1]):
        chain: list[complex] = []
        for z in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], z) <= eps:
                chain.pop()
            chain.append(z)
        chains += chain[:-1]
    out = np.array(chains, dtype=complex)
    if out.size == 0 or np.abs(out - out[0]).max() <= eps:
        return pts[:1]
    return out


def test_hull_matches_gift_wrapping_oracle():
    angles = RNG.uniform(0, 2 * np.pi, 1000)
    radii = np.sqrt(RNG.uniform(0, 1, 1000))
    pts = radii * np.exp(1j * angles)
    ours = set(convex_hull(pts).vertices.tolist())
    assert ours == gift_wrap(pts)


def test_hull_idempotent():
    pts = RNG.standard_normal(500) + 1j * RNG.standard_normal(500)
    once = convex_hull(pts)
    twice = convex_hull(once.vertices)
    np.testing.assert_array_equal(once.vertices, twice.vertices)


def _union_cloud(word: str, n: int) -> np.ndarray:
    cfg = SweepConfig(num_theta=n, num_phi=n)
    spec = PeriodSpec.from_word(word)
    return np.concatenate(
        [boundary_points(build_symbol(spec, phi), cfg) for phi in phi_grid(cfg.num_phi)]
    )


def _annulus() -> np.ndarray:
    radii = RNG.uniform(0.99, 1.0, 100_000)
    return radii * np.exp(1j * RNG.uniform(0, 2 * np.pi, 100_000))


def _truncation_input() -> np.ndarray:
    # the touch points of truncation_range for word 01 at k=120, 720 angles
    return _truncation_points(PeriodSpec.from_word("01"), 120, SweepConfig(num_theta=720))


def _stadium_input() -> np.ndarray:
    # the arc samples that stadium_region(192) hulls
    with mock.patch.object(ellipse, "convex_hull", wraps=convex_hull) as hull:
        ellipse.stadium_region(192)
    return hull.call_args.args[0]


def _dense_sweep() -> np.ndarray:
    # boundary_points of a seeded dense 3x3 matrix at 720 angles
    rng = np.random.default_rng(7)
    a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    return boundary_points(a, SweepConfig(num_theta=720))


# sweep output, in convex position, in the order the sweeps emit it
SWEEP_INPUTS = {
    "truncation-01": _truncation_input,
    "union-001-192": lambda: _symbol_points(PeriodSpec.from_word("001"), SweepConfig(192, 192)),
    "stadium": _stadium_input,
}


def _sliver() -> np.ndarray:
    # the extremes along all 16 first-pass directions are the two ends, but
    # the middle point sits 1e-6 off their line: the hull is a triangle
    pts = np.exp(0.1j) * np.linspace(-1.0, 1.0, 1001)
    pts[500] += 1e-6j * np.exp(0.1j)
    return pts


@pytest.mark.parametrize(
    "make",
    [
        lambda: RNG.standard_normal(5000) + 1j * RNG.standard_normal(5000),
        lambda: np.exp(2j * np.pi * np.arange(4096) / 4096),
        lambda: _union_cloud("001", 96),
        lambda: (0.5 + 1j) * np.arange(600) - 3.0,
        lambda: np.repeat(RNG.standard_normal(60) + 1j * RNG.standard_normal(60), 20),
        lambda: (np.arange(-20, 21)[:, None] + 1j * np.arange(-20, 21)[None, :]).ravel(),
        _annulus,
        lambda: _union_cloud("11", 192),
        _sliver,
        *SWEEP_INPUTS.values(),
    ],
    ids=[
        "gaussian",
        "circle",
        "union-001",
        "collinear",
        "duplicates",
        "lattice",
        "annulus",
        "union-11",
        "sliver",
        *SWEEP_INPUTS,
    ],
)
def test_hull_prune_path_matches_direct(make):
    # hard clouds for Quickhull's splits and final pops (many points in convex
    # position, duplicates, collinear and near-collinear runs): the vertices
    # are the monotone chain's, bit for bit
    pts = make()
    assert convex_hull(pts).vertices.tobytes() == monotone_chain(pts).tobytes()


def _c_calls(f, *args) -> int:
    """The ``c_call`` events of :func:`sys.setprofile`, at any depth, while ``f(*args)`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize(
    "make",
    [lambda: np.exp(2j * np.pi * np.arange(4096) / 4096), *SWEEP_INPUTS.values()],
    ids=["circle", *SWEEP_INPUTS],
)
def test_hull_of_sweep_output_takes_few_calls(make):
    # points in convex position end in one ring and the pop rule, not in
    # log2(n) Quickhull rounds of about 50 numpy calls each (551 to 821 calls)
    assert _c_calls(convex_hull, make()) <= 350


def support_deficit(pts: np.ndarray, vertices: np.ndarray, thetas: np.ndarray) -> float:
    """Largest amount by which the support of ``vertices`` falls short of
    that of ``pts`` over ``thetas``."""
    worst = 0.0
    for s in range(0, thetas.size, 1000):
        w = np.exp(-1j * thetas[s : s + 1000])[:, None]
        gap = (w * pts).real.max(axis=1) - (w * vertices).real.max(axis=1)
        worst = max(worst, float(gap.max()))
    return worst


@pytest.mark.parametrize("word", ["01", "001", "0001"])
def test_hull_of_union_cloud(word):
    # the 720x720 union hulls' input: in convex position, crowded near the
    # flat-edge corners, and symmetric, so the farthest points tie
    pts = _symbol_points(PeriodSpec.from_word(word), SweepConfig(720, 720))
    hull = convex_hull(pts).vertices
    rng = np.random.default_rng(7)
    for _ in range(3):
        np.testing.assert_array_equal(convex_hull(rng.permutation(pts)).vertices, hull)
    eps = CROSS_TOL * max(1.0, float(np.abs(pts).max()))
    assert (cross(np.roll(hull, 1), hull, np.roll(hull, -1)) > eps).all()
    thetas = rng.uniform(0, 2 * np.pi, 20_000)
    chain = support_deficit(pts, monotone_chain(pts), thetas)
    assert support_deficit(pts, hull, thetas) <= chain


@pytest.mark.parametrize(
    "make",
    [lambda: _symbol_points(PeriodSpec.from_word("01"), SweepConfig(720, 720)), _truncation_input, _dense_sweep],
    ids=["union-01", "truncation-01", "dense-3x3"],
)
def test_hull_turns_with_its_input(make):
    # the ring must be ordered by angle about a point inside the hull: points
    # ordered along the edge they lie outside of miss vertices on the dense
    # 3x3 sweep (by 7.7e-4), depending on how the input is turned
    pts = make()
    hull = convex_hull(pts).vertices
    for alpha in 2 * np.pi * np.arange(16) / 16 + 0.1:
        turn = np.exp(1j * alpha)
        assert hausdorff(convex_hull(turn * pts), RangePolygon(turn * hull)) <= 1e-12


def test_hull_prune_matches_gift_wrapping_oracle():
    pts = RNG.standard_normal(5000) + 1j * RNG.standard_normal(5000)
    assert set(convex_hull(pts).vertices.tolist()) == gift_wrap(pts)


def test_hull_memory_is_bounded():
    pts = RNG.standard_normal(500_000) + 1j * RNG.standard_normal(500_000)
    tracemalloc.start()
    try:
        convex_hull(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# --- distances -----------------------------------------------------------------


def test_distance_inside_and_outside_square():
    square = convex_hull([0, 1, 1 + 1j, 1j])
    inside = distance_to_region([0.5 + 0.5j, 0.1 + 0.9j], square)
    np.testing.assert_array_equal(inside, [0.0, 0.0])
    np.testing.assert_allclose(
        distance_to_region([2 + 0.5j, -1 + 0.5j, 0.5 + 2j], square), [1, 1, 1]
    )
    corner = distance_to_region([2 + 2j], square)[0]
    assert corner == pytest.approx(np.sqrt(2))


def test_distance_to_point_and_segment():
    point = RangePolygon(np.array([1 + 1j]))
    np.testing.assert_allclose(distance_to_region([0], point), [np.sqrt(2)])
    seg = convex_hull([0, 2])
    np.testing.assert_allclose(distance_to_region([1 + 1j, 3, -1], seg), [1, 1, 1])


def test_hausdorff_identity_and_translation():
    poly = regular_polygon(64)
    assert hausdorff(poly, poly) == 0.0
    shifted = RangePolygon(poly.vertices + 1.0)
    assert hausdorff(poly, shifted) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_symmetry_and_triangle():
    for _ in range(8):
        polys = [
            convex_hull(RNG.standard_normal(20) + 1j * RNG.standard_normal(20))
            for _ in range(3)
        ]
        p, q, r = polys
        assert hausdorff(p, q) == hausdorff(q, p)
        assert hausdorff(p, r) <= hausdorff(p, q) + hausdorff(q, r) + 1e-9


def boundary_samples(poly: RangePolygon, per_edge: int) -> np.ndarray:
    v = poly.vertices
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return np.concatenate([a + t * (b - a) for a, b in zip(v, np.roll(v, -1))])


def test_hausdorff_matches_boundary_sampling_oracle():
    for _ in range(4):
        p = convex_hull(RNG.standard_normal(15) + 1j * RNG.standard_normal(15))
        q = convex_hull(RNG.standard_normal(15) + 1j * RNG.standard_normal(15))
        dense_p = boundary_samples(p, 3000)
        dense_q = boundary_samples(q, 3000)
        oracle = max(
            distance_to_region(dense_p, q).max(), distance_to_region(dense_q, p).max()
        )
        assert hausdorff(p, q) >= oracle - 1e-12  # sampling can only miss the max
        assert hausdorff(p, q) <= oracle + 1e-6


def vertex_excess(p: RangePolygon, q: RangePolygon) -> float:
    """The per-point oracle of :func:`excess`: the distance from filled ``q``
    is convex, so over filled ``p`` it peaks at a vertex."""
    return float(distance_to_region(p.vertices, q).max())


def excess_cases():
    """Pairs of polygons: random, a point or a segment against each other
    and against polygons, nearly equal, and built directly."""
    rng = np.random.default_rng(7)
    noise = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cloud = lambda n, shift=0.0: convex_hull(shift + noise(n))
    for _ in range(60):
        n, m = rng.integers(3, 40, 2)
        yield cloud(n), cloud(m, 0.5 * complex(*rng.standard_normal(2)))
    small = [RangePolygon(np.array(v)) for v in ([0.3 - 0.2j], [2 + 1j], [-1 - 1j, 1 + 0.5j], [0.5j, 0.2 - 0.7j])]
    for s in small:
        yield s, cloud(12)
        for t in small:
            yield s, t
    for _ in range(20):
        p = cloud(int(rng.integers(3, 30)))
        yield p, convex_hull(p.vertices + 1e-12 * noise(len(p)))
        yield p, RangePolygon(p.vertices * (1 - 1e-13))
    square = RangePolygon(np.array([0, 1, 1 + 1j, 1j]))
    yield square, RangePolygon(np.array([0.5 - 0.5j, 1.5 + 0.5j, -0.2 + 0.6j]))
    yield square, RangePolygon(square.vertices + 1e-15j)


@pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500], ids=["2^-500", "1", "2^500"])
def test_excess_matches_the_vertex_oracle(scale):
    for p, q in excess_cases():
        p, q = RangePolygon(scale * p.vertices), RangePolygon(scale * q.vertices)
        size = scale * max(np.abs(p.vertices).max(), np.abs(q.vertices).max(), 1.0)
        for a, b in ((p, q), (q, p)):
            assert excess(a, b) == pytest.approx(vertex_excess(a, b), rel=1e-12, abs=1e-15 * size)
        assert hausdorff(p, q) == max(excess(p, q), excess(q, p))


def test_excess_is_zero_inside_and_exact_outside():
    square = RangePolygon(np.array([0, 2, 2 + 2j, 2j]))
    inner = RangePolygon(np.array([0.5 + 0.5j, 1.5 + 0.5j, 1 + 1.5j]))
    assert excess(inner, square) == 0.0 and excess(square, square) == 0.0
    assert excess(RangePolygon(np.array([0.0])), square) == 0.0
    # the farthest point of a filled triangle outside the square is its apex
    apex = RangePolygon(np.array([0.5 + 0.5j, 1.5 + 0.5j, 1 + 3j]))
    assert excess(apex, square) == 1.0
    # off a corner the farthest direction lies inside an arc between normals
    assert excess(RangePolygon(np.array([3 + 3j])), square) == pytest.approx(np.sqrt(2), abs=1e-15)
    assert excess(square, RangePolygon(np.array([5 + 2j]))) == pytest.approx(abs(5 + 2j))


def test_contains():
    # membership of the filled region, to within tol, is a distance test
    square = convex_hull([0, 2, 2 + 2j, 2j])
    contains = lambda polygon, z, tol=0.0: distance_to_region([z], polygon)[0] <= tol
    assert contains(square, 1 + 1j)
    for z in square.vertices:
        assert contains(square, z, tol=0.0)
    assert not contains(square, 3 + 1j, tol=0.5)
    assert contains(square, 3 + 1j, tol=1.0)


def test_support_width():
    circle = regular_polygon(2048)
    for theta in (0.0, 0.4, np.pi / 2, 3.3):
        assert support_width(circle, theta) == pytest.approx(1.0, abs=1e-5)
    point = RangePolygon(np.array([2 + 5j]))
    assert support_width(point, 0.0) == 2.0
    a = convex_hull([0, 1])
    b = convex_hull([3 + 1j, 3 - 1j])
    union = convex_hull(np.concatenate([a.vertices, b.vertices]))
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert support_width(union, theta) == pytest.approx(
            max(support_width(a, theta), support_width(b, theta)), abs=1e-12
        )


# --- CSV round trip -------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    poly = convex_hull(RNG.standard_normal(40) + 1j * RNG.standard_normal(40))
    path = tmp_path / "poly.csv"
    polygon_to_csv(poly, path)
    back = polygon_from_csv(path)
    assert np.abs(back.vertices - poly.vertices).max() <= 1e-15
    text = path.read_text().splitlines()
    assert text[0] == "re,im"
    assert len(text) == len(poly.vertices) + 1
    # negative zero, subnormals and the ends of the range: the text is that
    # of one 17-digit f-string per coordinate, and reads back bit for bit
    edge = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1 / 3, np.pi])
    z = edge[:, None] + 1j * edge[None, ::-1]
    text = polygon_csv(RangePolygon(z.ravel()))
    assert text == "re,im\n" + "".join(f"{w.real:.17g},{w.imag:.17g}\n" for w in z.ravel())
    back = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
    assert back.tobytes() == np.column_stack([z.real.ravel(), z.imag.ravel()]).tobytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        polygon_from_csv(path)


@pytest.mark.parametrize(
    "vertices",
    [
        [0, 1j, 1 + 1j, 1],  # the unit square clockwise
        [0, 1, 1 + 1j, 1, 1j],  # a repeated vertex
        [0, 1, 1],
        [0, 1, 2, 1j],  # a straight turn at 1
        [np.exp(4j * np.pi * j / 5) for j in range(5)],  # a pentagram: left turns, winding twice
    ],
)
def test_csv_rejects_polygons_that_break_the_contract(tmp_path, vertices):
    # a clockwise square read back at hausdorff 1.0 from itself, and a
    # repeated vertex divided by a zero-length edge in excess
    path = tmp_path / "bad.csv"
    path.write_text("re,im\n" + "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in np.asarray(vertices, dtype=complex)))
    with pytest.raises(ValueError, match="distinct|counterclockwise"):
        polygon_from_csv(path)


@pytest.mark.parametrize("vertices", [[2 - 1j], [0, 1j], [0, 1, 1 + 1j, 1j]])
def test_csv_accepts_points_segments_and_counterclockwise_polygons(tmp_path, vertices):
    path = tmp_path / "good.csv"
    polygon_to_csv(RangePolygon(np.array(vertices, dtype=complex)), path)
    back = polygon_from_csv(path)
    assert back.vertices.tolist() == vertices
    assert hausdorff(back, back) == 0.0


def test_polygon_validation():
    with pytest.raises(ValueError):
        RangePolygon(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        RangePolygon(np.array([np.nan + 0j]))

"""The support-angle sweep and the operator-level range computations."""

import tracemalloc

import numpy as np
import pytest

from numrange import sweep
from numrange.geometry import (
    RangePolygon,
    convex_hull,
    distance_to_region,
    hausdorff,
    support_width,
)
from numrange.linalg import hermitian_part
from numrange.operators import PeriodSpec, build_symbol, build_truncation, phi_grid
from numrange.sweep import (
    NotSelfAdjointError,
    SweepConfig,
    _dense_touch_points,
    _symbol_points,
    _truncation_points,
    _twist_angles,
    _union_directions,
    _union_twists,
    boundary_points,
    range_boundary,
    rayleigh_samples,
    selfadjoint_interval,
    symbol_union_hull,
    truncation_range,
    truncation_support,
)

RNG = np.random.default_rng(42)
WORD01 = PeriodSpec.from_word("01")


def random_complex(n: int) -> np.ndarray:
    return (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(num_theta=2)
    with pytest.raises(ValueError):
        SweepConfig(num_phi=0)
    cfg = SweepConfig()
    assert cfg.num_theta == 720 and cfg.num_phi == 720


def test_zero_matrix_is_single_point():
    poly = range_boundary(np.zeros((3, 3)), SweepConfig(90, 1))
    assert len(poly) == 1
    assert poly.vertices[0] == 0.0


def test_scalar_matrix():
    poly = range_boundary(np.array([[2 + 1j]]), SweepConfig(16, 1))
    assert len(poly) == 1
    assert poly.vertices[0] == 2 + 1j


def test_shift_matrix_gives_disk():
    cfg = SweepConfig(720, 1)
    poly = range_boundary(np.array([[0, 1], [0, 0]]), cfg)
    radii = np.abs(poly.vertices)
    assert radii.max() <= 0.5 + 1e-12
    assert radii.min() >= 0.5 - 1e-4
    for theta in np.linspace(0, 2 * np.pi, 13):
        assert support_width(poly, theta) == pytest.approx(0.5, abs=1e-4)


def test_affine_shift_of_disk():
    # ranges transform affinely, so [[1,1],[0,1]] is the disk at 1
    cfg = SweepConfig(720, 1)
    poly = range_boundary(np.array([[1, 1], [0, 1]]), cfg)
    radii = np.abs(poly.vertices - 1.0)
    assert radii.max() <= 0.5 + 1e-12
    assert radii.min() >= 0.5 - 1e-4


def test_boundary_points_are_rayleigh_quotients():
    a = random_complex(4)
    cfg = SweepConfig(64, 1)
    pts = boundary_points(a, cfg)
    assert pts.shape == (64,)
    # every support touch point realizes the top eigenvalue in its direction
    thetas = 2 * np.pi * np.arange(64) / 64
    for theta, z in zip(thetas, pts):
        top = np.linalg.eigvalsh(hermitian_part(a, theta))[-1]
        assert (z * np.exp(-1j * theta)).real == pytest.approx(top, abs=1e-10)


def test_polygon_support_never_exceeds_true_support():
    cfg = SweepConfig(240, 1)
    for n in (2, 3, 5):
        a = random_complex(n)
        poly = range_boundary(a, cfg)
        probe = 2 * np.pi * (np.arange(977) + 0.5) / 977
        for theta in probe[::13]:
            true_support = np.linalg.eigvalsh(hermitian_part(a, theta))[-1]
            assert support_width(poly, theta) <= true_support + 1e-10


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_rayleigh_samples_inside_polygon(n):
    a = random_complex(n)
    poly = range_boundary(a, SweepConfig(720, 1))
    samples = rayleigh_samples(a, 400, seed=n)
    assert distance_to_region(samples, poly).max() <= 1e-9


def test_rayleigh_samples_dim2_inside_inflated_polygon():
    # at dimension 2 samples concentrate near the boundary, so the inscribed
    # polygon's sliver (depth <= diam * dtheta / 4) is visible; inflate by a
    # safe bound of that depth
    num_theta = 720
    for seed in range(5):
        a = random_complex(2)
        poly = range_boundary(a, SweepConfig(num_theta, 1))
        samples = rayleigh_samples(a, 2000, seed=seed)
        inflation = np.linalg.norm(a) * (2 * np.pi / num_theta)
        assert distance_to_region(samples, poly).max() <= inflation


def test_rayleigh_samples_deterministic_and_validated():
    a = random_complex(3)
    s1 = rayleigh_samples(a, 50, seed=123)
    s2 = rayleigh_samples(a, 50, seed=123)
    np.testing.assert_array_equal(s1, s2)
    assert not np.array_equal(s1, rayleigh_samples(a, 50, seed=124))
    with pytest.raises(ValueError):
        rayleigh_samples(a, 0, seed=1)
    np.testing.assert_array_equal(rayleigh_samples(np.zeros((2, 2)), 9, seed=0), 0.0)


def test_shift_disk_sample_moduli_approach_half():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    samples = rayleigh_samples(a, 100_000, seed=7)
    top = np.abs(samples).max()
    assert top < 0.5
    assert top > 0.5 - 1e-3


def test_support_function_second_order_convergence():
    a = random_complex(4)
    probe = 2 * np.pi * (np.arange(64) + 0.5) / 64
    sups = {}
    for n in (90, 180, 360):
        poly = range_boundary(a, SweepConfig(n, 1))
        sups[n] = np.array([support_width(poly, t) for t in probe])
    delta1 = np.abs(sups[180] - sups[90]).max()
    delta2 = np.abs(sups[360] - sups[180]).max()
    assert delta2 <= 0.5 * delta1 + 1e-12


def test_rotation_equivariance():
    cfg = SweepConfig(240, 1)
    a = random_complex(4)
    base = range_boundary(a, cfg)
    for alpha in 2 * np.pi * np.arange(8) / 8:
        rotated = range_boundary(np.exp(1j * alpha) * a, cfg)
        expected = RangePolygon(np.exp(1j * alpha) * base.vertices)
        assert hausdorff(rotated, expected) <= 1e-9


def test_translation_equivariance():
    cfg = SweepConfig(240, 1)
    a = random_complex(4)
    base = range_boundary(a, cfg)
    for beta in (1.0, -2.0 + 0.5j, 3j):
        shifted = range_boundary(a + beta * np.eye(4), cfg)
        expected = RangePolygon(base.vertices + beta)
        assert hausdorff(shifted, expected) <= 1e-9


def test_origin_symmetry_for_zero_diagonal_specs():
    cfg = SweepConfig(240, 1)
    rng = np.random.default_rng(5)
    specs = [
        WORD01,
        PeriodSpec.from_word("001"),
        PeriodSpec(a=rng.choice([-1.0, 1.0], 3), b=0.0, c=rng.choice([-1.0, 1.0], 3)),
    ]
    for spec in specs:
        for k in (1, 2, 5, 17, 30):
            poly = truncation_range(spec, k, cfg)
            negated = RangePolygon(-poly.vertices)
            assert hausdorff(poly, negated) <= 1e-8


# --- selfadjoint_interval --------------------------------------------------------


def test_selfadjoint_interval_all_ones():
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    lo, hi = selfadjoint_interval(spec)
    assert lo == pytest.approx(-2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_selfadjoint_interval_constant_diagonal():
    spec = PeriodSpec(a=0, b=2.5, c=0, p=3)
    lo, hi = selfadjoint_interval(spec)
    assert (lo, hi) == (2.5, 2.5)


def test_selfadjoint_interval_twist_between_grid_points():
    # the extreme twists are -0.37 and pi - 0.37, off every uniform grid
    c = np.array([1.0, 0.7, 1.3 * np.exp(0.37j)])
    spec = PeriodSpec(a=np.conj(np.roll(c, 1)), b=(0.2, -0.5, 0.1), c=c)
    assert spec.is_selfadjoint()
    lo, hi = selfadjoint_interval(spec)
    assert hi == pytest.approx(top_over_phi(spec, 0.0, 20_000), abs=1e-12)
    assert lo == pytest.approx(-top_over_phi(spec, np.pi, 20_000), abs=1e-12)
    eight = np.linalg.eigvalsh(np.stack([build_symbol(spec, phi) for phi in phi_grid(8)]))
    assert hi - eight[:, -1].max() > 1e-4 and eight[:, 0].min() - lo > 1e-4


def test_selfadjoint_interval_alternating_vs_truncation():
    # decoupled swap blocks: the symbol is [[0,1],[1,0]] for every phi
    spec = PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0))
    assert spec.is_selfadjoint()
    lo, hi = selfadjoint_interval(spec)
    w = np.linalg.eigvalsh(build_truncation(spec, 400))
    assert abs(lo - w[0]) <= 1e-2
    assert abs(hi - w[-1]) <= 1e-2
    assert (lo, hi) == pytest.approx((-1.0, 1.0), abs=1e-12)


def test_selfadjoint_interval_rejects_non_selfadjoint():
    with pytest.raises(NotSelfAdjointError):
        selfadjoint_interval(WORD01)


# --- union hulls and truncation ranges -------------------------------------------


def test_union_hull_diagonal_spec_is_segment():
    spec = PeriodSpec(a=0, b=(1.0, 1j), c=0)
    hull = symbol_union_hull(spec, SweepConfig(64, 16))
    assert len(hull) == 2
    assert distance_to_region([1.0, 1j, 0.5 + 0.5j], hull).max() <= 1e-12


def test_union_hull_selfadjoint_is_real_segment():
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    hull = symbol_union_hull(spec, SweepConfig(128, 128))
    assert np.abs(hull.vertices.imag).max() <= 1e-9
    assert support_width(hull, 0.0) == pytest.approx(2.0, abs=1e-4)
    assert support_width(hull, np.pi) == pytest.approx(2.0, abs=1e-4)


def test_truncation_range_k1_is_point():
    poly = truncation_range(WORD01, 1, SweepConfig(16, 1))
    assert len(poly) == 1 and poly.vertices[0] == 0.0


def test_truncation_ranges_are_nested():
    # containment of the true ranges, tested against the outer half-plane
    # description of W(T_{k+1}): every vertex of the k-polygon (a point of
    # W(T_k)) must obey every support inequality of W(T_{k+1})
    cfg = SweepConfig(180, 1)
    thetas = 2 * np.pi * np.arange(cfg.num_theta) / cfg.num_theta
    prev = None
    for k in range(1, 31):
        t = build_truncation(WORD01, k)
        poly = range_boundary(t, cfg)
        supports = np.array(
            [np.linalg.eigvalsh(hermitian_part(t, theta))[-1] for theta in thetas]
        )
        if prev is not None:
            proj = (prev.vertices[:, None] * np.exp(-1j * thetas)[None, :]).real
            assert (proj <= supports[None, :] + 1e-9).all()
        prev = poly


def test_truncation_range_converges_to_union_hull():
    cfg = SweepConfig(360, 360)
    hull = symbol_union_hull(WORD01, cfg)
    trunc = truncation_range(WORD01, 120, cfg)
    assert hausdorff(trunc, hull) <= 0.05


# --- the tridiagonal truncation sweep against the dense sweep ---------------------


def random_spec(rng, p: int) -> PeriodSpec:
    draw = lambda: rng.standard_normal(p) + 1j * rng.standard_normal(p)
    return PeriodSpec(a=draw(), b=draw(), c=draw())


@pytest.mark.parametrize("p", [2, 3, 4])
def test_truncation_points_match_dense_sweep(p):
    rng = np.random.default_rng(100 + p)
    cfg = SweepConfig(180, 1)
    for k in (1, 2, 3, 7, 50, 200):
        spec = random_spec(rng, p)
        dense = boundary_points(build_truncation(spec, k), cfg)
        points = _truncation_points(spec, k, cfg)
        assert points.shape == dense.shape == (cfg.num_theta,)
        assert np.abs(points - dense).max() <= 1e-12


@pytest.mark.parametrize("word", ["01", "001", "0001"])
def test_truncation_hull_matches_dense_at_flat_edges(word):
    # the top eigenvalue is degenerate at theta = pi/2 and 3pi/2 (the
    # Hermitian part splits into repeated blocks), where flat-edge ends are emitted
    spec = PeriodSpec.from_word(word)
    cfg = SweepConfig(360, 1)
    for k in (60, 61):
        points = _truncation_points(spec, k, cfg)
        dense = boundary_points(build_truncation(spec, k), cfg)
        assert points.size == dense.size > cfg.num_theta
        fast = truncation_range(spec, k, cfg).vertices
        slow = range_boundary(build_truncation(spec, k), cfg).vertices
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= 1e-12


def test_truncation_support_free_jacobi_closed_form():
    # a = c = 1, b = 0: T_k has eigenvalues 2 cos(j pi / (k + 1)), j = 1..k
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    for k in (1, 2, 3, 10, 400, 1001):
        top, minus_bottom = truncation_support(spec, k, [0.0, np.pi])
        assert top == pytest.approx(2 * np.cos(np.pi / (k + 1)), abs=1e-12)
        assert minus_bottom == pytest.approx(2 * np.cos(np.pi / (k + 1)), abs=1e-12)


def test_truncation_support_matches_scipy_tridiagonal_at_k800():
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    k, cfg = 800, SweepConfig(360, 1)
    thetas = 2 * np.pi * np.arange(cfg.num_theta) / cfg.num_theta
    j = np.arange(k)
    expected = []
    for theta in thetas:
        w = np.exp(-1j * theta)
        off = np.abs(w * WORD01.c[j[:-1] % 2] + np.conj(w * WORD01.a[j[1:] % 2])) / 2
        expected.append(
            eigh_tridiagonal(np.zeros(k), off, eigvals_only=True,
                             select="i", select_range=(k - 1, k - 1))[0]
        )
    expected = np.array(expected)
    assert np.abs(truncation_support(WORD01, k, thetas) - expected).max() <= 1e-12
    poly = truncation_range(WORD01, k, cfg)
    supports = np.array([support_width(poly, theta) for theta in thetas])
    assert np.abs(supports - expected).max() <= 1e-12


def test_truncation_range_memory_is_linear_in_k():
    # the dense (num_theta, k, k) batch would need about 7.4 GB here, twice
    # over with its eigenvectors; the tridiagonal sweep keeps (num_theta, k)
    # work arrays, and the flat-edge ends O(k) ones per flat-edge angle
    tracemalloc.start()
    try:
        poly = truncation_range(WORD01, 800, SweepConfig(num_theta=720))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly) > 720
    assert peak < 160 * 2**20


# --- the union sweep at the maximising twist -----------------------------------------


def dense_symbol_points(spec: PeriodSpec, cfg: SweepConfig) -> list[np.ndarray]:
    """The per-phi sweep: boundary_points of every symbol on the phi grid."""
    return [boundary_points(build_symbol(spec, phi), cfg) for phi in phi_grid(cfg.num_phi)]


def top_eigenvalues(spec: PeriodSpec, theta, phi) -> np.ndarray:
    """Largest eigenvalue of the Hermitian part of e^{-i theta} S(phi), elementwise."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    m = np.exp(-1j * theta)[..., None, None] * build_symbol(spec, phi)
    return np.linalg.eigvalsh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))[..., -1]


def top_over_phi(spec: PeriodSpec, thetas, num_phi: int) -> np.ndarray:
    """max over phi of the top eigenvalue at each theta: the best of a
    num_phi grid, refined by golden-section search around it.  The top
    eigenvalue is a monotone function of cos(phi - phi*), so it is unimodal
    on the circle and the search finds its maximum."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    grid = phi_grid(num_phi)
    values = top_eigenvalues(spec, thetas[:, None], grid[None, :])
    lo = grid[values.argmax(axis=1)] - 2 * np.pi / num_phi
    hi = lo + 4 * np.pi / num_phi
    ratio = (np.sqrt(5) - 1) / 2
    for _ in range(80):
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        higher = top_eigenvalues(spec, thetas, left) >= top_eigenvalues(spec, thetas, right)
        lo, hi = np.where(higher, lo, left), np.where(higher, right, hi)
    best = np.maximum(values.max(axis=1), top_eigenvalues(spec, thetas, (lo + hi) / 2))
    return best if best.size > 1 else best[0]


def polygon_support(vertices, thetas) -> np.ndarray:
    rotated = np.asarray(vertices)[None, :] * np.exp(-1j * np.asarray(thetas))[:, None]
    return rotated.real.max(axis=1)


@pytest.mark.parametrize("p", range(2, 9))
def test_maximising_twist(p):
    # lambda_max at the twist is the sup over phi, and its top eigenvector's
    # Rayleigh quotient with S(phi*) touches the support line
    rng = np.random.default_rng(500 + p)
    for _ in range(3):
        spec = random_spec(rng, p)
        thetas = rng.uniform(0, 2 * np.pi, 8)
        phi, vanishing = _twist_angles(spec, thetas)
        assert not vanishing.any()
        symbols = build_symbol(spec, phi)
        m = np.exp(-1j * thetas)[:, None, None] * symbols
        values, vecs = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
        grid = top_eigenvalues(spec, thetas[:, None], phi_grid(4000)[None, :]).max(axis=1)
        assert (values[:, -1] >= grid - 1e-13).all()
        y = vecs[:, :, -1]
        z = np.einsum("ti,tij,tj->t", y.conj(), symbols, y)
        assert np.abs((np.exp(-1j * thetas) * z).real - values[:, -1]).max() <= 1e-13


@pytest.mark.parametrize("num_theta", [190, 719])
def test_word01_union_hull_off_the_flat_edges(num_theta):
    # no grid angle hits the flat edges at theta = pi/2, 3pi/2; the stadium's
    # support is |cos t| + 1/2, and an inscribed polygon through touch points
    # at every grid angle falls short on its half-disks by at most
    # (1 - cos(pi / num_theta)) / 2
    hull = symbol_union_hull(WORD01, SweepConfig(num_theta, num_theta))
    t = 2 * np.pi * np.arange(20_011) / 20_011
    exact = np.abs(np.cos(t)) + 0.5
    support = polygon_support(hull.vertices, t)
    assert (support <= exact + 1e-12).all()
    assert (exact - support).max() <= (1 - np.cos(np.pi / num_theta)) / 2 + 1e-12


def test_union_directions_refine_only_where_the_twist_turns():
    # word 01's twist turns by one phi step per grid interval on its arcs
    # (rounding must not make that two parts), and jumps next to the split
    # directions pi/2 and 3pi/2, where it is taken as 0: about 180 parts
    # on each of the four intervals beside them
    thetas = _union_directions(WORD01, SweepConfig(720, 720))
    grid = 2 * np.pi * np.arange(720) / 720
    on_arcs = lambda t: np.abs(np.cos(t)) > np.sin(2 * np.pi / 720) * (1 + 1e-9)
    assert np.isin(grid, thetas).all() and thetas.size == 1432
    assert on_arcs(thetas).sum() == on_arcs(grid).sum()
    assert _twist_angles(WORD01, thetas)[1].any(axis=1).sum() == 2


@pytest.mark.parametrize("word", ["001", "0001"])
def test_union_directions_refine_beside_split_directions(word):
    # the twist jumps by about pi/2 across a split direction; the parts the
    # refinement adds beside it keep the gap at the grid midpoints below
    # the half-disk bound of test_word01_union_hull_off_the_flat_edges
    # (without them 001 reads 5.7e-4 and 0001 6.3e-4)
    spec, cfg = PeriodSpec.from_word(word), SweepConfig(96, 96)
    mid = 2 * np.pi * (np.arange(96) + 0.5) / 96
    gap = top_over_phi(spec, mid, 720) - polygon_support(symbol_union_hull(spec, cfg).vertices, mid)
    assert gap.max() <= (1 - np.cos(np.pi / 96)) / 2


# edges 1 and 3 vanish at pi/2 and leave two equal blocks, so the top is
# double there and the touch segment of S(phi) turns with phi in no closed form
TWO_EDGES = PeriodSpec(
    a=(-0.3 - 1.1j, 0.7j, 0.6 - 0.8j, 0.7j), b=(0.2, -0.4, 0.2, -0.4), c=(1.0, 0.6 + 0.8j, 1.0, -0.3 + 1.1j)
)


@pytest.mark.parametrize(
    "spec, thetas",
    [
        (WORD01, [np.pi / 2, 3 * np.pi / 2]),
        (PeriodSpec.from_word("11"), [np.pi / 2]),
        (PeriodSpec(a=0, b=(1.0, 1j), c=0), [0.0, np.pi / 4, 2.0]),
        (PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0)), [0.3, np.pi / 2, 4.0]),
        (TWO_EDGES, [np.pi / 2]),
    ],
    ids=["01", "11", "diagonal", "split", "two-edges"],
)
def test_split_touch_points_match_dense_sweep(spec, thetas):
    # at each split direction the touch points of the union twists (two
    # closed-form ends for word 01, the grid for word 11 and the two-edge
    # spec, one twist for the specs without an edge) are points of the
    # per-phi dense sweep and span the same segment of the support line;
    # degenerate directions (word 11 and the two-edge spec at pi/2, the
    # diagonal spec at pi/4, the split spec at pi/2) add their flat-edge ends
    assert _twist_angles(spec, np.array(thetas))[1].any(axis=1).all()
    symbols = build_symbol(spec, phi_grid(48))
    for theta in thetas:
        directions, phi = _union_twists(spec, np.array([theta]), 48)
        points = _dense_touch_points(build_symbol(spec, phi), np.exp(-1j * directions))
        dense = _dense_touch_points(symbols, np.full(48, np.exp(-1j * theta)))
        assert np.abs(points[:, None] - dense[None, :]).min(axis=1).max() <= 1e-12
        ends = convex_hull(dense).vertices
        assert np.abs(ends[:, None] - points[None, :]).min(axis=1).max() <= 1e-12


def forced_split_specs() -> dict[str, PeriodSpec]:
    """Words 01 to 00001, which split at pi/2 on one edge, and seeded random
    complex specs (p = 3..6) whose edge j, wrap edge included, vanishes
    there: a_{j+1} = conj(c_j) makes it c_j cos(theta)."""
    specs = {w: PeriodSpec.from_word(w) for w in ["01", "001", "0001", "00001"]}
    rng = np.random.default_rng(2024)
    for i in range(30):
        p, j = 3 + i % 4, i % (3 + i % 4)
        a, b, c = (rng.standard_normal(p) + 1j * rng.standard_normal(p) for _ in range(3))
        a[(j + 1) % p] = np.conj(c[j])
        specs[f"random{i}"] = PeriodSpec(a=a, b=b, c=c)
    return specs


@pytest.mark.parametrize("spec", forced_split_specs().values(), ids=forced_split_specs().keys())
def test_split_twists_give_the_flat_edge_ends(spec):
    # the two closed-form twists' touch points lie on the support line, and
    # no touch point of a 20,000-phi grid lies beyond them along it
    theta = np.pi / 2
    directions, phi = _union_twists(spec, np.array([theta]), 720)
    assert phi.size == 2
    ends = _dense_touch_points(build_symbol(spec, phi), np.exp(-1j * directions))
    assert ends.size == 2
    top = top_eigenvalues(spec, theta, 0.0)
    assert np.abs((np.exp(-1j * theta) * ends).real - top).max() <= 1e-12
    symbols = build_symbol(spec, phi_grid(20_000))
    m = np.exp(-1j * theta) * symbols
    y = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))[1][:, :, -1]
    along = (np.exp(-1j * theta) * np.einsum("ti,tij,tj->t", y.conj(), symbols, y)).imag
    lo, hi = np.sort((np.exp(-1j * theta) * ends).imag)
    assert along.min() >= lo - 1e-13 and along.max() <= hi + 1e-13


@pytest.mark.parametrize(
    "spec",
    [PeriodSpec(a=0, b=(1.0, 1j), c=0), PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0))],
    ids=["diagonal", "split"],
)
def test_union_without_an_edge_takes_one_twist_per_direction(spec):
    # the operator lacks an edge (c_j = a_{j+1} = 0), so every symbol is
    # unitarily similar to S(0); the per-phi sweep emits 720 * 720 points
    assert _symbol_points(spec, SweepConfig(720, 720)).size < 8 * 720


def test_word01_flat_edge_ends_are_vertices():
    # pi/2 and 3pi/2 are split directions of the 96-angle grid; their two
    # closed-form twists reach both ends of each flat edge of the stadium
    v = symbol_union_hull(WORD01, SweepConfig(96, 96)).vertices
    ends = np.array([1 + 0.5j, -1 + 0.5j, -1 - 0.5j, 1 - 0.5j])
    assert np.abs(v[None, :] - ends[:, None]).min(axis=1).max() <= 1e-12


@pytest.mark.parametrize(
    "spec, same_hull",
    [
        (PeriodSpec.from_word("01"), False),
        (PeriodSpec.from_word("001"), False),
        (PeriodSpec.from_word("0001"), False),
        (PeriodSpec(a=0, b=(1.0, 1j), c=0), True),
        (PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0)), True),
        (PeriodSpec(a=1, b=0, c=1, p=2), True),
    ],
    ids=["01", "001", "0001", "diagonal", "split", "selfadjoint"],
)
def test_symbol_union_hull_matches_dense_sweep(spec, same_hull):
    # the union hull reaches the per-phi dense hull's support at every grid
    # angle, and stays inside the union (its support found by a phi search)
    # at the grid angles and the midpoints between them; the segments of the
    # diagonal, split and self-adjoint specs come out the same
    cfg = SweepConfig(96, 96)
    hull = symbol_union_hull(spec, cfg).vertices
    dense = convex_hull(np.concatenate(dense_symbol_points(spec, cfg))).vertices
    grid = 2 * np.pi * np.arange(cfg.num_theta) / cfg.num_theta
    assert (polygon_support(hull, grid) >= polygon_support(dense, grid) - 1e-12).all()
    probe = np.pi * np.arange(2 * cfg.num_theta) / cfg.num_theta
    assert (polygon_support(hull, probe) <= top_over_phi(spec, probe, 720) + 1e-12).all()
    if same_hull:
        assert hull.shape == dense.shape and np.abs(hull - dense).max() <= 1e-12


def test_symbol_union_hull_memory_is_bounded():
    # the dense sweep hands its directions to eigh in bounded batches
    tracemalloc.start()
    try:
        symbol_union_hull(PeriodSpec.from_word("0001"), SweepConfig(720, 720))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20


def test_dense_sweep_memory_is_bounded():
    # the whole (num_theta, n, n) batch of Hermitian parts would take 110 MiB
    # here, several times over with its eigenvectors and temporaries
    a = np.random.default_rng(7).standard_normal((100, 100))
    tracemalloc.start()
    try:
        poly = range_boundary(a, SweepConfig(720, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly) > 100
    assert peak < 64 * 2**20


def test_dense_sweep_chunks_change_no_bit(monkeypatch):
    # word 01's truncation has flat edges at theta = pi/2 and 3pi/2, whose
    # ends come after the top points whatever the chunking
    stack = np.repeat(build_truncation(WORD01, 6)[None], 64, axis=0)
    phase = np.exp(-1j * 2 * np.pi * np.arange(64) / 64)
    whole = _dense_touch_points(stack, phase)
    assert whole.size > 64
    monkeypatch.setattr(sweep, "_DENSE_BATCH_BYTES", 7 * 16 * 36)
    np.testing.assert_array_equal(_dense_touch_points(stack, phase), whole)


# --- flat-edge ends of truncations in O(k), and the multisection core ------------


def test_truncation_support_input_shapes():
    assert truncation_support(WORD01, 5, []).shape == (0,)
    thetas = np.linspace(0.0, 2 * np.pi, 12).reshape(3, 4)
    grid = truncation_support(WORD01, 7, thetas)
    assert grid.shape == (3, 4)
    np.testing.assert_array_equal(grid.ravel(), truncation_support(WORD01, 7, thetas.ravel()))
    assert truncation_support(WORD01, 7, 0.5).shape == ()


def test_multisection_matches_bisection(monkeypatch):
    # few columns take many shifts per Sturm pass; one shift per pass is
    # bisection, and both stop at a bracket of a few ulps around the top
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for p in (2, 3, 5):
        spec = random_spec(rng, p)
        thetas = rng.uniform(0.0, 2 * np.pi, 3)
        d, e = sweep._scaled_tridiagonals(spec, thetas)[:2]
        for k in (1, 2, 9, 300):
            multi = sweep._top_eigenvalues(d, e, k)
            monkeypatch.setattr(sweep, "_MULTISECTION_WIDTH", 1)
            plain = sweep._top_eigenvalues(d, e, k)
            monkeypatch.undo()
            assert np.all(np.abs(multi - plain) <= 2 * eps * (np.abs(plain) + 1))
            # both are upper ends of brackets: no eigenvalue at or above them
            assert not sweep._count_above(d, e * e, multi, k).any()
            assert not sweep._count_above(d, e * e, plain, k).any()


def vanishing_edge_spec(seed: int, p: int, theta: float) -> PeriodSpec:
    """Random complex spec whose edge 0 of the Hermitian part vanishes at theta
    (and theta + pi): ``c_0 = -conj(a_1) e^{2i theta}``."""
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(p) + 1j * rng.standard_normal(p) for _ in range(3))
    c[0] = -np.conj(a[1]) * np.exp(2j * theta)
    return PeriodSpec(a=a, b=b, c=c)


FLAT_SPECS = {
    **{word: PeriodSpec.from_word(word) for word in ("01", "001", "0001", "00001", "11")},
    "split": PeriodSpec(a=(0, 1), b=0, c=(1, 0)),
    "random": vanishing_edge_spec(12, 3, 2 * np.pi * 7 / 120),
}


@pytest.mark.parametrize("k", [1, 2, 3, 7, 60, 61, 200])
@pytest.mark.parametrize("name", list(FLAT_SPECS))
def test_truncation_flat_edge_ends_match_dense(name, k):
    # word 11 has two vanishing edges at pi/2, the split spec one at every
    # angle; the random spec's blocks differ between its two flat-edge angles
    spec, cfg = FLAT_SPECS[name], SweepConfig(120, 1)
    t_k = build_truncation(spec, k)
    points, dense = _truncation_points(spec, k, cfg), boundary_points(t_k, cfg)
    assert points.size == dense.size
    top, ends = points[: cfg.num_theta], points[cfg.num_theta :]
    np.testing.assert_allclose(ends, dense[cfg.num_theta :], rtol=0, atol=1e-12)
    # off the flat-edge angles the top points agree; on them they lie on the edge
    values = np.linalg.eigvalsh(np.stack([hermitian_part(t_k, t) for t in phi_grid(cfg.num_theta)]))
    flat = np.zeros(cfg.num_theta, dtype=bool)
    if k > 1:
        flat = values[:, -1] - values[:, -2] <= sweep._gap_tol(values[:, -1])
    assert 2 * flat.sum() == ends.size
    np.testing.assert_allclose(top[~flat], dense[: cfg.num_theta][~flat], rtol=0, atol=1e-12)
    lo, hi, top = ends[::2], ends[1::2], top[flat]
    along = ((top - lo) * np.conj(hi - lo)).real / np.maximum(np.abs(hi - lo) ** 2, 1e-300)
    assert np.abs(lo + np.clip(along, 0, 1) * (hi - lo) - top).max(initial=0) <= 1e-12
    fast, slow = convex_hull(points).vertices, convex_hull(dense).vertices
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-12


@pytest.mark.parametrize("k", [200, 201])
def test_truncation_near_split_is_inscribed_and_not_below_dense(k):
    # edge 0 of the Hermitian part only falls to 5e-9 at pi/2, far above the
    # degeneracy tolerance, so the blocks there are cut at a nonzero edge
    spec, cfg = PeriodSpec(a=(0, 1 + 1e-8), b=0, c=1), SweepConfig(360, 1)
    thetas = np.random.default_rng(9).uniform(0.0, 2 * np.pi, 20_000)
    support = lambda poly: (poly.vertices[:, None] * np.exp(-1j * thetas)).real.max(axis=0)
    fast = support(truncation_range(spec, k, cfg))
    assert np.all(fast >= support(range_boundary(build_truncation(spec, k), cfg)) - 1e-12)
    assert np.all(fast <= truncation_support(spec, k, thetas) + 1e-12)


def test_truncation_flat_edge_chunks(monkeypatch):
    # the split spec is flat at every angle; chunks of 5 angles change the
    # multisection width of the Sturm core, so only rounding may move
    spec, cfg, k = FLAT_SPECS["split"], SweepConfig(64, 1), 61
    whole = _truncation_points(spec, k, cfg)
    assert whole.size == 3 * cfg.num_theta
    monkeypatch.setattr(sweep, "_DENSE_BATCH_BYTES", 8 * k * 5)
    np.testing.assert_allclose(_truncation_points(spec, k, cfg), whole, rtol=0, atol=1e-14)


def test_truncation_range_needs_no_lapack(monkeypatch):
    def refuse(_):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(sweep, "eigh", refuse)
    poly = truncation_range(WORD01, 61, SweepConfig(360, 1))
    assert len(poly) > 360
    assert np.isclose(poly.vertices.imag.max(), 0.5)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_truncation_flat_edges_memory_is_linear_in_k():
    # dense k-by-k solves at the two flat-edge angles peak at about 88 MiB
    assert _traced_peak(lambda: truncation_range(WORD01, 1000, SweepConfig(8, 1))) < 16 * 2**20


def test_truncation_support_memory_is_bounded_in_k():
    # two angles take hundreds of shifts per Sturm pass; the pivots go
    # through a fixed block of rows instead of a (k, shifts) array
    assert _traced_peak(lambda: truncation_support(WORD01, 5000, [0.0, np.pi])) < 4 * 2**20


# finite entries whose Hermitian parts and p = 2 symbols overflow
HUGE = PeriodSpec(p=2, a=1e308, b=0, c=1e308)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: truncation_range(HUGE, 5, SweepConfig(16, 1)),
        lambda: truncation_support(HUGE, 5, [0.0]),
        lambda: symbol_union_hull(HUGE, SweepConfig(16, 4)),
        lambda: boundary_points(np.full((2, 2), 1e308), SweepConfig(16, 1)),
    ],
)
def test_non_finite_intermediates_raise(sweep):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        sweep()

"""The support-angle sweep and the operator-level range computations."""

import tracemalloc
import warnings

import numpy as np
import pytest

from numrange import sweep
from numrange.geometry import (
    RangePolygon,
    convex_hull,
    hausdorff,
    support_width,
)
from numrange.operators import PeriodSpec, build_symbol, build_truncation, conjecture_specs, phi_grid
from numrange.sweep import (
    NotSelfAdjointError,
    SweepConfig,
    _symbol_points,
    _truncation_points,
    _twist_angles,
    _union_directions,
    boundary_points,
    range_boundary,
    selfadjoint_interval,
    symbol_union_hull,
    truncation_range,
    truncation_support,
)
from oracles import (
    bisection_tops,
    complex_floquet_step,
    conjecture_pair,
    distance_to_region,
    mp_touch_point,
    rayleigh_samples,
)

RNG = np.random.default_rng(42)
WORD01 = PeriodSpec.from_word("01")


def random_complex(n: int) -> np.ndarray:
    return (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))) / np.sqrt(2)


def hermitian_part(a, theta) -> np.ndarray:
    """Hermitian part of exp(-i theta) a, by its formula."""
    m = np.exp(-1j * theta) * np.asarray(a, dtype=complex)
    return (m + m.conj().T) / 2


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(num_theta=2)
    with pytest.raises(ValueError):
        SweepConfig(num_phi=0)
    cfg = SweepConfig()
    assert cfg.num_theta == 720 and cfg.num_phi == 720


def test_sizes_must_be_integers(monkeypatch):
    # a float size is refused before any sweep (12.5 angles once swept 13
    # uneven ones, and a float k failed in range() deep inside); numpy
    # integers are sizes
    for bad in ({"num_theta": 12.5}, {"num_theta": 12.0}, {"num_phi": 2.5}):
        with pytest.raises(TypeError):
            SweepConfig(**bad)
    cfg = SweepConfig(np.int64(12), np.int64(1))
    calls = {"range": lambda k: truncation_range(WORD01, k, cfg), "support": lambda k: truncation_support(WORD01, k, [0.0, 1.0])}
    expected = {name: call(20) for name, call in calls.items()}
    np.testing.assert_array_equal(calls["range"](np.int64(20)).vertices, expected["range"].vertices)
    np.testing.assert_array_equal(calls["support"](np.int64(20)), expected["support"])

    def sweep_started(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sweep, "_scaled_tridiagonals", sweep_started)
    for call in calls.values():
        for k in (20.0, 20.5):
            with pytest.raises(TypeError):
                call(k)


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


def test_selfadjoint_interval_needs_no_lapack(monkeypatch):
    def refuse(*_):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(sweep, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert selfadjoint_interval(PeriodSpec(a=1, b=0, c=1, p=2)) == (-2.0, 2.0)


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


@pytest.mark.parametrize("scale", [2.0**-500, 1e-13, 2.0**500])
def test_selfadjoint_interval_at_any_scale(scale):
    # the free Jacobi spec's interval is [-2, 2] times the scale, and word 01
    # is refused however small
    lo, hi = selfadjoint_interval(PeriodSpec(a=scale, b=0, c=scale, p=2))
    assert abs(lo / scale + 2) <= 1e-12 and abs(hi / scale - 2) <= 1e-12
    with pytest.raises(NotSelfAdjointError):
        selfadjoint_interval(PeriodSpec(a=(0, scale), b=0, c=scale))


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


@pytest.mark.parametrize("num_theta", [16, 90, 360, 720])
def test_conjecture_pairs_match_dense_sweep(num_theta):
    # B + J and B - J are one-copy truncations (k = p = n + 1)
    cfg = SweepConfig(num_theta, 1)
    for n in range(1, 13):
        for spec, matrix in zip(conjecture_specs(n), conjecture_pair(n)):
            dense = range_boundary(matrix, cfg)
            assert hausdorff(truncation_range(spec, n + 1, cfg), dense) <= 1e-14


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


def two_edge_specs() -> dict[str, PeriodSpec]:
    """Seeded random complex specs (p = 4..7) whose edges j and l vanish at
    pi/2: a_{j+1} = conj(c_j) makes edge j c_j cos(theta).  The wrap edge
    is among them in some, and not in others."""
    rng, specs = np.random.default_rng(2025), {}
    for i in range(6):
        p = 4 + i % 4
        a, b, c = (rng.standard_normal(p) + 1j * rng.standard_normal(p) for _ in range(3))
        for j in rng.choice(p, 2, replace=False):
            a[(j + 1) % p] = np.conj(c[j])
        specs[f"two-edges{i}"] = PeriodSpec(a=a, b=b, c=c)
    return specs


def core_touch_points(spec: PeriodSpec, thetas) -> np.ndarray:
    """The union's O(p) touch points at directions ``thetas``."""
    return sweep._cycle_touch_points(spec, np.asarray(thetas, dtype=float))


def flat_edge_extremes(spec: PeriodSpec, theta: float, phi):
    """The dense oracle of the union at theta, for each twist of ``phi``:
    the support of W(S(phi)) and the two ends, along the support line, of
    the flat edge where it touches (the extremes of the skew part compressed
    to the top eigenspace of the Hermitian part, by eigh)."""
    m = np.exp(-1j * theta) * build_symbol(spec, phi)
    values, vecs = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    top = values[:, -1]
    dims = (values >= (top - 1e-10 * (1 + np.abs(top)))[:, None]).sum(axis=1)
    ends = np.empty((2, top.size))
    for dim in np.unique(dims):
        t = dims == dim
        span = vecs[t][:, :, -dim:]
        skew = (m[t] - np.conj(np.swapaxes(m[t], -1, -2))) / 2j
        compressed = np.conj(np.swapaxes(span, -1, -2)) @ skew @ span
        ends[:, t] = np.linalg.eigvalsh(0.5 * (compressed + np.conj(np.swapaxes(compressed, -1, -2))))[:, [0, -1]].T
    return top, ends


def dense_flat_edge(spec: PeriodSpec, theta: float, num_phi: int = 200_000):
    """The union's support at theta, the ends of its flat edge along the
    support line on a ``num_phi`` twist grid, and those ends refined by
    golden-section search within a grid step of the best twist (the
    extremes are smooth in phi, so a grid falls short of them by about the
    square of its step: 4.7e-12 for TWO_EDGES at this grid)."""
    grid, step = phi_grid(num_phi), 2 * np.pi / num_phi
    parts = [flat_edge_extremes(spec, theta, grid[s : s + 20_000]) for s in range(0, num_phi, 20_000)]
    top, ends = np.concatenate([x[0] for x in parts]), np.hstack([x[1] for x in parts])
    refined, ratio = [], (np.sqrt(5) - 1) / 2
    for side, sign in enumerate([-1.0, 1.0]):
        values = sign * ends[side]
        lo, hi = grid[values.argmax()] - step, grid[values.argmax()] + step
        for _ in range(60):
            left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            f = sign * flat_edge_extremes(spec, theta, [left, right])[1][side]
            lo, hi = (lo, right) if f[0] >= f[1] else (left, hi)
        best = sign * flat_edge_extremes(spec, theta, [(lo + hi) / 2])[1][side, 0]
        refined.append(sign * max(values.max(), best))
    return top.max(), ends[0].min(), ends[1].max(), np.array(refined)


SPLIT_DIRECTIONS = {
    "01": (WORD01, [np.pi / 2, 3 * np.pi / 2]),
    "11": (PeriodSpec.from_word("11"), [np.pi / 2]),
    "diagonal": (PeriodSpec(a=0, b=(1.0, 1j), c=0), [0.0, np.pi / 4, 2.0]),
    "split": (PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0)), [0.3, np.pi / 2, 4.0]),
    "two-edges": (TWO_EDGES, [np.pi / 2]),
    **{name: (spec, [np.pi / 2]) for name, spec in two_edge_specs().items()},
}


@pytest.mark.parametrize("name", SPLIT_DIRECTIONS)
def test_split_touch_points_match_dense_sweep(name):
    # at each split direction (where an edge vanishes: one for word 01 and
    # the split spec off pi/2, two or more for the others) the union's two
    # touch points lie on the support line and are the ends of its flat
    # edge: the extremes along that line of a 200,000-twist dense sweep,
    # refined around its best twists, and no twist of the grid reaches
    # beyond them; degenerate directions (word 11 and TWO_EDGES at pi/2,
    # the diagonal spec at pi/4, the split spec at pi/2) take the blocks
    # the cut leaves
    spec, thetas = SPLIT_DIRECTIONS[name]
    vanishing = _twist_angles(spec, np.array(thetas))[1]
    assert vanishing.any(axis=1).all()
    for theta in thetas:
        points = core_touch_points(spec, [theta])
        assert points.size == 2
        z = np.exp(-1j * theta) * points
        top, grid_lo, grid_hi, ends = dense_flat_edge(spec, theta)
        assert np.abs(z.real - top).max() <= 1e-12
        assert np.abs(np.sort(z.imag) - ends).max() <= 1e-12
        assert grid_lo >= z.imag.min() - 1e-12 and grid_hi <= z.imag.max() + 1e-12


def test_two_edge_specs_split_into_blocks():
    # each seeded spec has exactly two vanishing edges at pi/2, the wrap
    # edge among them in some specs and not in others
    vanishing = [_twist_angles(s, np.array([np.pi / 2]))[1][0] for s in two_edge_specs().values()]
    assert all(v.sum() == 2 for v in vanishing)
    assert 0 < sum(v[-1] for v in vanishing) < len(vanishing)


def test_tied_blocks_across_the_wrap_edge():
    # TWO_EDGES turned by one row: edges 0 and 2 vanish, so the two equal
    # blocks are rows 1..2 and rows 3, 0, across the wrap edge; the points
    # are TWO_EDGES's, up to rounding
    turned = PeriodSpec(a=np.roll(TWO_EDGES.a, 1), b=np.roll(TWO_EDGES.b, 1), c=np.roll(TWO_EDGES.c, 1))
    assert _twist_angles(turned, np.array([np.pi / 2]))[1].nonzero()[1].tolist() == [0, 2]
    points = core_touch_points(turned, [np.pi / 2])
    np.testing.assert_allclose(points, core_touch_points(TWO_EDGES, [np.pi / 2]), rtol=0, atol=1e-14)


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


def closed_form_twists(spec: PeriodSpec, theta: float) -> np.ndarray:
    """Where one edge j vanishes, H(theta, phi) = U H(theta, 0) U* for the
    diagonal U that is 1 up to row j and e^{i phi} after it, so along the
    support line the touch point of S(phi) is const + 2 Im(P e^{i phi}),
    P = e^{-i theta} c_j conj(y_j) y_{j+1} with y the top eigenvector at
    phi = 0.  Its Perron gauge fixes arg P = arg c_j - theta + (the other
    edges' arguments), and the twists -arg P +- pi/2 touch the ends of the
    union's flat edge."""
    beta = sweep._scaled_tridiagonals(spec, np.array([theta]))[2][0]
    vanishing = np.abs(beta) <= sweep._edge_rounding(spec)
    assert vanishing.sum() == 1
    minus_arg_p = theta - np.angle(spec.c[vanishing.argmax()]) - np.angle(beta[~vanishing]).sum()
    return minus_arg_p + np.array([-np.pi / 2, np.pi / 2])


def top_touch_points(spec: PeriodSpec, theta: float, phi) -> np.ndarray:
    """Rayleigh quotients of S(phi) at the top eigenvectors of the Hermitian
    parts of e^{-i theta} S(phi), one per twist, by eigh."""
    symbols = build_symbol(spec, phi)
    m = np.exp(-1j * theta) * symbols
    y = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))[1][:, :, -1]
    return np.einsum("ti,tij,tj->t", y.conj(), symbols, y)


@pytest.mark.parametrize("spec", forced_split_specs().values(), ids=forced_split_specs().keys())
def test_split_twists_give_the_flat_edge_ends(spec):
    # the O(p) core's two touch points are those of the symbols at the
    # closed-form twists (dense eigh, the oracle), lie on the support line,
    # and no touch point of a 20,000-phi grid lies beyond them along it
    theta = np.pi / 2
    ends = core_touch_points(spec, [theta])
    assert ends.size == 2
    oracle = top_touch_points(spec, theta, closed_form_twists(spec, theta))
    assert np.abs(ends[:, None] - oracle[None, :]).min(axis=1).max() <= 1e-12
    assert np.abs(oracle[:, None] - ends[None, :]).min(axis=1).max() <= 1e-12
    top = top_eigenvalues(spec, theta, 0.0)
    assert np.abs((np.exp(-1j * theta) * ends).real - top).max() <= 1e-12
    along = (np.exp(-1j * theta) * top_touch_points(spec, theta, phi_grid(20_000))).imag
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
    # pi/2 and 3pi/2 are split directions of the 96-angle grid; the free
    # phase across their vanishing edge reaches both ends of each flat edge
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


# --- the union's O(p) cycle core ---------------------------------------------------


def dense_tops(spec: PeriodSpec, thetas) -> np.ndarray:
    """Top eigenvalue of the Hermitian part of e^{-i theta} S(phi*), by dense
    eigvalsh in chunks of 48 directions, phi* the maximising twist."""
    phi = _twist_angles(spec, thetas)[0]
    return np.concatenate(
        [top_eigenvalues(spec, thetas[s : s + 48], phi[s : s + 48]) for s in range(0, thetas.size, 48)]
    )


def assert_core_reaches_dense_support(spec: PeriodSpec, thetas):
    # no edge vanishes, so one touch point per direction
    assert not _twist_angles(spec, thetas)[1].any()
    support = (np.exp(-1j * thetas) * core_touch_points(spec, thetas)).real
    tops = dense_tops(spec, thetas)
    assert np.abs(support - tops).max() <= 1e-12 * np.abs(tops).max()


@pytest.mark.parametrize("p", [1, 2, 3, 8, 24])
def test_perron_vectors_are_the_cycle_top_eigenvectors(p):
    # the cycle built densely: the path plus the wrap edge, which adds to the
    # path's edge for p = 2 and lands twice on the diagonal for p = 1 (a
    # period no PeriodSpec has, so the solve is tested on its own here)
    rng = np.random.default_rng(1200 + p)
    d, e = rng.uniform(-1.0, 1.0, (p, 50)), rng.uniform(0.1, 1.0, (p, 50))
    rows = np.arange(p)
    cycle = np.zeros((50, p, p))
    cycle[:, rows, rows] = d.T
    cycle[:, rows[:-1], rows[1:]] = cycle[:, rows[1:], rows[:-1]] = e[:-1].T
    cycle[:, 0, p - 1] += e[-1]
    cycle[:, p - 1, 0] += e[-1]
    values, vecs = np.linalg.eigh(cycle)
    sigma = values[:, -1] + 4 * np.finfo(float).eps * (1 + np.abs(values[:, -1]))
    x = sweep._perron_vectors(d, e, sigma)
    top = np.abs(vecs[:, :, -1]).T
    assert (x > 0).all()
    np.testing.assert_allclose(x, top / top.max(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 8, 24, 64, 200])
def test_cycle_core_reaches_the_dense_support(p):
    # at 720 angles of a seeded complex spec (no edge vanishes), the touch
    # point's support is the dense top eigenvalue of the maximising-twist
    # symbol to 1e-12 relative
    assert_core_reaches_dense_support(random_spec(np.random.default_rng(1100 + p), p), phi_grid(720))


def test_cycle_core_reaches_the_dense_support_near_split():
    # all six edges vanish together at 3pi/4 and 7pi/4; beside 3pi/4 the
    # union's refined directions have a top eigenvalue gap down to 1.8e-6
    spec = PeriodSpec(a=0.05, b=(1, 0, 0, 0, 0, 0), c=0.05j)
    thetas = _union_directions(spec, SweepConfig(720, 720))
    thetas = thetas[~_twist_angles(spec, thetas)[1].any(axis=1)]
    assert thetas.size == 1434
    assert_core_reaches_dense_support(spec, thetas)


def test_union_hull_off_split_directions_needs_no_lapack(monkeypatch):
    def refuse(_):
        raise AssertionError("dense eigensolve")

    spec, cfg = random_spec(np.random.default_rng(1300), 8), SweepConfig(720, 720)
    assert not _twist_angles(spec, _union_directions(spec, cfg))[1].any()
    monkeypatch.setattr(sweep, "eigh", refuse)
    assert len(symbol_union_hull(spec, cfg)) > 720


NO_LAPACK_SPECS = {
    **forced_split_specs(),
    "11": PeriodSpec.from_word("11"),
    "two-edges": TWO_EDGES,
    "diagonal": PeriodSpec(a=0, b=(1.0, 1j), c=0),
    "split": PeriodSpec(a=(0.0, 1.0), b=0.0, c=(1.0, 0.0)),
    "p8": random_spec(np.random.default_rng(1300), 8),
    **two_edge_specs(),
}


@pytest.mark.parametrize("name", NO_LAPACK_SPECS)
def test_union_hull_solves_only_split_symbols_densely(monkeypatch, name):
    # no symbol goes to eigh, however many edges vanish: one at the split
    # directions of 0^n 1 and the forced-split specs, two at pi/2 and 3pi/2
    # for word 11, TWO_EDGES and the seeded two-edge specs, every edge of
    # the diagonal spec and one or two of the split spec at every direction,
    # none for the seeded p = 8 spec
    def refuse(_):
        raise AssertionError("dense eigensolve")

    spec, cfg = NO_LAPACK_SPECS[name], SweepConfig(720, 720)
    count = _twist_angles(spec, _union_directions(spec, cfg))[1].sum(axis=1)
    most = {"11": 2, "two-edges": 2, "diagonal": 2, "split": 2, "p8": 0}
    assert count.max() == most.get(name, 2 if name.startswith("two-edges") else 1)
    monkeypatch.setattr(sweep, "eigh", refuse)
    assert len(symbol_union_hull(spec, cfg)) >= 2


@pytest.mark.parametrize("word", ["01", "001", "0001", "011"])
def test_union_directions_match_the_per_interval_grids(word):
    # t + step * j / m for j < m on each grid interval, bit for bit
    thetas = _union_directions(PeriodSpec.from_word(word), SweepConfig(720, 720))
    grid, step = phi_grid(720), 2 * np.pi / 720
    parts = np.diff(np.searchsorted(thetas, np.append(grid, 2 * np.pi)))
    expected = np.concatenate([t + step * np.arange(m) / m for t, m in zip(grid, parts)])
    np.testing.assert_array_equal(thetas, expected)


def test_symbol_union_hull_memory_is_bounded():
    # the O(p) core holds a few (p, directions) arrays
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
    a, cfg = build_truncation(WORD01, 6), SweepConfig(64)
    whole = boundary_points(a, cfg)
    assert whole.size > 64
    monkeypatch.setattr(sweep, "_DENSE_BATCH_BYTES", 7 * 16 * 36)
    np.testing.assert_array_equal(boundary_points(a, cfg), whole)


# --- flat-edge ends of truncations in O(k), and the Sturm core ------------------


def test_truncation_support_input_shapes():
    assert truncation_support(WORD01, 5, []).shape == (0,)
    thetas = np.linspace(0.0, 2 * np.pi, 12).reshape(3, 4)
    grid = truncation_support(WORD01, 7, thetas)
    assert grid.shape == (3, 4)
    np.testing.assert_array_equal(grid.ravel(), truncation_support(WORD01, 7, thetas.ravel()))
    assert truncation_support(WORD01, 7, 0.5).shape == ()


def test_multisection_matches_bisection():
    # the fallback from the Gershgorin bound: Laguerre steps on the whole
    # path, the two counts and bisection on them; it and the bisection
    # oracle stop at a bracket of a few ulps around the top; a period of
    # three rows with its wrap edge cut makes S a path of k // 3 tied blocks
    # (3 at k = 9, 133 at k = 400), whose top is multiple
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    cases = []
    for p in (2, 3, 5):
        spec = random_spec(rng, p)
        thetas = rng.uniform(0.0, 2 * np.pi, 3)
        d, e = sweep._scaled_tridiagonals(spec, thetas)[:2]
        cases += [(d, e, k) for k in (1, 2, 9, 300)]
    d, e = rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(0.0, 1.0, (3, 4))
    e[2] = 0.0
    cases += [(d, e, k) for k in (9, 400)]
    for d, e, k in cases:
        multi = sweep._top_pairs(d, e, k, (0, k, 1), None, sweep._gershgorin(d, e)[:k].max(axis=0))[0]
        plain = bisection_tops(d, e, k)
        assert np.all(np.abs(multi - plain) <= 2 * eps * (np.abs(plain) + 1))
        # both are upper ends of brackets: no eigenvalue at or above them
        assert not sweep._count_above(d, e * e, multi, k).any()
        assert not sweep._count_above(d, e * e, plain, k).any()


def assert_certified_tops(top, plain, d, e, k):
    # no eigenvalue at or above top, one within two final bracket widths
    # below it (the PIVMIN guard moves the counts by up to 2 PIVMIN), and
    # within 2 eps of bisection
    eps = np.finfo(float).eps
    tol = 2 * (2 * eps * np.abs(top) + sweep.PIVMIN)
    assert not sweep._count_above(d, e * e, top, k).any()
    assert np.all(sweep._count_above(d, e * e, top - tol, k) >= 1)
    assert np.all(np.abs(top - plain) <= 2 * eps * (np.abs(plain) + 1))


@pytest.mark.parametrize("p", range(2, 9))
def test_newton_tops_are_certified(p):
    # the fallback's whole-path search from the band edge, over every grid
    # size the sweeps use
    rng = np.random.default_rng(900 + p)
    spec = random_spec(rng, p)
    for num_theta in (720, 192, 2):
        d, e = sweep._scaled_tridiagonals(spec, phi_grid(num_theta))[:2]
        start = sweep._band_edges(d, e)
        for k in sorted({1, 2, p - 1, p, p + 1, 120, 800}):
            top = sweep._top_pairs(d, e, k, (0, k, 1), None, start)[0]
            assert_certified_tops(top, bisection_tops(d, e, k), d, e, k)
            # the band edge bounds every truncation's top
            assert np.all(top <= start)


def test_continuant_carries_its_scale():
    # 2000 rows at lam = 1, each |lam - d_j| >= 1.5: the plain recurrence
    # overflows near row 1750; the LDL pivots of S - lam give log|det|, and
    # the dense eigenvalues the log-derivative sum 1/(lam - lambda_j),
    # independently
    rng = np.random.default_rng(5)
    p = 2000
    d, e = rng.uniform(-1.0, -0.5, (p, 1)), rng.uniform(0.0, 0.5, (p, 1))
    lam = np.ones(1)
    (det, ddet, _), scale = sweep._continuant(d, e * e, lam, range(p))
    pivots = next(sweep._ldl_pivots(d, e * e, lam, p, p))
    np.testing.assert_allclose(np.log2(np.abs(det)) + scale, np.log2(-pivots).sum(axis=0), rtol=1e-12)
    s = np.diag(d[:, 0]) + np.diag(e[:-1, 0], 1) + np.diag(e[:-1, 0], -1)
    np.testing.assert_allclose(ddet / det, (1 / (lam - np.linalg.eigvalsh(s))).sum(), rtol=1e-12)


def rescaled_continuant(d, e2, lam, rows):
    """The continuant oracle: :func:`sweep._continuant` with a power-of-two
    rescaling of each column after every row."""
    top, prev, scale = np.outer([1.0, 0.0, 0.0], np.ones_like(lam)), 0.0, 0
    for j in rows:
        new = (lam - d[j]) * top - e2[j - 1] * prev
        new[1:] += np.array([[1.0], [2.0]]) * top[:-1]
        s = np.frexp(np.abs(new).sum(axis=0))[1]
        top, prev, scale = np.ldexp(new, -s), np.ldexp(top, -s), scale + s
    return top, scale


def continuant_cases():
    """(d, e2, lam) triples: seeded scaled tridiagonals at their Gershgorin
    bounds and below, and columns that leave the blocks' range."""
    rng = np.random.default_rng(31)
    for p in (1, 2, 3, 31, 32, 33, 64, 200):
        d, e = rng.uniform(-1.0, 1.0, (p, 40)), rng.uniform(0.0, 1.0, (p, 40))
        lam = sweep._gershgorin(d, e).max(axis=0) - rng.uniform(0.0, 2.0, 40)
        yield d, e * e, lam
    # a diagonal of -1/2, then entries near -2^-500 with edges near 2^-500
    # or 2^-60, at lam = 2^-500: a row shrinks the state by up to 2^-500,
    # so the blocks end out of range and go again row by row
    for exponent in (-1000, -120):
        d = np.ldexp(rng.uniform(-1.0, 0.0, (40, 6)), -500)
        d[0] = -0.5
        yield d, np.ldexp(rng.uniform(0.0, 1.0, (40, 6)), exponent), np.ldexp(np.ones(6), -500)
    # zero edges, and lam on the diagonal: exact zeros
    d, e2 = rng.integers(-2, 2, (50, 8)) / 4.0, rng.integers(0, 2, (50, 8)) / 4.0
    yield d, e2, np.array([0.0, 0.25, -0.25, 0.5, -0.5, 0.0, 0.25, 1.0])


def test_blocked_continuant_matches_rescaling_every_row():
    # rescaling once per block is exact, so it changes no bit
    for d, e2, lam in continuant_cases():
        p = d.shape[0]
        for rows in (range(p), range(1, p - 1)):
            top, scale = sweep._continuant(d, e2, lam, rows)
            want, want_scale = rescaled_continuant(d, e2, lam, rows)
            assert top.tobytes() == want.tobytes()
            np.testing.assert_array_equal(scale, want_scale)


@pytest.mark.parametrize("p", [3, 40, 200, 600])
def test_band_edge_is_the_top_of_the_maximising_twist_symbol(p):
    # the band edge is the top eigenvalue of the symbol at the maximising
    # twist; from the Gershgorin bound, Newton steps stopped up to 0.5 above
    # it at p = 200, and plain continuants overflowed at p = 600
    spec = random_spec(np.random.default_rng(950 + p), p)
    thetas = phi_grid(16)
    d, e, _, exponent = sweep._scaled_tridiagonals(spec, thetas)
    start = np.ldexp(sweep._band_edges(d, e), exponent)
    twists = sweep._twist_angles(spec, thetas)[0]
    tops = [
        np.linalg.eigvalsh(hermitian_part(build_symbol(spec, phi), theta))[-1]
        for phi, theta in zip(twists, thetas)
    ]
    np.testing.assert_allclose(start, tops, rtol=0, atol=1e-12)


def test_newton_start_below_the_top_still_certifies():
    # a start with an eigenvalue above it fails the upper count, and those
    # columns bisect from the Gershgorin bound
    d, e = sweep._scaled_tridiagonals(WORD01, phi_grid(720))[:2]
    for k in (5, 300):
        plain = bisection_tops(d, e, k)
        for offset in (1e-3, 1e-14, 0.0):
            top = sweep._top_pairs(d, e, k, (0, k, 1), None, plain - offset)[0]
            assert_certified_tops(top, plain, d, e, k)


def guarded_pivots(d, e2, sigma, k, block):
    """The pivot oracle: :func:`sweep._ldl_pivots` with the ``PIVMIN`` guard
    applied at every row."""
    p = d.shape[0]
    shifted = d - sigma
    q = np.empty((min(k, block), shifted.shape[1]))
    prev = None
    for start in range(0, k, block):
        for r in range(min(block, k - start)):
            i = start + r
            if i == 0:
                q[0] = shifted[0]
            else:
                np.divide(e2[(i - 1) % p], q[r - 1] if r else prev, out=q[r])
                np.subtract(shifted[i % p], q[r], out=q[r])
            np.putmask(q[r], np.abs(q[r]) < sweep.PIVMIN, -sweep.PIVMIN)
        yield q[: r + 1]
        prev = q[r].copy()


def pivot_cases():
    """(d, e2, sigma) triples, one period of 5 rows in 24 columns: seeded
    random ones, and columns on which the guard acts."""
    rng = np.random.default_rng(23)
    pivmin = sweep.PIVMIN
    d, e2 = rng.uniform(-1.0, 1.0, (5, 24)), rng.uniform(0.0, 1.0, (5, 24))
    yield d, e2, rng.uniform(-1.0, 3.0, 24)
    d, e2, sigma = d.copy(), e2.copy(), np.zeros(24)
    # a first pivot exactly 0, and within PIVMIN on either side of 0
    d[0, :4] = [0.0, 0.5 * pivmin, -0.5 * pivmin, pivmin]
    # pivots 1, 0 (1 - 1/1), then 1 - 1/(-PIVMIN) in every period
    d[:, 4], e2[:, 4] = 1.0, 1.0
    # a zero edge after a zero pivot: 0/0 without the guard
    d[:, 5], e2[:, 5] = 1.0, [1.0, 0.0, 1.0, 0.0, 1.0]
    # a pivot within PIVMIN of 0 deep in the recurrence
    d[:, 6], e2[:, 6] = [1.0, 1.0 + 0.25 * pivmin, 1.0, 1.0, 1.0], 1.0
    # entries near 2**500 and 2**-500
    d[:, 7:10] = np.ldexp(d[:, 7:10], 500)
    e2[:, 7:10] = np.ldexp(e2[:, 7:10], 1000)
    d[:, 10:13] = np.ldexp(d[:, 10:13], -500)
    e2[:, 10:13] = np.ldexp(e2[:, 10:13], -1000)
    e2[:, 13:15] = np.ldexp(1.0, 1000)
    yield d, e2, sigma
    # a zero pivot in every period of most columns (the split spec at its
    # top): the window is redone with the guard, and later windows guarded
    d, e2 = np.zeros((2, 24)), np.repeat([[0.25], [0.0]], 24, axis=1)
    yield d, e2, np.where(np.arange(24) < 20, 0.5, rng.uniform(0.0, 1.0, 24))


def test_blocked_pivots_match_the_guard_at_every_row():
    # the guard acts only where a block without it has a pivot below PIVMIN,
    # and those rows are redone, so pivots and counts keep their bits
    for d, e2, sigma in pivot_cases():
        for k, block in [(1, 256), (5, 5), (23, 256), (23, 7), (64, 1), (400, 256), (400, 400)]:
            with np.errstate(all="ignore"):
                want = [q.copy() for q in guarded_pivots(d, e2, sigma, k, block)]
            got = [q.copy() for q in sweep._ldl_pivots(d, e2, sigma, k, block)]
            assert [q.tobytes() for q in got] == [q.tobytes() for q in want]
            counts = sweep._count_above(d, e2, sigma, k)
            np.testing.assert_array_equal(counts, k - sum((q < 0).sum(axis=0) for q in want))


def test_truncation_sweeps_on_the_guard_warn_of_nothing():
    # the unguarded pass divides by zero pivots and forms 0/0; no warning
    # may leave it (split, near-split and word 01, truncations and unions)
    specs = [
        PeriodSpec(a=(0, 1), b=0, c=(1, 0)),
        PeriodSpec(a=0.05, b=(1, 0, 0, 0, 0, 0), c=0.05j),
        WORD01,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in specs:
            assert len(truncation_range(spec, 800)) >= 2
            assert len(symbol_union_hull(spec)) >= 2


def sturm_passes(monkeypatch):
    """(rows, columns, block) of every pivot sweep, in the order they run."""
    passes, pivots = [], sweep._ldl_pivots

    def record(d, e2, sigma, k, block):
        passes.append((k, d.shape[1], block))
        return pivots(d, e2, sigma, k, block)

    monkeypatch.setattr(sweep, "_ldl_pivots", record)
    return passes


@pytest.mark.parametrize("k", [120, 800])
def test_word01_takes_few_sturm_passes(monkeypatch, k):
    # bisection from the Gershgorin bracket took about 50 passes; Newton
    # steps from the band edge take 8 (and two more sweeps: the flat-edge
    # test and inverse iteration)
    passes = sturm_passes(monkeypatch)
    assert len(truncation_range(WORD01, k, SweepConfig(720, 1))) > 720
    assert sum(rows == k for rows, _, _ in passes) <= 16


def test_split_spec_sweeps_only_open_brackets(monkeypatch):
    # every angle is flat; the compressed skew parts are grouped by the cut
    # edges per period, and the four of theta = pi/2 and 3pi/2 (all edges
    # vanish there) make an 800-block call of their own, every bracket open;
    # the closed form certifies every column, so none reaches the fallback
    passes, searched = sturm_passes(monkeypatch), fallback_calls(monkeypatch)
    calls, pairs = [], sweep._top_pairs

    def record(d, e, k, *rest):
        top, vectors = pairs(d, e, k, *rest)
        calls.append((d, e, k, top))
        return top, vectors

    monkeypatch.setattr(sweep, "_top_pairs", record)
    poly = truncation_range(PeriodSpec(a=(0, 1), b=0, c=(1, 0)), 800, SweepConfig(720, 1))
    np.testing.assert_allclose(poly.vertices, [-1, 1], rtol=0, atol=1e-15)
    counts = [columns for rows, columns, block in passes if rows == 800 and block == sweep._PIVOT_ROWS]
    assert max(counts) <= 720
    # bisection swept about 50 * (720 + 1310) columns of 800 rows
    assert sum(counts) <= 16 * 720
    assert not searched

    # the open columns' own call, on compressed paths of 800 blocks
    def all_open(d, e):
        lo, hi = d.max(axis=0), sweep._gershgorin(d, e).max(axis=0)
        return np.all(hi - lo > sweep._bracket_width(lo, hi))

    ((d, e, k, top),) = [(d, e, k, top) for d, e, k, top in calls if d.shape == (800, 4)]
    assert all_open(d, e)
    assert not sweep._count_above(d, e * e, top, k).any()
    for j in range(4):
        s = np.diag(d[:, j]) + np.diag(e[:-1, j], 1) + np.diag(e[:-1, j], -1)
        assert abs(top[j] - np.linalg.eigvalsh(s)[-1]) <= 1e-13


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


def test_truncation_flat_ends_solve_only_the_rows_of_their_blocks():
    # edge 1 vanishes at pi/2, and T_4's blocks, rows 0-1 and 2-3, have the
    # same Hermitian part; the period also cut before row 0 holds rows 2..5
    # as one block whose top lies far above theirs (rows 4 and 5 sit at 2),
    # and solved together with it the first block's vector puts the ends 0.41 off
    spec = PeriodSpec(
        a=(0.4, 0, 0.7, -0.5, 0.3, 0.2),
        b=(0.5 + 0.3j, -0.2j, 0.1 + 0.3j, 0.4 - 0.2j, 2j, 2j),
        c=(1, 0.7, 0.5, 0.8, 0.6, 0.9),
    )
    cfg = SweepConfig(4, 1)
    points, dense = _truncation_points(spec, 4, cfg), boundary_points(build_truncation(spec, 4), cfg)
    assert points.size == dense.size == 8
    np.testing.assert_allclose(points[4:], dense[4:], rtol=0, atol=1e-12)


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


AGREEING_FLAT_EDGES = {
    "01": (WORD01, np.pi / 2),
    "11": (PeriodSpec.from_word("11"), np.pi / 2),
    "two-edges": (TWO_EDGES, np.pi / 2),
    "split": (FLAT_SPECS["split"], 0.3),
}


@pytest.mark.parametrize("name", list(AGREEING_FLAT_EDGES))
def test_truncation_flat_ends_approach_the_union_ends(name):
    # both come from the blocks of the cut period: the truncation's ends lie
    # on the union's flat edge and close in on its ends as k grows (by about
    # 16x per 4x k; the split spec's are the union's at every k)
    spec, theta = AGREEING_FLAT_EDGES[name]
    top, bottom = core_touch_points(spec, [theta])
    turn = np.exp(-1j * theta)
    gaps = []
    for k in (201, 801, 3201):
        ends = sweep._truncation_flat_ends(spec, k, np.array([theta]))
        assert np.abs((turn * ends).real - (turn * top).real).max() <= 1e-12
        along = (turn * ends).imag
        assert (turn * bottom).imag - 1e-12 <= along.min() and along.max() <= (turn * top).imag + 1e-12
        gaps.append(np.abs(ends - [bottom, top]))
    for wide, narrow in zip(gaps, gaps[1:]):
        assert np.all(8 * narrow <= wide)


def test_truncation_flat_edge_chunks(monkeypatch):
    # the split spec is flat at every angle; chunks of 5 angles change which
    # columns share a compressed-path call, and so how those paths split into
    # copies of a period and the rows around them: only rounding may move
    spec, cfg, k = FLAT_SPECS["split"], SweepConfig(64, 1), 61
    whole = _truncation_points(spec, k, cfg)
    assert whole.size == 3 * cfg.num_theta
    monkeypatch.setattr(sweep, "_DENSE_BATCH_BYTES", 8 * k * 5)
    np.testing.assert_allclose(_truncation_points(spec, k, cfg), whole, rtol=0, atol=1e-14)


def test_truncation_vector_chunks_change_no_bit(monkeypatch):
    # where one vector batch cannot hold every angle, the eigenvectors go by
    # pivots in chunks of angles, two or more each: budgets of 60 angles, of
    # one and of seven (120 = 17 * 7 + 1) agree bit for bit, and with a
    # whole batch to rounding (the flat ends' compressed paths, whose chunks
    # the budget also picks, may move by rounding)
    spec, cfg, k = FLAT_SPECS["random"], SweepConfig(120, 1), 61
    whole = _truncation_points(spec, k, cfg)
    monkeypatch.setattr(sweep, "_VECTOR_BATCH_BYTES", 8 * k * 60)
    chunked = _truncation_points(spec, k, cfg)
    assert hausdorff(convex_hull(chunked), convex_hull(whole)) <= 1e-14
    np.testing.assert_allclose(np.delete(chunked, [7, 67]), np.delete(whole, [7, 67]), rtol=0, atol=1e-14)
    for angles in (1, 7):
        monkeypatch.setattr(sweep, "_VECTOR_BATCH_BYTES", 8 * k * angles)
        points = _truncation_points(spec, k, cfg)
        assert points[: cfg.num_theta].tobytes() == chunked[: cfg.num_theta].tobytes()
        # the budget also picks the path of the flat ends' compressed solves
        np.testing.assert_allclose(points, chunked, rtol=0, atol=1e-14)


def fallback_calls(monkeypatch):
    """``(d, e, k, top, passes)`` per call of the fallback of
    :func:`sweep._top_pairs`, in the order they end: itself on the whole
    path as one copy (given a start; a :func:`sweep._bisected_tops` within
    belongs to that call), or from a path of one copy
    :func:`sweep._bisected_tops`; passes counts its
    :func:`sweep._count_above` calls."""
    calls, active = [], []
    pairs, bisect, count = sweep._top_pairs, sweep._bisected_tops, sweep._count_above

    def spy(function, entry):
        def call(d, e, k, *args):
            if active or not entry(args):
                return function(d, e, k, *args)
            active.append(0)
            try:
                top = function(d, e, k, *args)
            finally:
                passes = active.pop()
            calls.append((d, e, k, top[0] if isinstance(top, tuple) else top, passes))
            return top

        return call

    def counted(*args):
        if active:
            active[-1] += 1
        return count(*args)

    monkeypatch.setattr(sweep, "_top_pairs", spy(pairs, lambda args: len(args) > 2 and args[2] is not None))
    monkeypatch.setattr(sweep, "_bisected_tops", spy(bisect, lambda args: True))
    monkeypatch.setattr(sweep, "_count_above", counted)
    return calls


def fallback_columns(monkeypatch, d, e, k):
    """Columns of :func:`sweep._top_pairs` from the band edge that go to
    its fallback, and its tops and the vectors of
    :func:`sweep._top_eigenvectors` (every column for paths of one copy,
    None if no column takes them)."""
    calls, vectors, solve = fallback_calls(monkeypatch), [], sweep._top_eigenvectors
    monkeypatch.setattr(sweep, "_top_eigenvectors", lambda e, q: vectors.append(solve(e, q)) or vectors[-1])
    top = sweep._top_pairs(d, e, k, None, lambda rows: (d[rows], e[rows]))[0]
    monkeypatch.undo()
    return sum(d.shape[1] for d, *_ in calls), top, np.hstack(vectors) if vectors else None


def closed_form_fails(d, e, k):
    """Columns whose closed-form top from the band edge fails the counts of
    :func:`sweep._top_pairs`: not finite, an eigenvalue at or above
    ``lam + w``, or none at or above ``lam - w`` and no diagonal entry there."""
    p = d.shape[0]
    lam = sweep._closed_form_tops(d, e, k, sweep._band_edges(d, e), 0, p, k // p)
    w = sweep._bracket_width(lam, lam)
    with np.errstate(invalid="ignore"):
        above, below = (sweep._count_above(d, e * e, lam + s * w, k) for s in (1, -1))
    low = (below >= 1) | (d[: min(k, p)].max(axis=0) >= lam - w)
    return ~(np.isfinite(lam) & (above == 0) & low)


@pytest.mark.parametrize(
    "text, k, fallback",
    [
        # an edge vanishes at every angle; k < 2p: Laguerre steps on the
        # whole path, a Newton step mending the last one's rounding
        ("p=3;a=0.5,1,0;b=0.2,0,1;c=1,0,0.3", 4, (0, 0)),
        ("p=4;a=1,1,0,1;b=0,0,1.2,0;c=1,0,1,0", 5, (0, 0)),
        # two copies of the period and a row: the closed form
        ("p=3;a=1,0.5j,0.3;b=0.2j,0,1;c=0.4,1,0.7j", 7, (0, 0)),
    ],
)
def test_rayleigh_core_and_its_fallback_match_dense(monkeypatch, text, k, fallback):
    # exactly the columns whose closed-form top fails a count go to the
    # fallback, and with it the points are those of the dense sweep
    spec, cfg = PeriodSpec.parse(text), SweepConfig(96, 1)
    d, e = sweep._scaled_tridiagonals(spec, phi_grid(cfg.num_theta))[:2]
    fails = closed_form_fails(d, e, k).sum()
    assert fallback_columns(monkeypatch, d, e, k)[0] == fails
    assert fallback[0] <= fails <= fallback[1]
    points, dense = _truncation_points(spec, k, cfg), boundary_points(build_truncation(spec, k), cfg)
    assert points.shape == dense.shape
    assert hausdorff(convex_hull(points), convex_hull(dense)) <= 1e-13
    flat = np.abs(points[: cfg.num_theta] - dense[: cfg.num_theta]) > 1e-13
    # only flat-edge angles, whose top points may lie anywhere on the edge
    assert 2 * flat.sum() <= points.size - cfg.num_theta


@pytest.mark.parametrize("k, fallback", [(800, 3), (12800, 4)])
def test_sturm_fallback_takes_few_counts(monkeypatch, k, fallback):
    # the seeded p=24 spec's columns that the closed form leaves (one at
    # k=12800, and three of the compressed flat-edge paths) take Laguerre
    # steps on the whole path, the same two counts (in one pass) and at
    # most two bisection passes; bisection from the Gershgorin bracket took
    # about 52
    spec, eps = seeded_spec(124, 24), np.finfo(float).eps
    calls = fallback_calls(monkeypatch)
    _truncation_points(spec, k, SweepConfig(720, 1))
    monkeypatch.undo()
    assert sum(d.shape[1] for d, *_ in calls) == fallback
    for d, e, k, top, passes in calls:
        assert passes <= 4
        plain = bisection_tops(d, e, k)
        assert np.all(np.abs(top - plain) <= 2 * eps * (np.abs(plain) + 1))


def pushed_tops(monkeypatch, num_theta):
    """The closed form's tops pushed far below (a count above fails), above
    (the count below fails) or to NaN, in turn with unpushed columns; the
    columns of each call of :func:`sweep._closed_form_tops` on one copy
    (the whole-path descent)."""
    tops, descents = sweep._closed_form_tops, []
    push = np.resize([0.0, -1e-3, 1e-3, np.nan], num_theta)

    def pushed(d, e, k, start, lo, m, n):
        if n <= 1:
            descents.append(d.shape[1])
        return tops(d, e, k, start, lo, m, n) + push[: d.shape[1]]

    monkeypatch.setattr(sweep, "_closed_form_tops", pushed)
    return descents


def test_closed_form_failures_take_the_sturm_search(monkeypatch):
    # pushed closed-form tops go to the fallback, and the points stay those
    # of the dense sweep
    spec, cfg, k = PeriodSpec.parse("p=3;a=1,0.5j,0.3;b=0.2j,0,1;c=0.4,1,0.7j"), SweepConfig(96, 1), 40
    pushed_tops(monkeypatch, cfg.num_theta)
    calls = fallback_calls(monkeypatch)
    points, dense = _truncation_points(spec, k, cfg), boundary_points(build_truncation(spec, k), cfg)
    assert sum(d.shape[1] for d, *_ in calls) == 72
    assert hausdorff(convex_hull(points), convex_hull(dense)) <= 1e-13
    np.testing.assert_allclose(points[: cfg.num_theta], dense[: cfg.num_theta], rtol=0, atol=1e-13)


def test_one_copy_failures_descend_once(monkeypatch):
    # below two copies the closed form is the whole-path descent itself, so
    # the columns it leaves bisect at once: one descent on every column, none
    # again on the 72 pushed ones; the tops stay certified and the touch
    # points those of the dense sweep
    spec, cfg, k = PeriodSpec.parse("p=3;a=1,0.5j,0.3;b=0.2j,0,1;c=0.4,1,0.7j"), SweepConfig(96, 1), 5
    d, e, beta = sweep._scaled_tridiagonals(spec, phi_grid(cfg.num_theta))[:3]
    descents = pushed_tops(monkeypatch, cfg.num_theta)
    calls = fallback_calls(monkeypatch)
    weights = lambda rows: (spec.b[rows, None], sweep._couplings(spec, beta)[rows])
    top, points = sweep._top_pairs(d, e, k, None, weights)
    monkeypatch.undo()
    assert descents == [cfg.num_theta]
    assert sum(d.shape[1] for d, *_ in calls) == 72
    assert_certified_tops(top, bisection_tops(d, e, k), d, e, k)
    dense = boundary_points(build_truncation(spec, k), cfg)
    np.testing.assert_allclose(points, dense[: cfg.num_theta], rtol=0, atol=1e-13)


STRESS_SPECS = {
    **{f"random-{j}": random_spec(np.random.default_rng(2020 + j), 2 + j % 7) for j in range(12)},
    "11": PeriodSpec.from_word("11"),
    "split": PeriodSpec(a=(0, 1), b=0, c=(1, 0)),
    "near-flat": PeriodSpec(a=0.05, b=(1, 0, 0, 0, 0, 0), c=0.05j),
    "two-edges": TWO_EDGES,
    "p24": PeriodSpec(p=24, a=1, b=0.5j, c=0.3),
    "01": WORD01,
    "001": PeriodSpec.from_word("001"),
}


@pytest.mark.parametrize("name", list(STRESS_SPECS))
def test_closed_form_tops_match_bisection(name):
    # wherever the closed form from the band edge is used (both counts pass)
    # its tops are within a few eps of bisection's; only columns with k < p
    # and a vanishing edge may fail the counts, and the fallback
    # certifies those (the diagonal certifies the lower end where S = 0)
    spec, eps = STRESS_SPECS[name], np.finfo(float).eps
    p = spec.p
    d, e = sweep._scaled_tridiagonals(spec, phi_grid(48))[:2]
    for k in sorted({1, 2, p - 1, p, p + 1, 2 * p, 2 * p + 1, 61, 400} - {0}):
        fails = closed_form_fails(d, e, k)
        assert not (fails & ~((k < p) & (e <= 1e-15).any(axis=0))).any()
        top = sweep._top_pairs(d, e, k)[0]
        plain = bisection_tops(d, e, k)
        assert np.all(np.abs(top - plain) <= 3 * eps * (np.abs(plain) + 1))
        w = 2 * sweep._bracket_width(top, top)
        assert not sweep._count_above(d, e * e, top, k).any()
        assert np.all((sweep._count_above(d, e * e, top - w, k) >= 1) | (d[: min(k, p)].max(axis=0) >= top - w))


def seeded_spec(seed: int, p: int, decimals=None) -> PeriodSpec:
    """a, b and c drawn in that order from ``default_rng(seed)`` as complex
    Gaussians over sqrt 2 (rounded, as the truncation benchmark's period-3
    spec is)."""
    rng = np.random.default_rng(seed)
    draw = lambda: (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2)
    a, b, c = (x if decimals is None else np.round(x, decimals) for x in (draw(), draw(), draw()))
    return PeriodSpec(a=a, b=b, c=c)


SUMS_SPECS = {
    "01": WORD01,
    "001": PeriodSpec.from_word("001"),
    "p3": seeded_spec(1, 3, 3),
    "p24": seeded_spec(124, 24),
}


def inverse_iteration_columns(monkeypatch, d, e, k, weights, repeat=None):
    """Columns of :func:`sweep._top_pairs` whose quotients come from
    :func:`sweep._top_eigenvectors` (made to return NaN, which the complex
    division of their quotients flags as invalid)."""
    with monkeypatch.context() as patch, np.errstate(invalid="ignore"):
        patch.setattr(sweep, "_top_eigenvectors", lambda e, q: np.full(q.shape, np.nan))
        return np.isnan(sweep._top_pairs(d, e, k, repeat, lambda rows: [w[rows] for w in weights])[1])


def sums_refused(d, e, k, weights):
    """Columns of a truncation that :func:`sweep._top_pairs` does not take
    through :func:`sweep._copy_sums`: fewer than two copies, a failing count
    (:func:`closed_form_fails`), or sums that move from lam to lam + w by
    more than ``_SUMS_ROUNDING`` (their quotient with ``weights``, relative
    to the largest) or 16 times it (in all)."""
    p, n = d.shape[0], k // d.shape[0]
    if n < 2:
        return np.ones(d.shape[1], dtype=bool)
    lam = sweep._closed_form_tops(d, e, k, sweep._band_edges(d, e), 0, p, n)
    with np.errstate(all="ignore"):
        rows = np.r_[0 : 2 * p, n * p : k] % p
        low, high = (sweep._copy_sums(d[rows], e[rows], mu, 0, p, n) for mu in (lam, lam + sweep._bracket_width(lam, lam)))
        moved = [y / high[0].sum(axis=0) - x / low[0].sum(axis=0) for x, y in zip(low, high)]
        total = np.abs(moved[0]).sum(axis=0) + np.abs(moved[1]).sum(axis=0)
        f, g = (np.broadcast_to(w, d.shape)[np.r_[0:p, n * p : k] % p] for w in weights)
        change = np.abs((f * moved[0] + g * moved[1]).sum(axis=0)) / np.maximum(np.abs(f).max(axis=0), np.abs(g).max(axis=0))
    return closed_form_fails(d, e, k) | ~((change <= sweep._SUMS_ROUNDING) & (total <= 16 * sweep._SUMS_ROUNDING))


@pytest.mark.parametrize(
    "name, k",
    [("01", 120), ("01", 800), ("001", 61), ("p3", 150), ("p24", 150), ("p24", 800), ("split", 800), ("two-edges", 801)],
)
def test_inverse_iteration_takes_exactly_the_refused_columns(monkeypatch, name, k):
    # with the touch points' weights, and with the diagonal and edges as
    # weights; word 01 and the seeded p=3 spec take the sums at most angles
    spec = {**SUMS_SPECS, "split": FLAT_SPECS["split"], "two-edges": TWO_EDGES}[name]
    d, e, beta, _ = sweep._scaled_tridiagonals(spec, phi_grid(720))
    for weights in ((spec.b[:, None], sweep._couplings(spec, beta)), (d, e)):
        refused = sums_refused(d, e, k, weights)
        np.testing.assert_array_equal(inverse_iteration_columns(monkeypatch, d, e, k, weights), refused)
        if name in ("01", "p3"):
            assert refused.sum() <= 80


def truncation_top_points(spec, k, thetas):
    """Unscaled tops and the touch points of :func:`sweep._truncation_points` at ``thetas``."""
    d, e, beta, exponent = sweep._scaled_tridiagonals(spec, thetas)
    coupling = sweep._couplings(spec, beta)
    top, points = sweep._top_pairs(d, e, k, None, lambda rows: (spec.b[rows, None], coupling[rows]))
    return np.ldexp(top, exponent), points


@pytest.mark.parametrize("name", list(SUMS_SPECS))
def test_copy_sums_touch_points_match_mpmath(monkeypatch, name):
    # each touch point from the copies' sums lies no farther from a 40-digit
    # reference than inverse iteration's, plus 2e-15: at spread angles, the
    # four within 1e-2 of word 01's split directions, and the sums' columns
    # with the smallest edges (the largest rounding)
    pytest.importorskip("mpmath")
    spec, thetas = SUMS_SPECS[name], phi_grid(720)
    checked = 0
    for k in (2 * spec.p, 2 * spec.p + 1, 61, 400):
        top, points = truncation_top_points(spec, k, thetas)
        monkeypatch.setattr(sweep, "_SUMS_ROUNDING", -1.0)
        plain = truncation_top_points(spec, k, thetas)[1]
        monkeypatch.undo()
        d, e, _, exponent = sweep._scaled_tridiagonals(spec, thetas)
        below = np.ldexp(top - sweep._gap_tol(top), -exponent)
        simple = sweep._count_above(d, e * e, below, k) == 1
        sums = np.flatnonzero(simple & (points != plain))
        at = {*range(0, 720, 90), 179, 181, 539, 541, *sums[np.argsort(e.min(axis=0)[sums])[:4]]}
        for j in sorted(j for j in at if simple[j]):
            ref = mp_touch_point(spec, k, thetas[j], top[j])
            assert abs(points[j] - ref) <= abs(plain[j] - ref) + 2e-15, (k, j)
            checked += j in sums
    assert checked >= (0 if name == "p24" else 12)


def lifted_paths():
    """Compressed paths of a period of two rows, six copies and the end
    blocks (three rows before, three after), whose last block's entry lifts
    the top of some above the band edge (tau > 1 there): ``d, e, k, (lo, m,
    n)`` and a seeded generator."""
    lo, m, n, k = 3, 2, 6, 18
    rng = np.random.default_rng(1)
    d, e = (np.tile(rng.uniform(*bounds, (m, 6)), (k // m, 1)) for bounds in ((-0.5, 0.2), (0.2, 0.5)))
    d[0], d[-1] = 0.0, np.linspace(-0.4, 0.9, 6)
    return d, e, k, (lo, m, n), rng


def test_lifted_path_top_takes_inverse_iteration(monkeypatch):
    # the lifted paths' columns above the band edge take inverse iteration,
    # the others the copies' sums, and both match eigh to 1e-13
    d, e, k, (lo, m, n), rng = lifted_paths()
    weights = rng.standard_normal((2, k, 6))
    edge = sweep._band_edges(d[lo : lo + m], e[lo : lo + m])
    taken = inverse_iteration_columns(monkeypatch, d, e, k, weights, (lo, m, n))
    top, quotients = sweep._top_pairs(d, e, k, (lo, m, n), lambda rows: weights[:, rows])
    lifted = top > edge
    assert lifted.any() and not taken[~lifted].all()
    assert np.all(taken[lifted])
    # the random weights of the folded rows catch a wrong fold
    rows = np.r_[0 : lo + m, lo + n * m : k]
    for j in range(d.shape[1]):
        s = np.diag(d[:, j]) + np.diag(e[:-1, j], 1) + np.diag(e[:-1, j], -1)
        values, vectors = np.linalg.eigh(s)
        x = vectors[:, -1]
        assert abs(top[j] - values[-1]) <= 1e-13
        squares, links = (sweep._fold(y[:, None], lo, m, n)[:, 0] for y in (x * x, np.append(x[:-1] * x[1:], 0.0)))
        want = (weights[0, rows, j] * squares + weights[1, rows, j] * links).sum() / squares.sum()
        assert abs(quotients[j] - want) <= 1e-13


LIFTED = PeriodSpec.parse("p=4;a=1j,0,0,0.5;b=1j,0.5,1j,0;c=0,0,0.5,1j")


def test_lifted_flat_edge_paths_match_dense(monkeypatch):
    # a spec flat at every angle whose compressed flat-edge paths at k=61
    # have end blocks that lift some tops above the copies' band edge, so the
    # Newton steps run above the band (tau > 1): its polygon is the dense one
    cfg, k, lifted, tops = SweepConfig(720, 1), 61, [], sweep._closed_form_tops

    def record(d, e, k, start, lo, m, n):
        if lo > 0:
            lifted.append(np.count_nonzero(start > sweep._band_edges(d[lo : lo + m], e[lo : lo + m])))
        return tops(d, e, k, start, lo, m, n)

    monkeypatch.setattr(sweep, "_closed_form_tops", record)
    points = _truncation_points(LIFTED, k, cfg)
    assert points.size == 3 * cfg.num_theta and sum(lifted) >= 100
    dense = boundary_points(build_truncation(LIFTED, k), cfg)
    assert hausdorff(convex_hull(points), convex_hull(dense)) <= 1e-13


def lifted_taus(monkeypatch):
    """The |tau| > 1 at which :func:`sweep._closed_form_tops` steps on the
    lifted paths, with ``psi = arccosh |tau|`` of at least 0.25."""
    taus, step = [], sweep._floquet_step
    d, e, k, repeat = lifted_paths()[:4]
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_floquet_step", lambda c1, c0, tau, *rest: taus.append(tau[0]) or step(c1, c0, tau, *rest))
        sweep._top_pairs(d, e, k, repeat)
    a = np.abs(np.concatenate(taus))
    return a[(a > 1) & (np.arccosh(np.maximum(a, 1.0)) >= 0.25)]


@pytest.mark.parametrize("n", [2, 3, 61, 6400])
def test_real_floquet_step_matches_the_complex_one(monkeypatch, n):
    # the real-valued step against the complex one (oracles.py) at tau of
    # both signs: inside the band, at its edge (phi = 0), where every
    # argument of h is in its series, and above the band (the lifted paths'
    # steps); three probes isolate U_{n-1}' / U_{n-1}, U_{n-2}' / U_{n-2}
    # (1 / slope: infinite for both at n = 2, where U_0 = 1) and the ratio
    # U_{n-2} / U_{n-1} (-root sign ratio, the slope's term below 1e-16).
    # "small" phases put the arguments y of h = (1 - y cot y) / y^2 (phi,
    # (n-1) phi, n phi) in 1e-3 .. 0.1, where 1 - y cot y cancels and both
    # steps take a series for h, the oracle one of its own; at most 9.4 ulps
    # apart, the ratio above the band, where cosh psi - sinh psi / tanh(n psi)
    # cancels by e^(2 psi)
    eps = np.finfo(float).eps
    taus = {
        "interior": np.cos(np.array([0.5, 0.75, 1.25]) * np.pi / n),
        "small": np.cos(np.concatenate([np.array([2e-3, 1e-2, 8e-2]) / n, [3e-3, 3e-2]])),
        "edge": np.ones(1),
        "series": np.cos(np.array([1e-4, 1e-6, 1e-7]) / n),
        "above": lifted_taus(monkeypatch),
    }
    assert taus["above"].size >= 12
    for name, t in taus.items():
        tau = np.array([np.concatenate([t, -t]), np.full(2 * t.size, 1.5)])
        for c1, c0, root in [((1.0, 0.0), (0.0, 0.0), 0.0), ((0.0, 0.0), (1.0, 0.0), 1.0), ((0.0, 1.0), (1.0, 0.0), 2.0**-60)]:
            with np.errstate(divide="ignore", invalid="ignore"):
                real, reference = sweep._floquet_step(c1, c0, tau, root, n), complex_floquet_step(c1, c0, tau, root, n)
            infinite = np.isinf(reference)
            assert np.array_equal(np.isinf(real), infinite) and np.all(np.isfinite(reference) | (n == 2)), name
            np.testing.assert_allclose(real[~infinite], reference[~infinite], rtol=16 * eps, atol=0, err_msg=name)


@pytest.mark.parametrize("hyperbolic", [False, True])
def test_cot_ratio_matches_mpmath(hyperbolic):
    # h(y) = (1 - y cot y) / y^2, and (y coth y - 1) / y^2, of the real
    # Newton step to 1e-15 relative against 50 digits on y in [1e-4, 1.5]:
    # the difference cancels from 1e-3 (3e-11 off once) up to about 1, where
    # the series takes over; over the whole grid, and one y at a time, as
    # the series takes only the terms its largest argument needs
    mp = pytest.importorskip("mpmath")
    y = np.geomspace(1e-4, 1.5, 401)
    t = np.tanh(y) if hyperbolic else np.tan(y)
    with mp.workdps(50):
        exact = [float((z * mp.coth(z) - 1 if hyperbolic else 1 - z * mp.cot(z)) / z**2) for z in map(mp.mpf, y)]
    one_at_a_time = [sweep._cot_ratio(y[i : i + 1], t[i : i + 1], hyperbolic)[0] for i in range(y.size)]
    for h in (sweep._cot_ratio(y, t, hyperbolic), one_at_a_time):
        np.testing.assert_allclose(h, exact, rtol=1e-15, atol=0)


def spied_steps(monkeypatch):
    """Per step of :func:`sweep._closed_form_tops` (a call of
    :func:`sweep._floquet_step`), the rows of its :func:`sweep._continuant`
    calls; and per :func:`sweep._descend`, its iterations: the steps it
    asks for, and the one it is handed."""
    steps, rows, iterations = [], [], []
    continuant, step, descend = sweep._continuant, sweep._floquet_step, sweep._descend

    def record(f, lam, first=None):
        iterations.append(first is not None)
        return descend(lambda x: iterations.__setitem__(-1, iterations[-1] + 1) or f(x), lam, first)

    monkeypatch.setattr(sweep, "_continuant", lambda d, e2, lam, r: rows.append(tuple(r)) or continuant(d, e2, lam, r))
    monkeypatch.setattr(sweep, "_floquet_step", lambda *args: steps.append(rows[:]) or rows.clear() or step(*args))
    monkeypatch.setattr(sweep, "_descend", record)
    return steps, iterations


@pytest.mark.parametrize("name", ["01", "001", "lifted"])
def test_closed_form_tops_use_every_step(monkeypatch, name):
    # word 01 at k=800 (720 angles), 001 at k=61 (a row after the copies, a
    # period with inner rows), the lifted compressed paths (rows before and
    # after the copies): each step is one step of the descent, the first
    # one's included, and no continuant in a step repeats another's rows or
    # has none
    if name == "lifted":
        d, e, k, repeat = lifted_paths()[:4]
        lo, m, n = repeat
        start = sweep._band_edges(d[lo : lo + m], e[lo : lo + m])
        start = np.maximum(start, np.r_[d[:lo], d[lo + n * m :]].max(axis=0) + 1e-12)
    else:
        spec, k = (WORD01, 800) if name == "01" else (PeriodSpec.from_word("001"), 61)
        d, e = sweep._scaled_tridiagonals(spec, phi_grid(720))[:2]
        lo, m, n, start = 0, spec.p, k // spec.p, sweep._band_edges(d, e)
    steps, iterations = spied_steps(monkeypatch)
    top = sweep._closed_form_tops(d, e, k, start, lo, m, n)
    monkeypatch.undo()
    assert np.isfinite(top).all() and len(iterations) == 1
    assert len(steps) == iterations[0] >= 2
    for rows in steps:
        assert all(rows) and len(set(rows)) == len(rows)


def jacobi_cases():
    """Seeded (d, e) paths of k rows, one matrix per column (e[k - 1]
    unused): random, with a zero edge, and two equal blocks."""
    rng = np.random.default_rng(77)
    for k in (1, 2, 3, 400):
        d, e = rng.uniform(-1.0, 1.0, (k, 8)), rng.uniform(0.0, 1.0, (k, 8))
        yield d, e
        cut = e.copy()
        cut[k // 2 - 1] = 0.0
        yield d, cut
        if k % 2 == 0:
            half = k // 2
            tied_d, tied_e = np.vstack([d[:half], d[:half]]), np.vstack([e[:half], e[:half]])
            tied_e[half - 1] = 0.0
            yield tied_d, tied_e


def test_rayleigh_core_is_certified_on_seeded_jacobi_matrices(monkeypatch):
    # no eigenvalue at or above the top, and at most twice the residual
    # bound (16 eps (|top| + 1)) plus the margin above bisection's top;
    # eigvalsh itself strays by up to 46 ulps at k = 400; vectors at
    # rounding level
    eps = np.finfo(float).eps
    for d, e in jacobi_cases():
        k = d.shape[0]
        top, x = fallback_columns(monkeypatch, d, e, k)[1:]
        plain = bisection_tops(d, e, k)
        assert not sweep._count_above(d, e * e, top, k).any()
        assert np.all(top - plain <= 34 * eps * (np.abs(plain) + 1) + 2 * sweep._bracket_width(plain, plain))
        for j in range(d.shape[1]):
            s = np.diag(d[:, j]) + np.diag(e[:-1, j], 1) + np.diag(e[:-1, j], -1)
            assert abs(top[j] - np.linalg.eigvalsh(s)[-1]) <= 1e-13
            v = x[:, j]
            quotient = v @ s @ v / (v @ v)
            assert np.linalg.norm(s @ v - quotient * v) <= 64 * eps * np.linalg.norm(v)


def test_truncation_support_bounds_the_dense_top():
    rng = np.random.default_rng(78)
    eps = np.finfo(float).eps
    thetas = phi_grid(24)
    for p in (2, 3, 5):
        spec = random_spec(rng, p)
        for k in (1, 7, 400):
            t_k = build_truncation(spec, k)
            dense = np.array([np.linalg.eigvalsh(hermitian_part(t_k, t))[-1] for t in thetas])
            scale = np.abs(t_k).sum(axis=1).max()
            gap = truncation_support(spec, k, thetas) - dense
            assert np.all(gap >= -8 * eps * scale)
            assert np.all(gap <= 40 * eps * scale)


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
    # the vectors of the two angles are one (k, 2) array, and the Sturm
    # counts run through a fixed block of pivot rows
    assert _traced_peak(lambda: truncation_support(WORD01, 5000, [0.0, np.pi])) < 4 * 2**20


def test_multisection_memory_is_bounded_for_long_periods():
    # two open columns of a 4000-row S (one period of 4000 rows): each pass
    # tests one shift per column, on the period as it is, and the pivots go
    # through a fixed block of rows
    rng = np.random.default_rng(13)
    k = 4000
    d, e = rng.uniform(-1.0, 0.0, (k, 2)), rng.uniform(0.0, 0.5, (k, 2))
    tops = []
    start = sweep._gershgorin(d, e).max(axis=0)
    assert _traced_peak(lambda: tops.append(sweep._top_pairs(d, e, k, (0, k, 1), None, start)[0])) < 16 * 2**20
    assert not sweep._count_above(d, e * e, tops[0], k).any()
    tol = 2 * (2 * np.finfo(float).eps * np.abs(tops[0]) + sweep.PIVMIN)
    assert np.all(sweep._count_above(d, e * e, tops[0] - tol, k) >= 1)


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

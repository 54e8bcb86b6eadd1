"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from numrange.checks import random_period_specs
from numrange.ellipse import stadium_region
from numrange.geometry import (
    RangePolygon,
    convex_hull,
    hausdorff,
    support_width,
)
from numrange.operators import (
    PeriodSpec,
    build_block_unitary,
    build_circulant,
    build_symbol,
    build_truncation,
    lift_eigenvector,
    phi_grid,
)
from numrange.sweep import (
    SweepConfig,
    boundary_points,
    range_boundary,
    selfadjoint_interval,
    symbol_union_hull,
    truncation_range,
)
from oracles import (
    conjecture_pair,
    distance_to_region,
    rayleigh_samples,
    symbol_ellipse_point,
    tangency_parameter,
)

SEED = 20260808
FULL = SweepConfig(num_theta=720, num_phi=720)


def _finish(num: int, label: str, detail: str, start: float, limit: float):
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num} ({label}): {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _pair_hull(n: int, cfg: SweepConfig) -> RangePolygon:
    plus, minus = conjecture_pair(n)
    return convex_hull(
        np.concatenate([boundary_points(plus, cfg), boundary_points(minus, cfg)])
    )


def test_criterion_1_block_diagonalization():
    start = time.perf_counter()
    worst = 0.0
    for spec, s in random_period_specs(50, seed=SEED):
        cm = build_circulant(spec, s)
        u = build_block_unitary(spec, s)
        blocks = np.zeros_like(cm)
        for k, phi in enumerate(phi_grid(s)):
            blocks[k * spec.p : (k + 1) * spec.p, k * spec.p : (k + 1) * spec.p] = (
                build_symbol(spec, phi)
            )
        defect = np.linalg.norm(u.conj().T @ cm @ u - blocks)
        bound = 1e-10 * (1.0 + np.linalg.norm(cm))
        assert defect <= bound
        worst = max(worst, defect / bound)
    _finish(1, "block diagonalization", f"worst defect ratio {worst:.2e}", start, 10)


def test_criterion_2_spectrum_union_and_lifting():
    start = time.perf_counter()
    worst = 0.0
    for spec, s in random_period_specs(50, seed=SEED):
        cm = build_circulant(spec, s)
        for phi in phi_grid(s):
            values, vectors = np.linalg.eig(build_symbol(spec, phi))
            for lam, v in zip(values, vectors.T):
                lifted = lift_eigenvector(v, phi, s)
                residual = np.linalg.norm(cm @ lifted - lam * lifted)
                scaled = residual / ((1.0 + abs(lam)) * np.linalg.norm(lifted))
                assert scaled <= 1e-10
                worst = max(worst, scaled)
    _finish(2, "eigenvector lifting", f"worst scaled residual {worst:.2e}", start, 10)


def test_criterion_3_stadium_identity():
    start = time.perf_counter()
    hull01 = symbol_union_hull(PeriodSpec.from_word("01"), FULL)
    stadium = stadium_region(720)
    pair = _pair_hull(1, FULL)
    distances = [
        hausdorff(hull01, stadium),
        hausdorff(stadium, pair),
        hausdorff(hull01, pair),
    ]
    assert max(distances) <= 2e-3
    widths = []
    for region in (hull01, stadium, pair):
        widths.append(abs(support_width(region, 0.0) - 1.5))
        widths.append(abs(support_width(region, np.pi / 2) - 0.5))
    assert max(widths) <= 1e-3
    _finish(
        3,
        "stadium identity",
        f"worst Hausdorff {max(distances):.2e}, worst width error {max(widths):.2e}",
        start,
        30,
    )


def test_criterion_4_pair_ellipse_axes():
    start = time.perf_counter()
    plus, _ = conjecture_pair(2)
    poly = range_boundary(plus, FULL)
    s_right = support_width(poly, 0.0)
    s_up = support_width(poly, np.pi / 2)
    s_left = support_width(poly, np.pi)
    s_down = support_width(poly, 3 * np.pi / 2)
    errors = (
        abs((s_right - s_left) / 2 - 0.5),
        abs(s_right + s_left - np.sqrt(3)),
        abs(s_up + s_down - np.sqrt(2)),
    )
    assert max(errors) <= 1e-6
    _finish(
        4,
        "pair ellipse axes",
        f"center/major/minor errors {errors[0]:.1e}/{errors[1]:.1e}/{errors[2]:.1e}",
        start,
        1,
    )


def test_criterion_5_conjecture_desk_scale():
    start = time.perf_counter()
    gaps = {}
    for n in (2, 3):
        hull = symbol_union_hull(PeriodSpec.from_word("0" * n + "1"), FULL)
        gaps[n] = hausdorff(hull, _pair_hull(n, FULL))
        assert gaps[n] <= 0.02
    control = hausdorff(
        symbol_union_hull(PeriodSpec.from_word("11"), FULL), stadium_region(720)
    )
    assert control >= 0.1
    _finish(
        5,
        "conjecture n=2,3",
        f"gaps {gaps[2]:.2e}/{gaps[3]:.2e}, negative control {control:.2f}",
        start,
        120,
    )


def test_criterion_6_selfadjoint_interval():
    start = time.perf_counter()
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    lo, hi = selfadjoint_interval(spec)
    closed_form = max(abs(lo + 2.0), abs(hi - 2.0))
    assert closed_form <= 1e-6
    lam_min, lam_max = np.linalg.eigvalsh(build_truncation(spec, 400))[[0, -1]]
    trunc_gap = max(abs(lo - lam_min), abs(hi - lam_max))
    assert trunc_gap <= 1e-3
    _finish(
        6,
        "self-adjoint interval",
        f"closed-form error {closed_form:.1e}, truncation gap {trunc_gap:.1e}",
        start,
        10,
    )


def test_criterion_7_sweep_soundness_and_equivariance():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_inside = 0.0
    worst_equiv = 0.0
    alphas = 2 * np.pi * np.arange(8) / 8
    for i in range(100):
        dim = int(rng.integers(3, 7))
        a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        poly = range_boundary(a, FULL)
        samples = rayleigh_samples(a, 100, seed=SEED + i)
        worst_inside = max(worst_inside, distance_to_region(samples, poly).max())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        shifted = range_boundary(a + beta * np.eye(dim), FULL)
        worst_equiv = max(
            worst_equiv, hausdorff(shifted, RangePolygon(poly.vertices + beta))
        )
        alpha = alphas[i % 8]
        rotated = range_boundary(np.exp(1j * alpha) * a, FULL)
        worst_equiv = max(
            worst_equiv,
            hausdorff(rotated, RangePolygon(np.exp(1j * alpha) * poly.vertices)),
        )
    assert worst_inside <= 1e-9
    assert worst_equiv <= 1e-9
    _finish(
        7,
        "sweep soundness",
        f"10^4 Rayleigh points inside (max overshoot {worst_inside:.1e}), "
        f"equivariance {worst_equiv:.1e}",
        start,
        60,
    )


def test_criterion_8_ellipse_cross_validation():
    start = time.perf_counter()
    spec = PeriodSpec.from_word("01")
    cfg = SweepConfig(num_theta=720, num_phi=1)
    thetas = 2 * np.pi * np.arange(cfg.num_theta) / cfg.num_theta
    worst_hd = 0.0
    worst_tangency = 0.0
    for phi in np.linspace(0, 2 * np.pi, 360, endpoint=False):
        swept = range_boundary(build_symbol(spec, phi), cfg)
        # polygonize the ellipse at the tangency parameters of the sweep
        # directions: both polygons then sample the same boundary contacts
        t_match = tangency_parameter(phi, thetas)
        ellipse = convex_hull(symbol_ellipse_point(phi, t_match))
        worst_hd = max(worst_hd, hausdorff(swept, ellipse))
        b_up = tangency_parameter(phi, np.pi / 2)
        worst_tangency = max(
            worst_tangency, abs(symbol_ellipse_point(phi, b_up) - (np.sin(phi) + 0.5j))
        )
        b_down = tangency_parameter(phi, 3 * np.pi / 2)
        worst_tangency = max(
            worst_tangency, abs(symbol_ellipse_point(phi, b_down) - (-np.sin(phi) - 0.5j))
        )
        if phi <= np.pi / 2 or phi >= 3 * np.pi / 2:
            b_self = tangency_parameter(phi, phi)
            worst_tangency = max(
                worst_tangency,
                abs(symbol_ellipse_point(phi, b_self) - (1 + 0.5 * np.exp(1j * phi))),
            )
    assert worst_hd <= 1e-5
    assert worst_tangency <= 1e-8
    _finish(
        8,
        "ellipse cross-validation",
        f"worst Hausdorff {worst_hd:.2e}, worst tangency error {worst_tangency:.2e}",
        start,
        60,
    )


def test_criterion_9_symmetries():
    start = time.perf_counter()
    worst_trunc = 0.0
    cfg = SweepConfig(num_theta=720, num_phi=1)
    for word in ("01", "001", "0001"):
        spec = PeriodSpec.from_word(word)
        for k in range(1, 31):
            poly = truncation_range(spec, k, cfg)
            worst_trunc = max(
                worst_trunc, hausdorff(poly, RangePolygon(-poly.vertices))
            )
    assert worst_trunc <= 1e-8
    worst_pair = 0.0
    for n in range(1, 5):
        plus, minus = conjecture_pair(n)
        worst_pair = max(
            worst_pair,
            hausdorff(
                range_boundary(plus, cfg),
                RangePolygon(-range_boundary(minus, cfg).vertices),
            ),
        )
    assert worst_pair <= 1e-8
    _finish(
        9,
        "origin symmetry",
        f"truncations {worst_trunc:.1e}, matrix pairs {worst_pair:.1e}",
        start,
        30,
    )

"""Closed-form ellipse family, tangent lines, stadium, special vectors."""

import numpy as np
import pytest

from numrange.ellipse import stadium_region, symbol_ellipse
from numrange.geometry import convex_hull, hausdorff, support_width
from numrange.operators import PeriodSpec, build_symbol
from numrange.sweep import SweepConfig, boundary_points, range_boundary
from oracles import (
    check_semiplane_containment,
    conjecture_pair,
    distance_to_region,
    special_vector_value,
    symbol_ellipse_point,
    tangency_parameter,
    tangent_line_support,
)

WORD01 = PeriodSpec.from_word("01")


def ellipse_polygon(phi: float, num_t: int = 2048):
    t = 2 * np.pi * np.arange(num_t) / num_t
    return convex_hull(symbol_ellipse_point(phi, t))


# --- parameters ---------------------------------------------------------------


def test_symbol_ellipse_at_pi_is_half_circle():
    params = symbol_ellipse(np.pi)
    assert abs(params.w) <= 1e-15
    assert params.major_len == pytest.approx(1.0, abs=1e-15)
    assert params.minor_len == pytest.approx(1.0, abs=1e-15)
    assert abs(params.foci[0]) <= 1e-7  # sqrt of a ~1e-16 residual


def test_symbol_ellipse_at_zero():
    params = symbol_ellipse(0.0)
    assert params.w == 2.0
    assert params.foci[0] == pytest.approx(np.sqrt(2))
    assert params.foci[1] == pytest.approx(-np.sqrt(2))
    assert params.major_len == 3.0
    assert params.minor_len == 1.0
    assert params.rotation == 0.0


def test_symbol_ellipse_identities_on_grid():
    for phi in np.linspace(0, 2 * np.pi, 100, endpoint=False):
        params = symbol_ellipse(phi)
        assert params.w.real == pytest.approx(1 + np.cos(phi), abs=1e-12)
        assert params.w.imag == pytest.approx(np.sin(phi), abs=1e-12)
        assert abs(params.w) ** 2 == pytest.approx(2 * params.w.real, abs=1e-12)
        assert params.major_len >= params.minor_len >= 0
        assert params.foci[0] == pytest.approx(-params.foci[1], abs=1e-15)


def test_symbol_ellipse_point_circle_case():
    for t in np.linspace(0, 2 * np.pi, 17):
        assert abs(symbol_ellipse_point(np.pi, t)) == pytest.approx(0.5, abs=1e-8)


def test_symbol_ellipse_point_semi_major_vertex():
    assert abs(symbol_ellipse_point(0.0, 0.0)) == pytest.approx(1.5, abs=1e-15)


def test_symbol_ellipse_point_focal_distance_sum():
    rng = np.random.default_rng(9)
    for _ in range(50):
        phi = rng.uniform(0, 2 * np.pi)
        t = rng.uniform(0, 2 * np.pi)
        params = symbol_ellipse(phi)
        z = symbol_ellipse_point(phi, t)
        total = abs(z - params.foci[0]) + abs(z - params.foci[1])
        assert total == pytest.approx(params.major_len, abs=1e-12)


# --- tangent lines --------------------------------------------------------------


def test_tangent_line_support_values():
    assert tangent_line_support(0.0) == pytest.approx(1.5)
    assert tangent_line_support(np.pi / 2) == pytest.approx(0.5)
    assert tangent_line_support(7 * np.pi / 4) == pytest.approx(0.5 + np.cos(np.pi / 4))


def test_tangent_line_matches_stadium_support():
    stadium = stadium_region(2048)
    for psi in (0.0, 0.3, np.pi / 2, 3 * np.pi / 2, 5.8):
        assert support_width(stadium, psi) == pytest.approx(
            tangent_line_support(psi), abs=1e-6
        )


def test_semiplane_tangency_at_matching_angles():
    contained, tangent = check_semiplane_containment(0.0, 0.0)
    assert contained and tangent == pytest.approx(1.5)
    contained, tangent = check_semiplane_containment(np.pi / 3, np.pi / 2)
    assert contained
    assert tangent == pytest.approx(np.sin(np.pi / 3) + 0.5j)
    contained, tangent = check_semiplane_containment(np.pi / 3, 3 * np.pi / 2)
    assert contained
    assert tangent == pytest.approx(-np.sin(np.pi / 3) - 0.5j)


def test_semiplane_strict_containment_when_angles_differ():
    num_t = 4096
    t = 2 * np.pi * np.arange(num_t) / num_t
    for phi in (0.4, 2.0, 4.4):
        contained, tangent = check_semiplane_containment(phi, 0.0, num_t)
        assert contained and tangent is None
        support = (symbol_ellipse_point(phi, t)).real.max()
        assert support < 1.5 - 1e-6


def test_semiplane_containment_whole_grid():
    for phi in np.linspace(0, 2 * np.pi, 60, endpoint=False):
        for psi in (0.0, 0.7, np.pi / 2, 3 * np.pi / 2, 5.5):
            contained, _ = check_semiplane_containment(phi, psi, num_t=512)
            assert contained


def test_tangency_parameter_reproduces_contact_points():
    # the support profile over t is A cos(t - B); its argmax B realizes the
    # closed-form tangent points
    for phi in np.linspace(0, 2 * np.pi, 360, endpoint=False):
        b = tangency_parameter(phi, np.pi / 2)
        assert symbol_ellipse_point(phi, b) == pytest.approx(np.sin(phi) + 0.5j, abs=1e-8)
    for psi in np.concatenate(
        [np.linspace(0, np.pi / 2, 45), np.linspace(3 * np.pi / 2, 2 * np.pi, 45, endpoint=False)]
    ):
        b = tangency_parameter(psi, psi)
        assert symbol_ellipse_point(psi, b) == pytest.approx(
            1 + 0.5 * np.exp(1j * psi), abs=1e-8
        )


def test_tangency_parameter_takes_an_array_of_directions():
    psi = np.linspace(0, 2 * np.pi, 97)
    for phi in (0.0, 1.3, np.pi):
        many = tangency_parameter(phi, psi)
        assert isinstance(many, np.ndarray) and many.shape == psi.shape
        one = [tangency_parameter(phi, x) for x in psi]
        assert all(isinstance(b, float) for b in one)
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-15)


# --- stadium ---------------------------------------------------------------------


def test_stadium_supports_and_validation():
    stadium = stadium_region(720)
    assert support_width(stadium, 0.0) == pytest.approx(1.5, abs=1e-6)
    assert support_width(stadium, np.pi / 2) == pytest.approx(0.5, abs=1e-9)
    assert support_width(stadium, np.pi) == pytest.approx(1.5, abs=1e-6)
    with pytest.raises(ValueError):
        stadium_region(7)


def test_stadium_is_hull_of_all_ellipses():
    stadium = stadium_region(720)
    samples = np.concatenate(
        [symbol_ellipse_point(phi, 2 * np.pi * np.arange(256) / 256)
         for phi in np.linspace(0, 2 * np.pi, 360, endpoint=False)]
    )
    assert hausdorff(stadium, convex_hull(samples)) <= 2e-3


def test_stadium_boundary_lies_on_some_ellipse():
    # each boundary vertex is the tangency point of a known ellipse
    stadium = stadium_region(360)
    for z in stadium.vertices:
        if abs(z.imag) >= 0.5 - 1e-9:
            phi = np.arcsin(np.clip(z.real, -1, 1))
            if z.imag < 0:
                phi = -phi
        elif z.real > 0:
            phi = np.angle((z - 1) * 2)
        else:
            phi = np.angle(-(z + 1) * 2)
        phi = phi % (2 * np.pi)
        assert distance_to_region([z], ellipse_polygon(phi))[0] <= 2e-3


def test_stadium_matches_pair_matrix_ranges():
    plus, minus = conjecture_pair(1)
    cfg = SweepConfig(720, 1)
    pair_hull = convex_hull(
        np.concatenate([boundary_points(plus, cfg), boundary_points(minus, cfg)])
    )
    assert hausdorff(stadium_region(720), pair_hull) <= 1e-3


# --- sweep cross-validation -------------------------------------------------------


def test_symbol_sweep_matches_ellipse_polygon():
    cfg = SweepConfig(2880, 1)
    for phi in (0.0, 0.9, np.pi / 2, np.pi, 4.0, 5.7):
        swept = range_boundary(build_symbol(WORD01, phi), cfg)
        assert hausdorff(swept, ellipse_polygon(phi, 2880)) <= 1e-5


def test_proof_variant_symbol_has_same_range():
    # the alternative 2x2 arrangement with the same off-diagonal product
    cfg = SweepConfig(1440, 1)
    for phi in (0.3, 2.2, 5.0):
        variant = np.array([[0, 1 + np.exp(-1j * phi)], [np.exp(1j * phi), 0]])
        ours = range_boundary(build_symbol(WORD01, phi), cfg)
        theirs = range_boundary(variant, cfg)
        assert hausdorff(ours, theirs) <= 1e-5


# --- special vector ----------------------------------------------------------------


def test_special_vector_values():
    assert special_vector_value(0.0) == pytest.approx(1.0, abs=1e-12)
    assert special_vector_value(0.5) == pytest.approx(1.25, abs=1e-10)
    assert special_vector_value(-0.9) == pytest.approx(0.55, abs=1e-10)


def test_special_vector_identity_on_disk():
    rng = np.random.default_rng(17)
    for _ in range(25):
        lam = 0.97 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        assert special_vector_value(lam) == pytest.approx(1 + lam / 2, abs=1e-10)


def test_special_vector_rejects_large_modulus():
    for lam in (1.0, -1.2, 1j):
        with pytest.raises(ValueError):
            special_vector_value(lam)

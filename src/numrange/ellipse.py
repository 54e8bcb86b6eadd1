"""Closed-form geometry of the period-01 symbol ranges.

For the period-word-01 operator (zero diagonal, unit superdiagonal) the
symbol at twist angle phi has numerical range bounded by the ellipse with
foci ``+-sqrt(w)`` and major axis ``1 + |w|``, where ``w = 1 + e^{i phi}``.
This module provides that family in closed form, the tangent-line structure
of its union, and the stadium (hull of two radius-1/2 disks centred at -1
and 1) that the union fills out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RangePolygon, convex_hull
from .operators import PeriodSpec, build_truncation

__all__ = [
    "EllipseParams",
    "symbol_ellipse",
    "symbol_ellipse_point",
    "tangency_parameter",
    "tangent_line_support",
    "check_semiplane_containment",
    "stadium_region",
    "special_vector_value",
]

_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse with foci ``+-sqrt(w)``, given axis lengths and tilt."""

    w: complex
    foci: tuple[complex, complex]
    major_len: float
    minor_len: float
    rotation: float


def symbol_ellipse(phi: float) -> EllipseParams:
    """Parameters of the boundary ellipse at twist angle ``phi``."""
    w = 1.0 + np.exp(1j * phi)
    root = np.sqrt(complex(w))
    rotation = 0.0 if w == 0 else float(np.angle(root))
    return EllipseParams(
        w=complex(w),
        foci=(complex(root), complex(-root)),
        major_len=float(1.0 + abs(w)),
        minor_len=float(abs(1.0 - abs(w))),
        rotation=rotation,
    )


def symbol_ellipse_point(phi: float, t) -> complex | np.ndarray:
    """Boundary point(s) ``e^{i rot} (|w|/2 e^{-i t} + 1/2 e^{i t})``.

    ``t`` may be a scalar or an array of parameter angles.
    """
    params = symbol_ellipse(phi)
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * params.rotation) * (
        0.5 * abs(params.w) * np.exp(-1j * t) + 0.5 * np.exp(1j * t)
    )
    return complex(z) if z.ndim == 0 else z


def tangency_parameter(phi: float, psi) -> float | np.ndarray:
    """Parameter angle maximizing ``Re(symbol_ellipse_point(phi, t) e^{-i psi})``.

    Writing the support profile as ``A cos(t - B)``, this returns B: a float
    for a scalar ``psi``, an array for an array of them.
    """
    params = symbol_ellipse(phi)
    delta = params.rotation - np.asarray(psi, dtype=float)
    b = np.arctan2((abs(params.w) - 1.0) * np.sin(delta), (abs(params.w) + 1.0) * np.cos(delta))
    return float(b) if b.ndim == 0 else b


def _validate_psi(psi: float) -> None:
    ok = (-_ANGLE_TOL <= psi <= np.pi / 2 + _ANGLE_TOL) or (
        3 * np.pi / 2 - _ANGLE_TOL <= psi < 2 * np.pi
    )
    if not ok:
        raise ValueError(
            f"psi={psi} outside [0, pi/2] union [3pi/2, 2pi)"
        )


def tangent_line_support(psi: float) -> float:
    """Support value ``1/2 + cos(psi)`` of the line tangent to the circle
    ``|z - 1| = 1/2`` at ``1 + e^{i psi}/2``."""
    _validate_psi(psi)
    return 0.5 + float(np.cos(psi))


def check_semiplane_containment(
    phi: float, psi: float, num_t: int = 4096
) -> tuple[bool, complex | None]:
    """Check the twist-angle ellipse against the closed half-plane of ``tangent_line_support``.

    Returns ``(contained, tangent_point)``.  Containment is tested on a
    ``num_t`` grid of parameter angles with a 1e-9 slack.  The tangent point
    is the closed-form contact point in the equality cases: ``1 + e^{i psi}/2``
    when ``phi == psi`` away from the vertical-tangent angles, and
    ``+-(sin(phi) + i/2)`` when ``psi`` is ``pi/2`` or ``3 pi/2``.
    """
    _validate_psi(psi)
    t = 2.0 * np.pi * np.arange(num_t) / num_t
    support = float((symbol_ellipse_point(phi, t) * np.exp(-1j * psi)).real.max())
    contained = support <= tangent_line_support(psi) + 1e-9

    tangent: complex | None
    if abs(psi - np.pi / 2) <= _ANGLE_TOL:
        tangent = complex(np.sin(phi), 0.5)
    elif abs(psi - 3 * np.pi / 2) <= _ANGLE_TOL:
        tangent = complex(-np.sin(phi), -0.5)
    elif abs((phi - psi + np.pi) % (2 * np.pi) - np.pi) <= _ANGLE_TOL:
        tangent = 1.0 + 0.5 * complex(np.exp(1j * psi))
    else:
        tangent = None
    return contained, tangent


def stadium_region(resolution: int = 720) -> RangePolygon:
    """Polygonization of the hull of the two radius-1/2 disks at -1 and 1.

    Two semicircular arcs joined by the horizontal segments at ``+- i/2``;
    the segments come out of the hull of the arc samples.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    half = resolution // 2
    right = np.linspace(-np.pi / 2, np.pi / 2, half + 1)
    left = np.linspace(np.pi / 2, 3 * np.pi / 2, half + 1)
    return convex_hull(
        np.concatenate([1.0 + 0.5 * np.exp(1j * right), -1.0 + 0.5 * np.exp(1j * left)])
    )


def special_vector_value(lam: complex) -> complex:
    """Rayleigh quotient of the period-01 operator at the vector
    ``(1, 1, lam, lam, lam^2, lam^2, ...)``, truncated once the tail is
    below 1e-13.  Equals ``1 + lam/2`` for ``|lam| < 1``."""
    lam = complex(lam)
    mod = abs(lam)
    if mod >= 1.0:
        raise ValueError(f"need |lam| < 1, got {mod}")
    if mod == 0.0:
        periods = 1
    else:
        periods = max(1, int(np.ceil(np.log(1e-13 * (1.0 - mod * mod)) / np.log(mod * mod))))
    x = np.repeat(lam ** np.arange(periods), 2)
    u = x / np.linalg.norm(x)
    t = build_truncation(PeriodSpec.from_word("01"), 2 * periods)
    return complex(np.vdot(u, t @ u))

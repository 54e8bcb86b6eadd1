"""Closed-form geometry of the period-01 symbol ranges.

For the period-word-01 operator (zero diagonal, unit superdiagonal) the
symbol at twist angle phi has numerical range bounded by the ellipse with
foci ``+-sqrt(w)`` and major axis ``1 + |w|``, where ``w = 1 + e^{i phi}``.
This module provides that family in closed form and the stadium (hull of
two radius-1/2 disks centred at -1 and 1) that the union fills out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RangePolygon, convex_hull

__all__ = ["EllipseParams", "symbol_ellipse", "stadium_region"]


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


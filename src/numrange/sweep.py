"""Numerical-range boundaries via the support-angle sweep.

For each direction theta the numerical range's support line touches the
boundary at the Rayleigh quotient of a top eigenvector of the Hermitian part
of ``exp(-i theta) A``.  Sweeping theta over a uniform grid and taking the
convex hull of the touch points yields an inscribed polygon whose support
function is within O(1/num_theta^2) of the true one.  Where the support
line meets the range along a flat edge (degenerate top eigenvalue) the
sweep emits the edge's endpoints, so flat pieces are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RangePolygon, convex_hull
from .linalg import as_matrix, eigh
from .operators import PeriodSpec, build_symbol, build_truncation, phi_grid

__all__ = [
    "NotSelfAdjointError",
    "SweepConfig",
    "boundary_points",
    "range_boundary",
    "selfadjoint_interval",
    "symbol_union_hull",
    "truncation_range",
    "rayleigh_samples",
]


class NotSelfAdjointError(ValueError):
    """Raised when an operation requires a self-adjoint period spec."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid sizes: ``num_theta`` support angles, ``num_phi`` symbol angles."""

    num_theta: int = 720
    num_phi: int = 720

    def __post_init__(self):
        if self.num_theta < 3:
            raise ValueError("num_theta must be >= 3")
        if self.num_phi < 1:
            raise ValueError("num_phi must be >= 1")


DEGENERATE_GAP = 1e-10


def boundary_points(a, cfg: SweepConfig = SweepConfig()) -> np.ndarray:
    """Support touch points of W(a), at least one per sweep angle.

    Every returned point is a Rayleigh quotient, hence a member of W(a).
    When the top eigenvalue of the rotated Hermitian part is (near-)
    degenerate the support line touches W(a) along a flat segment; an
    arbitrary eigenvector would land somewhere inside it, so both segment
    endpoints are emitted as well.  They are the extremes of the rotated
    matrix's skew part compressed to the top eigenspace, which keeps the
    point set exactly compatible with the symmetries of ``a``.
    """
    a = as_matrix(a)
    if a.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    thetas = 2.0 * np.pi * np.arange(cfg.num_theta) / cfg.num_theta
    phase = np.exp(-1j * thetas)
    h = 0.5 * (
        phase[:, None, None] * a + np.conj(phase)[:, None, None] * a.conj().T
    )
    values, vecs = eigh(h)
    top = vecs[:, :, -1]
    points = [np.einsum("ti,ij,tj->t", top.conj(), a, top)]

    if a.shape[0] > 1:
        gap_tol = DEGENERATE_GAP * (1.0 + np.abs(values[:, -1]))
        for t in np.nonzero(values[:, -1] - values[:, -2] <= gap_tol)[0]:
            span = vecs[t][:, values[t] >= values[t, -1] - gap_tol[t]]
            rotated = phase[t] * a
            skew = (rotated - rotated.conj().T) / 2j
            compressed = span.conj().T @ (skew @ span)
            compressed = 0.5 * (compressed + compressed.conj().T)
            _, w = eigh(compressed)
            ends = span @ w[:, [0, -1]]
            points.append(np.einsum("it,ij,jt->t", ends.conj(), a, ends))
    return np.concatenate(points)


def range_boundary(a, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Inscribed convex polygon approximating the numerical range of ``a``."""
    return convex_hull(boundary_points(a, cfg))


def _require_selfadjoint(spec: PeriodSpec) -> None:
    if not spec.is_selfadjoint():
        raise NotSelfAdjointError(
            "spec is not self-adjoint: need real b and c[j] = conj(a[j+1])"
        )


def selfadjoint_interval(
    spec: PeriodSpec, cfg: SweepConfig = SweepConfig()
) -> tuple[float, float]:
    """Endpoints of the closure of W(T) for a self-adjoint operator.

    Minimum of the smallest and maximum of the largest symbol eigenvalue
    over the ``num_phi`` twist grid.
    """
    _require_selfadjoint(spec)
    symbols = np.stack([build_symbol(spec, phi) for phi in phi_grid(cfg.num_phi)])
    values = np.linalg.eigvalsh(symbols)
    return float(values[:, 0].min()), float(values[:, -1].max())


def symbol_union_hull(spec: PeriodSpec, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Convex hull of the union of symbol numerical ranges over the phi grid."""
    pts = [boundary_points(build_symbol(spec, phi), cfg) for phi in phi_grid(cfg.num_phi)]
    return convex_hull(np.concatenate(pts))


def truncation_range(
    spec: PeriodSpec, k: int, cfg: SweepConfig = SweepConfig()
) -> RangePolygon:
    """Numerical-range polygon of the k-by-k leading compression."""
    return range_boundary(build_truncation(spec, k), cfg)


def rayleigh_samples(a, trials: int, seed: int) -> np.ndarray:
    """Rayleigh quotients of seeded pseudo-random complex Gaussian unit vectors.

    Each sample lies in W(a) by definition; useful as an inclusion probe
    against swept polygons.
    """
    a = as_matrix(a)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    x = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.einsum("ti,ij,tj->t", x.conj(), a, x)

"""Dense complex matrix helpers and the Hermitian eigensolver.

Matrices are plain square ``numpy.ndarray`` objects with dtype complex128.
Everything here is a pure function; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotHermitianError",
    "NoConvergenceError",
    "as_matrix",
    "hermitian_part",
    "eigh",
    "extreme_pair",
]

HERMITIAN_TOL = 1e-13


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class NoConvergenceError(RuntimeError):
    """Raised when the eigensolver fails to converge."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix.

    Rejects non-square shapes and non-finite entries, so NaN/Inf never
    enter downstream computations.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def hermitian_part(a, theta: float = 0.0) -> np.ndarray:
    """Hermitian part of ``exp(-i*theta) * a``.

    Returns ``(M + M*) / 2`` with ``M = exp(-i*theta) a``.  The symmetrized
    sum makes the result Hermitian exactly (bit level), which the
    eigensolver relies on.
    """
    m = np.exp(-1j * theta) * as_matrix(a)
    return 0.5 * (m + m.conj().T)


def _require_hermitian(a) -> np.ndarray:
    h = as_matrix(a)
    scale = max(1.0, float(np.abs(h).max())) if h.size else 1.0
    defect = float(np.abs(h - h.conj().T).max()) if h.size else 0.0
    if defect > HERMITIAN_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e}"
        )
    return h


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` of one Hermitian matrix or a stack of them.

    Values come ascending along the last axis, with unit eigenvectors in
    the matching columns.  A LAPACK failure is raised as
    :class:`NoConvergenceError`.
    """
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK safety net
        raise NoConvergenceError(str(exc)) from exc


def extreme_pair(h) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Smallest and largest eigenvalue of Hermitian ``h`` with unit eigenvectors."""
    values, vectors = eigh(_require_hermitian(h))
    return float(values[0]), vectors[:, 0].copy(), float(values[-1]), vectors[:, -1].copy()

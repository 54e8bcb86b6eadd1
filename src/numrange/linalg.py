"""Dense complex matrix helpers and the Hermitian eigensolver.

Matrices are plain square ``numpy.ndarray`` objects with dtype complex128.
Everything here is a pure function; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NoConvergenceError",
    "as_matrix",
    "eigh",
]


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


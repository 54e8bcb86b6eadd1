"""Per-point reference geometry, reference eigenvalues and the dense
conjecture matrices for the tests."""

import numpy as np

from numrange import sweep
from numrange.geometry import RangePolygon
from numrange.linalg import as_matrix
from numrange.operators import build_truncation, conjecture_specs


def distance_to_region(points, polygon: RangePolygon) -> np.ndarray:
    """Euclidean distance from each point to the filled convex polygon: 0
    where the point is on the inner side of every edge, else the distance
    to the nearest edge.  No tolerance; points go in chunks of 512 so the
    point-by-edge arrays stay small."""
    zs = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    a = polygon.vertices
    if a.size == 1:
        return np.abs(zs - a[0])
    ab = np.roll(a, -1) - a
    out = np.empty(zs.size)
    for start in range(0, zs.size, 512):
        az = zs[start : start + 512, None] - a
        t = np.clip((az * ab.conj()).real / np.abs(ab) ** 2, 0.0, 1.0)
        d = np.abs(az - t * ab).min(axis=1)
        if a.size >= 3:
            d[((ab.conj() * az).imag >= 0).all(axis=1)] = 0.0
        out[start : start + 512] = d
    return out


def conjecture_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """B + J and B - J: the (n+1)-square truncations of the conjecture specs."""
    return tuple(build_truncation(spec, n + 1) for spec in conjecture_specs(n))


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


def bisection_tops(d, e, k: int) -> np.ndarray:
    """Largest eigenvalue of the k-by-k real symmetric tridiagonal of each
    column, with one period ``d, e`` (shape (p, columns), as in
    :mod:`numrange.sweep`), by plain bisection on :func:`sweep._count_above`:
    from the largest diagonal entry and the Gershgorin bound, one midpoint
    per column and pass, until the bracket is a few ulps wide.  Returns the
    upper ends, at or above which no count finds an eigenvalue."""
    rows = min(k, d.shape[0])
    lo = d[:rows].max(axis=0)
    hi = (d + e + np.roll(e, 1, axis=0))[:rows].max(axis=0)
    e2 = e * e
    while True:
        width = 2 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi)) + sweep.PIVMIN
        at = np.flatnonzero(hi - lo > width)
        if at.size == 0:
            return hi
        mid = np.minimum(lo[at] + (hi[at] - lo[at]) / 2, hi[at])
        above = sweep._count_above(d[:, at], e2[:, at], mid, k) >= 1
        lo[at] = np.where(above, mid, lo[at])
        hi[at] = np.where(above, hi[at], mid)

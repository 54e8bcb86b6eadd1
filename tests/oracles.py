"""Per-point reference geometry for the tests."""

import numpy as np

from numrange.geometry import RangePolygon
from numrange.linalg import as_matrix


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

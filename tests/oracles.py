"""Per-point reference geometry for the tests."""

import numpy as np

from numrange.geometry import RangePolygon


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

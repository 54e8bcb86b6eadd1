"""Planar convex geometry on point sets encoded as complex numbers.

Convex polygons are stored counterclockwise with collinear interior points
removed.  Degenerate regions are allowed: a single point or a two-point
segment are valid polygons.  Hausdorff distances are between the *filled*
regions; for convex sets the maximum of the point-to-region distance is
attained at a vertex, so vertex sweeps are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangePolygon",
    "convex_hull",
    "distance_to_region",
    "hausdorff",
    "support_width",
    "polygon_csv",
    "polygon_to_csv",
    "polygon_from_csv",
]

CROSS_TOL = 1e-12
_DISTANCE_CHUNK = 512


@dataclass(frozen=True)
class RangePolygon:
    """Convex polygon: counterclockwise vertices as a complex array."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertices, dtype=complex))
        if v.size < 1:
            raise ValueError("a polygon needs at least one vertex")
        if not np.isfinite(v).all():
            raise ValueError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return self.vertices.size


def _cross(o, a, b):
    """Twice the signed area of the triangle (o, a, b): positive if counterclockwise."""
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


@np.errstate(over="raise", invalid="raise")
def convex_hull(points) -> RangePolygon:
    """Convex hull of a set of complex points, counterclockwise from the
    lexicographic minimum; every vertex is an input point.

    Batched Quickhull (Barber, Dobkin & Huhdanpaa, *ACM TOMS* 22 (1996)
    469-483): each round splits every edge with points outside it at its
    farthest one (the lexicographic least on ties); a point goes on with
    the new edge it lies farther outside, while its turn there exceeds
    ``eps``.  Then vertices whose turn ``_cross(prev, v, next)`` is at most
    ``eps`` go, by the pop rule of the monotone chain: the first of each run
    of them per round, never the lexicographic extremes.  Collinear input
    collapses to its two extreme points and coincident input to a single
    point.  A turn that overflows, in the rounds or in the pop rule, raises
    ``FloatingPointError`` instead of dropping its point or vertex.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise ValueError("convex hull of an empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    eps = CROSS_TOL * max(1.0, float(np.abs(pts).max()))
    x, y = pts.real.copy(), pts.imag.copy()
    low, high = np.flatnonzero(x == x.min()), np.flatnonzero(x == x.max())[::-1]
    ends = pts[[low[y[low].argmin()], high[y[high].argmax()]]]
    # the cycle, and whether edge i (hull[i] to hull[i + 1]) splits at far: first
    # the minimum's edge to itself, at the maximum; the points x + iy lie outside their edges
    hull, far, split, edge = ends[:1], ends[1:], np.array([True]), np.zeros(pts.size, dtype=np.intp)
    while split.any():
        hull = np.insert(hull, np.flatnonzero(split) + 1, far)
        f = np.append(hull[1:], hull[0])
        step = f - hull
        edge += (np.cumsum(split) - split)[edge]
        # x + iy against the two edges at the far point f, both turns about f
        wx, wy = x - f.real[edge], y - f.imag[edge]
        turns = [wx * s.imag[edge] - wy * s.real[edge] for s in (step, np.append(step[1:], step[0]))]
        turn = np.maximum(*turns)
        keep = np.flatnonzero(turn > eps)
        x, y, edge, turn = (a[keep] for a in (x, y, edge + (turns[1] > turns[0]), turn))
        best = np.zeros(hull.size)
        np.maximum.at(best, edge, turn)
        # the farthest point of each edge, the lexicographic least on ties
        at = np.flatnonzero(turn == best[edge])
        at = at[np.lexsort((y[at], x[at], edge[at]))]
        split = best > 0
        at = at[np.searchsorted(edge[at], np.flatnonzero(split))]
        far = np.column_stack((x[at], y[at])).view(complex)[:, 0]
    pop = True
    while np.any(pop):
        ring = np.concatenate((hull[-1:], hull, hull[:1]))
        pop = (_cross(ring[:-2], hull, ring[2:]) <= eps) & ~np.isin(hull, ends)
        pop &= ~np.roll(pop, 1)
        hull = hull[~pop]
    return RangePolygon(hull[:1] if np.abs(hull - hull[0]).max() <= eps else hull)


def distance_to_region(points, polygon: RangePolygon) -> np.ndarray:
    """Euclidean distance from each point to the filled convex polygon.

    Points are processed in chunks so point-set x polygon products stay
    memory-bounded.
    """
    zs = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    v = polygon.vertices
    if v.size == 1:
        return np.abs(zs - v[0])
    a = v
    b = np.roll(v, -1)
    ab = (b - a)[None, :]
    seg_len2 = np.where(np.abs(ab) ** 2 == 0.0, 1.0, np.abs(ab) ** 2)
    margin = CROSS_TOL * max(1.0, float(np.abs(v).max()))
    out = np.empty(zs.size, dtype=float)
    for start in range(0, zs.size, _DISTANCE_CHUNK):
        az = zs[start : start + _DISTANCE_CHUNK, None] - a[None, :]
        t = np.clip((az.real * ab.real + az.imag * ab.imag) / seg_len2, 0.0, 1.0)
        dmin = np.abs(az - t * ab).min(axis=1)
        if v.size >= 3:
            inside = (ab.real * az.imag - ab.imag * az.real >= -margin).all(axis=1)
            dmin = np.where(inside, 0.0, dmin)
        out[start : start + _DISTANCE_CHUNK] = dmin
    return out


def hausdorff(p: RangePolygon, q: RangePolygon) -> float:
    """Hausdorff distance between two filled convex polygons."""
    return float(
        max(
            distance_to_region(p.vertices, q).max(),
            distance_to_region(q.vertices, p).max(),
        )
    )


def support_width(polygon: RangePolygon, theta: float) -> float:
    """Support value ``max Re(z e^{-i theta})`` over the region."""
    return float((polygon.vertices * np.exp(-1j * theta)).real.max())


def polygon_csv(polygon: RangePolygon) -> str:
    """Vertices as CSV text: an ``re,im`` header, then one line per vertex
    with 17 significant digits."""
    return "re,im\n" + "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in polygon.vertices)


def polygon_to_csv(polygon: RangePolygon, path) -> None:
    """Write :func:`polygon_csv` text to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(polygon_csv(polygon))


def polygon_from_csv(path) -> RangePolygon:
    """Read a polygon written by :func:`polygon_to_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "re,im":
            raise ValueError(f"unexpected CSV header {header!r}")
        vertices = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            re_s, im_s = line.split(",")
            vertices.append(complex(float(re_s), float(im_s)))
    return RangePolygon(np.array(vertices, dtype=complex))

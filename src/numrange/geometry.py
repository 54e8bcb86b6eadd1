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
    "contains",
    "support_width",
    "polygon_csv",
    "polygon_to_csv",
    "polygon_from_csv",
]

CROSS_TOL = 1e-12
# Interior-filter cascade of convex_hull: directions per pass, and floats per
# projection chunk (2 MiB; 8 MiB chunks raise the peak RSS of small runs).
_PRUNE_DIRECTIONS = (16, 128, 1024)
_PRUNE_CHUNK_FLOATS = 1 << 18


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


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    eps = CROSS_TOL * max(1.0, float(np.abs(pts).max()))
    lower: list[complex] = []
    for z in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], z) <= eps:
            lower.pop()
        lower.append(z)
    upper: list[complex] = []
    for z in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], z) <= eps:
            upper.pop()
        upper.append(z)
    out = np.array(lower[:-1] + upper[:-1], dtype=complex)
    if out.size == 0 or np.abs(out - out[0]).max() <= eps:
        return pts[:1]
    if out.size == 2 and abs(out[1] - out[0]) <= eps:
        return out[:1]
    return out


def _collinear_hull(pts: np.ndarray) -> np.ndarray:
    """``_monotone_chain(pts)`` when it surely pops every point between the
    lexicographic extremes lo and hi (which lie more than eps apart), else
    ``pts`` itself.  The points lie within h of the line through lo and hi
    and span S along it, so no exact cross product of three of them exceeds
    4 S h; the chain pops whatever is at most its eps, and 4 S h is held to
    eps/4.
    """
    order = np.lexsort((pts.imag, pts.real))
    lo, hi = pts[order[0]], pts[order[-1]]
    eps = CROSS_TOL * max(1.0, float(np.abs(pts).max()))
    if abs(hi - lo) <= eps:
        return pts
    rel = (pts - lo) * np.conj(hi - lo) / abs(hi - lo)
    if 16 * float(np.ptp(rel.real)) * float(np.abs(rel.imag).max()) > eps:
        return pts
    return np.array([lo, hi])


def _prune_interior(pts: np.ndarray) -> np.ndarray:
    """Cascaded Akl-Toussaint filter.  Each pass takes the polygon P of the
    extreme points along more directions and drops the points strictly
    inside P, testing each against the edge of its wedge about P's vertex
    centroid.  P's vertices are input points, so no hull vertex is dropped.
    The cascade stops once a pass removes less than 1/32 of its input.  A
    degenerate P (collinear input) ends the cascade, with the chain's own
    answer when the points are certainly collinear to within its eps."""
    for m in _PRUNE_DIRECTIONS:
        t = 2 * np.pi * np.arange(m) / m
        d = np.stack((np.cos(t), np.sin(t)), axis=1)
        best, arg = np.full(m, -np.inf), np.zeros(m, dtype=np.intp)
        step = _PRUNE_CHUNK_FLOATS // m
        for s in range(0, pts.size, step):
            z = pts[s : s + step]
            proj = d @ np.stack((z.real, z.imag))
            j = proj.argmax(axis=1)
            val = proj[np.arange(m), j]
            arg, best = np.where(val > best, j + s, arg), np.maximum(val, best)
        poly = _monotone_chain(pts[np.unique(arg)])
        c = poly.mean()
        ang = np.angle(poly - c)
        poly, ang = np.roll(poly, -ang.argmin()), np.roll(ang, -ang.argmin())
        if poly.size < 3:
            return _collinear_hull(pts)
        if not (np.diff(ang) > 0).all():
            break
        i = np.searchsorted(ang, np.angle(pts - c), side="right") - 1
        a, e = poly[i], (np.roll(poly, -1) - poly)[i]
        margin = CROSS_TOL * max(1.0, float(np.abs(poly).max()))
        inside = e.real * (pts.imag - a.imag) - e.imag * (pts.real - a.real) > margin
        n, pts = pts.size, pts[~inside]
        if 32 * (n - pts.size) < n:
            break
    return pts


def convex_hull(points) -> RangePolygon:
    """Convex hull of a set of complex points (monotone chain).

    Collinear interior points are removed; collinear input collapses to its
    two extreme points and coincident input to a single point.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise ValueError("convex hull of an empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if pts.size > 512:
        pts = _prune_interior(pts)
    return RangePolygon(_monotone_chain(pts))


def distance_to_region(points, polygon: RangePolygon, _chunk: int = 512) -> np.ndarray:
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
    for start in range(0, zs.size, _chunk):
        az = zs[start : start + _chunk, None] - a[None, :]
        t = np.clip((az.real * ab.real + az.imag * ab.imag) / seg_len2, 0.0, 1.0)
        dmin = np.abs(az - t * ab).min(axis=1)
        if v.size >= 3:
            inside = (ab.real * az.imag - ab.imag * az.real >= -margin).all(axis=1)
            dmin = np.where(inside, 0.0, dmin)
        out[start : start + _chunk] = dmin
    return out


def hausdorff(p: RangePolygon, q: RangePolygon) -> float:
    """Hausdorff distance between two filled convex polygons."""
    return float(
        max(
            distance_to_region(p.vertices, q).max(),
            distance_to_region(q.vertices, p).max(),
        )
    )


def contains(polygon: RangePolygon, z: complex, tol: float = 0.0) -> bool:
    """True when ``z`` lies within distance ``tol`` of the filled region."""
    return bool(distance_to_region(np.array([z]), polygon)[0] <= tol)


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

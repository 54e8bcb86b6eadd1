"""Planar convex geometry on point sets encoded as complex numbers.

Convex polygons are stored counterclockwise with collinear interior points
removed.  Degenerate regions are allowed: a single point or a two-point
segment are valid polygons.  Hausdorff distances are between the *filled*
regions, exact with no tolerance: both support functions are linear on
each arc between the two polygons' merged edge normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangePolygon",
    "convex_hull",
    "excess",
    "hausdorff",
    "support_width",
    "polygon_csv",
    "polygon_to_csv",
]

CROSS_TOL = 1e-12


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
    ``eps``.  From the second round on, once a round keeps more than half
    of its points (sweep output, in convex position), those points are
    mostly vertices: they join the hull in one ring, by angle about the
    mean of its vertices (the farthest first on ties), from the minimum.
    Then vertices whose turn ``_cross(prev, v, next)`` is at most ``eps``
    go, by the pop rule of the monotone chain: every other member of each
    run of them per round, never the lexicographic extremes.  Collinear input
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
        if 2 * keep.size > turn.size and hull.size > 2:
            # the points left are mostly vertices: ring them with the hull by
            # angle about its mean, the farthest first on ties, from the minimum
            centre = hull.mean()
            hull = np.append(hull, np.column_stack((x[keep], y[keep])).view(complex)[:, 0])
            order = np.lexsort((-np.abs(hull - centre), np.angle(hull - centre)))
            hull = np.roll(hull[order], -np.flatnonzero(order == 0)[0])
            break
        x, y, edge, turn = (a[keep] for a in (x, y, edge + (turns[1] > turns[0]), turn))
        best = np.zeros(hull.size)
        np.maximum.at(best, edge, turn)
        # the farthest point of each edge, the lexicographic least on ties
        at = np.flatnonzero(turn == best[edge])
        at = at[np.lexsort((y[at], x[at], edge[at]))]
        split = best > 0
        at = at[np.searchsorted(edge[at], np.flatnonzero(split))]
        far = np.column_stack((x[at], y[at])).view(complex)[:, 0]
    fixed = (hull == ends[0]) | (hull == ends[1])
    pop = True
    while np.any(pop):
        ring = np.concatenate((hull[-1:], hull, hull[:1]))
        pop = (_cross(ring[:-2], hull, ring[2:]) <= eps) & ~fixed
        # every other member of each run, from its first; hull[0] is fixed, so no run wraps
        at = np.arange(hull.size)
        pop &= (at - np.maximum.accumulate(np.where(pop, 0, at + 1))) % 2 == 0
        hull, fixed = hull[~pop], fixed[~pop]
    return RangePolygon(hull[:1] if np.abs(hull - hull[0]).max() <= eps else hull)


def excess(p: RangePolygon, q: RangePolygon) -> float:
    """How far the filled polygon ``p`` reaches outside the filled ``q``:
    ``max(0, sup_u h_p(u) - h_q(u))`` over unit ``u``, with ``h`` the
    support function (Schneider, *Convex Bodies*, 2nd ed. 2014, Lemma 1.8.14).

    The outward edge normals of both polygons, sorted together, cut the
    circle into arcs; on each, one vertex a of ``p`` and one vertex b of
    ``q`` attain the supports, and ``<u, a - b>`` peaks at ``|a - b|`` if
    ``arg(a - b)`` lies in the arc and at an end otherwise (the merge of
    Atallah, *Inf. Process. Lett.* 17 (1983) 207-209).
    """
    polygons = (p.vertices, q.vertices)
    edges = [np.roll(v, -1) - v if v.size > 1 else v[:0] for v in polygons]
    normal = -1j * np.concatenate(edges)
    if normal.size == 0:
        return float(abs(polygons[0][0] - polygons[1][0]))
    theta = np.angle(normal)
    order = np.argsort(theta, kind="stable")
    theta, normal, split, ends = theta[order], normal[order] / np.abs(normal[order]), edges[0].size, []
    for v, own, first in zip(polygons, (order < split, order >= split), (0, split)):
        # the head of its last edge at or before each arc's start, cyclically
        heads = (order[own] - first + 1) % v.size
        ends.append(v[heads[np.cumsum(own) - 1]] if heads.size else v)
    w = ends[0] - ends[1]
    arc = np.diff(theta, append=theta[0] + 2 * np.pi)
    inside = (np.angle(w) - theta) % (2 * np.pi) <= arc
    # an arc of length 0 only repeats the value of the next one at its start
    start = np.where(arc > 0, (w * normal.conj()).real, -np.inf)
    return float(max(0.0, start.max(), np.abs(w[inside]).max(initial=0.0)))


def hausdorff(p: RangePolygon, q: RangePolygon) -> float:
    """Hausdorff distance of two filled convex polygons: the larger one-sided :func:`excess`."""
    return max(excess(p, q), excess(q, p))


def support_width(polygon: RangePolygon, theta: float) -> float:
    """Support value ``max Re(z e^{-i theta})`` over the region."""
    return float((polygon.vertices * np.exp(-1j * theta)).real.max())


def polygon_csv(polygon: RangePolygon) -> str:
    """Vertices as CSV text: an ``re,im`` header, then one line per vertex
    with 17 significant digits."""
    v = polygon.vertices
    return "re,im\n" + ("%.17g,%.17g\n" * v.size) % tuple(np.column_stack([v.real, v.imag]).ravel().tolist())


def polygon_to_csv(polygon: RangePolygon, path) -> None:
    """Write :func:`polygon_csv` text to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(polygon_csv(polygon))


"""Numerical-range boundaries via the support-angle sweep.

For each direction theta the numerical range's support line touches the
boundary at the Rayleigh quotient of a top eigenvector of the Hermitian part
of ``exp(-i theta) A``.  Sweeping theta over a uniform grid and taking the
convex hull of the touch points yields an inscribed polygon whose support
function is within O(1/num_theta^2) of the true one.  Where the support
line meets the range along a flat edge (degenerate top eigenvalue) the
sweep emits the edge's endpoints, so flat pieces are exact.

General matrices go through dense LAPACK solves in bounded batches;
truncations and symbol unions need none.  A truncation's Hermitian part is
similar to a real tridiagonal of copies of one period, whose characteristic
polynomial has a closed form in the period's Floquet discriminant (Teschl,
*Jacobi Operators and Completely Integrable Nonlinear Lattices*, ch. 7):
real Newton steps on it give the top in O(p) per step and two Sturm counts
certify it (where they fail, Laguerre steps on the whole path and bisection
on the counts give it in O(k) per step); the touch point comes from
closed-form Chebyshev sums over the copies in O(p), or where those round
badly, from inverse iteration on the counts' O(k) factorization.  The
symbols' union takes one O(p) solve per direction, at a twist known in
closed form: the band edge and the Perron vector of a real cycle.  Both take
flat edges from one block core: where edges vanish the period splits into
blocks, and the skew part compressed to the top blocks (a cycle for unions,
a path of copies for truncations) gives the two ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import RangePolygon, convex_hull
from .linalg import as_matrix, eigh
from .operators import PeriodSpec, phi_grid

__all__ = [
    "NotSelfAdjointError",
    "SweepConfig",
    "boundary_points",
    "range_boundary",
    "selfadjoint_interval",
    "symbol_union_hull",
    "truncation_range",
    "truncation_support",
]


class NotSelfAdjointError(ValueError):
    """Raised when an operation requires a self-adjoint period spec."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid sizes: ``num_theta`` support angles, ``num_phi`` twist steps.

    ``num_phi`` is the twist resolution of symbol-union hulls: they take one
    symbol per direction, at its maximising twist, and refine the
    ``num_theta`` grid until that twist moves by at most one of ``num_phi``
    steps between neighbouring directions.  Other sweeps ignore it.
    """

    num_theta: int = 720
    num_phi: int = 720

    def __post_init__(self):
        if self.num_theta < 3:
            raise ValueError("num_theta must be >= 3")
        if self.num_phi < 1:
            raise ValueError("num_phi must be >= 1")


DEGENERATE_GAP = 1e-10
# Pivot guard of the Sturm counts, in units of the scaled tridiagonal (largest
# entry in [1/2, 1)).  It sits at the rounding level rather than LAPACK's
# underflow level, so the same pivots also drive inverse iteration without
# overflow; replacing a pivot by -PIVMIN moves one diagonal entry by less
# than 2 * PIVMIN.
PIVMIN = np.finfo(float).eps
# Bytes of Hermitian parts the dense sweep hands to one batched ``eigh``, so
# memory stays bounded for any number of angles; truncations chunk their
# flat-edge angles to the same budget per (blocks, angles) array.
_DENSE_BATCH_BYTES = 1 << 22
# Bytes of one (k, angles) array of truncation eigenvectors: the sweep takes
# its angles in chunks of this size, which holds k = 800 at 720 angles.
_VECTOR_BATCH_BYTES = 1 << 23
# Pivot rows :func:`_count_above` keeps at a time, which are also the rows
# :func:`_ldl_pivots` checks for its guard at a time.
_PIVOT_ROWS = 256
# Cap on the steps of :func:`_descend`.
_BAND_EDGE_STEPS = 60
# Rows :func:`_continuant` runs between two rescalings, the range its sums
# may end a block in, and the weights of the derivatives' extra terms.
_CONTINUANT_ROWS = 32
_CONTINUANT_RANGE = 2.0**400
_DERIVATIVE_WEIGHTS = np.array([[1.0], [2.0]])
# Series of (x - sin x) / x^3 in x^2, highest term first, for |x| < 2.
_SINE_SERIES = [(-1) ** j / math.factorial(2 * j + 3) for j in range(10, -1, -1)]
# Largest move of a quotient of the :func:`_copy_sums` over one bracket width
# at which :func:`_top_pairs` takes them.
_SUMS_ROUNDING = 4e-15


def _bracket_width(lo, hi):
    """Width at which a bracket [lo, hi] on a scaled top eigenvalue is closed."""
    return 2 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi)) + PIVMIN


def _gap_tol(top):
    """How close to the top eigenvalue another one counts as degenerate."""
    return DEGENERATE_GAP * (1.0 + np.abs(top))


def _require_finite(x, what: str):
    if not np.isfinite(x).all():
        raise FloatingPointError(f"non-finite {what}")
    return x


def _hermitian_parts(a, phase) -> np.ndarray:
    """Hermitian part of ``phase * a``, one matrix per entry of ``phase``."""
    phase = np.asarray(phase)[..., None, None]
    return _require_finite(
        0.5 * (phase * a + np.conj(phase) * np.swapaxes(a.conj(), -1, -2)),
        "Hermitian part",
    )


def _flat_edge_ends(a, phase, values, vecs) -> np.ndarray:
    """Both ends of the flat edge along which the support line meets W(a)
    in the direction of each entry of ``phase``: bottom and top end of the
    first, then of the second, and so on.

    ``values, vecs`` are the ``eigh`` of the Hermitian parts of
    ``phase * a``.  The ends are the extremes of the rotated matrix's skew
    part compressed to the top eigenspace, which keeps the point set exactly
    compatible with the symmetries of ``a``.  The directions go to ``eigh``
    in one batch per dimension of that eigenspace.
    """
    dims = (values >= (values[:, -1] - _gap_tol(values[:, -1]))[:, None]).sum(axis=1)
    ends = np.empty((dims.size, 2), dtype=complex)
    for dim in set(dims.tolist()):
        t = np.flatnonzero(dims == dim)
        span = vecs[t, :, -dim:]
        rotated = phase[t, None, None] * a
        skew = (rotated - np.swapaxes(rotated.conj(), -1, -2)) / 2j
        compressed = np.swapaxes(span.conj(), -1, -2) @ (skew @ span)
        compressed = 0.5 * (compressed + np.swapaxes(compressed.conj(), -1, -2))
        extremes = span @ eigh(compressed)[1][:, :, [0, -1]]
        ends[t] = np.einsum("mit,ij,mjt->mt", extremes.conj(), a, extremes)
    return ends.ravel()


def boundary_points(a, cfg: SweepConfig = SweepConfig()) -> np.ndarray:
    """Support touch points of W(a), at least one per sweep angle.

    Every returned point is a Rayleigh quotient, hence a member of W(a): the
    top eigenvectors' quotients, angle by angle, then both ends of the flat
    segment along which the support line touches W(a) wherever the top
    eigenvalue is (near-)degenerate.  The angles go to ``eigh`` in chunks of
    ``_DENSE_BATCH_BYTES``, which change no bit.  A non-finite intermediate
    raises ``FloatingPointError``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix must have dimension >= 1")
    phase = np.exp(-1j * phi_grid(cfg.num_theta))
    chunk = max(1, _DENSE_BATCH_BYTES // (16 * n * n))
    tops, ends = [np.empty(0, dtype=complex)], []
    for lo in range(0, phase.size, chunk):
        ph = phase[lo : lo + chunk]
        values, vecs = eigh(_hermitian_parts(a, ph))
        top = vecs[:, :, -1]
        tops.append(np.einsum("ti,ij,tj->t", top.conj(), a, top))
        if n > 1:
            t = np.flatnonzero(values[:, -1] - values[:, -2] <= _gap_tol(values[:, -1]))
            ends.append(_flat_edge_ends(a, ph[t], values[t], vecs[t]))
    return _require_finite(np.concatenate(tops + ends), "touch point")


def range_boundary(a, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Inscribed convex polygon approximating the numerical range of ``a``."""
    return convex_hull(boundary_points(a, cfg))


def selfadjoint_interval(spec: PeriodSpec) -> tuple[float, float]:
    """Endpoints of the closure of W(T) for a self-adjoint operator: minus the
    support at theta = pi and the support at theta = 0, each the top band
    edge of ``Re(e^{-i theta} T)`` (:func:`_band_edges`), in O(p)."""
    if not spec.is_selfadjoint():
        raise NotSelfAdjointError("spec is not self-adjoint: need real b and c[j] = conj(a[j+1])")
    d, e, _, exponent = _scaled_tridiagonals(spec, np.array([0.0, np.pi]))
    top = np.ldexp(_band_edges(d, e, upper=False), exponent)
    return float(-top[1]), float(top[0])


def symbol_union_hull(spec: PeriodSpec, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Convex hull of touch points of the union of symbol numerical ranges
    over all twists phi (see :class:`SweepConfig`)."""
    return convex_hull(_symbol_points(spec, cfg))


def _scaled_tridiagonals(spec: PeriodSpec, thetas: np.ndarray):
    """One period of the Hermitian part of ``e^{-i theta} T``, per angle.

    Row j of a truncation (j mod p) has the diagonal entry ``Re(e^{-i theta}
    b_j)`` and, right of it, ``beta_j = (e^{-i theta} c_j + conj(e^{-i
    theta} a_{j+1})) / 2``.  The unitary diagonal similarity with ``D_{j+1}
    / D_j = conj(beta_j) / |beta_j|`` makes it the real symmetric S(theta)
    with diagonal ``d`` and off-diagonal ``e = |beta|``.  Returns ``d, e``,
    (p, num_theta), over ``2**exponent``, which puts their largest entry in
    [1/2, 1) so squares neither over- nor underflow; and ``beta``, (num_theta, p).
    """
    w = np.exp(-1j * thetas)[:, None]
    diag = _require_finite((w * spec.b).real, "diagonal entry")
    beta = (w * spec.c + np.conj(w * np.roll(spec.a, -1))) / 2
    modulus = _require_finite(np.abs(beta), "off-diagonal entry")
    exponent = int(np.frexp(max(np.abs(diag).max(initial=0.0), modulus.max(initial=0.0)))[1])
    scaled = [np.ascontiguousarray(np.ldexp(x.T, -exponent)) for x in (diag, modulus)]
    return *scaled, beta, exponent


def _edge_rounding(spec: PeriodSpec) -> np.ndarray:
    """Level ``4 eps (|c_j| + |a_{j+1}|)`` at which an edge ``beta_j`` vanishes."""
    return 4 * np.finfo(float).eps * (np.abs(spec.c) + np.abs(np.roll(spec.a, -1)))


def _continuant_rows(d, e2, lam, rows, top, prev):
    """The recurrence of :func:`_continuant` through ``rows``, from the
    states ``top`` and ``prev`` of the row before (left as they are),
    without rescaling; returns the states of the last row and the one
    before, in three buffers that take turns."""
    top, prev, new = top.copy(), prev.copy(), np.empty_like(top)
    for j in rows:
        np.multiply(lam - d[j], top, out=new)
        np.multiply(e2[j - 1], prev, out=prev)
        np.subtract(new, prev, out=new)
        np.multiply(_DERIVATIVE_WEIGHTS, top[:-1], out=prev[1:])
        np.add(new[1:], prev[1:], out=new[1:])
        top, prev, new = new, top, prev
    return top, prev


def _continuant(d, e2, lam, rows):
    """``det(lam - S)`` of the path through ``rows`` of S (row j joins the
    one before by the edge ``e2[j - 1]``) and its first two derivatives in
    ``lam`` (the rows of one array), by the three-term recurrence, and
    ``scale``: they are divided by ``2**scale``, exactly.

    Each column is rescaled by a power of two only after a block of
    ``_CONTINUANT_ROWS`` rows, to a sum of moduli in [1/2, 1).  With
    ``|lam - d| < 4`` and ``e2 < 1`` a row grows that sum by less than 8, so
    a block ending within ``_CONTINUANT_RANGE`` of 1 stayed far from under-
    and overflow, and the exact rescaling changes no bit against rescaling
    at every row; a column out of that range, or not finite, is redone row
    by row.
    """
    top, prev, scale = np.zeros((3, *lam.shape)), np.zeros((3, *lam.shape)), np.zeros(lam.shape, dtype=np.int32)
    top[0] = 1.0
    for lo in range(0, len(rows), _CONTINUANT_ROWS):
        block = rows[lo : lo + _CONTINUANT_ROWS]
        before = top, prev, scale
        top, prev = _continuant_rows(d, e2, lam, block, top, prev)
        size = np.abs(top).sum(axis=0)
        s = -np.frexp(size)[1]
        top, prev, scale = np.ldexp(top, s, out=top), np.ldexp(prev, s, out=prev), scale - s
        redo = np.flatnonzero(~((size >= 1 / _CONTINUANT_RANGE) & (size <= _CONTINUANT_RANGE)))
        if redo.size:
            t, pv, sc = (x[..., redo] for x in before)
            columns = d[:, redo], e2[:, redo], lam[redo]
            for j in block:
                t, pv = _continuant_rows(*columns, [j], t, pv)
                s = np.frexp(np.abs(t).sum(axis=0))[1]
                t, pv, sc = np.ldexp(t, -s), np.ldexp(pv, -s), sc + s
            top[:, redo], prev[:, redo], scale[redo] = t, pv, sc
    return top, scale


def _gershgorin(d, e) -> np.ndarray:
    """Gershgorin upper bound of each row of the tridiagonals ``d, e``."""
    return d + e + np.roll(e, 1, axis=0)


def _edge_product(e):
    """Product of the rows of ``e`` as a mantissa and a power of two."""
    product, scale = np.ones(e.shape[1]), 0
    for row in e:
        product, s = np.frexp(product * row)
        scale = scale + s
    return product, scale


def _band_edges(d, e, upper=True) -> np.ndarray:
    """Top of the spectrum of the periodic Jacobi operator with one period
    ``d, e`` (shape (p, columns), edge ``e_j`` between rows j and j + 1).
    With ``upper``, plus a rounding margin: an upper bound on the top
    eigenvalue of every truncation S, each a compression of that operator.

    By Perron-Frobenius the top is that of the twist-0 Floquet matrix, the
    top root of ``f(lam) = det(lam - H_0) = D(lam) - 2 prod e``, ``D =
    K_{0..p-1} - e_{p-1}^2 K_{1..p-2}`` (Teschl, ch. 7; ``K_0`` for p = 1):
    :func:`_laguerre` steps from the Gershgorin bound, O(p) each by the
    continuants K, which carry powers of two, so p may be large.
    """
    # the recurrence runs along rows: keep each one contiguous
    d, e = np.ascontiguousarray(d), np.ascontiguousarray(e)
    p, e2 = d.shape[0], e * e
    product, product_scale = _edge_product(e)

    def steps(lam):
        k, scale = _continuant(d, e2, lam, range(p))
        m, m_scale = _continuant(d, e2, lam, range(1, p - 1))
        f = k - (p > 1) * e2[p - 1] * np.ldexp(m, m_scale - scale)
        f[0] -= np.ldexp(product, product_scale + 1 - scale)
        return _laguerre(f, p)

    lam = _descend(steps, _gershgorin(d, e).max(axis=0))
    return lam + 2 * np.finfo(float).eps * np.abs(lam) + PIVMIN if upper else lam


def _descend(steps, lam, first=None) -> np.ndarray:
    """``lam`` less the finite positive ``steps(lam)`` until each is at most
    ``4 eps |lam|``; ``first``, if given, is ``steps(lam)`` at the start."""
    for _ in range(_BAND_EDGE_STEPS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s, first = steps(lam) if first is None else first, None
            step = np.where(np.isfinite(s) & (s > 0), s, 0.0)
        lam = lam - step
        if not (step > 4 * np.finfo(float).eps * np.abs(lam)).any():
            break
    return lam


def _laguerre(f, degree: int) -> np.ndarray:
    """Laguerre's step on a real-rooted polynomial of ``degree`` from its
    value and two derivatives (rows of ``f``): from above the largest root
    it never crosses it (Parlett, *Math. Comp.* 18 (1964) 464-485).  NaN
    where ``f'/f <= 0``, as below that root."""
    g, h = f[1] / f[0], f[2] / f[0]
    step = degree / (g + np.sqrt(np.maximum((degree - 1) * ((degree - 1) * g * g - degree * h), 0.0)))
    return np.where(g > 0, step, np.nan)


def _floquet_step(c1, c0, tau, root, n: int) -> np.ndarray:
    """Newton step on ``U_{n-1}(tau) c1 - root U_{n-2}(tau) c0`` over
    ``U_{n-1}``, n >= 2, from the values and derivatives (rows) of ``c1, c0,
    tau``, in real arithmetic.  As ``U_m(-tau) = (-1)^m U_m(tau)`` and
    ``U_m(cos x) = sin((m+1) x) / sin x``, at ``|tau| = cos x`` (``cosh x``
    above 1, with sinh, cosh, tanh) ``U_{n-2} / U_{n-1} = cos x - sin x /
    tan(n x)`` and ``U_{j-1}' / U_{j-1} = tau' (x / sin x) (j^2 h(j x) -
    h(x))``, ``h(y) = (1 - y cot y) / y^2`` (``(y coth y - 1) / y^2``), a
    series below 1e-3; limits at x = 0."""

    def terms(x, hyperbolic: bool):
        sin, cos, tan = (np.sinh, np.cosh, np.tanh) if hyperbolic else (np.sin, np.cos, np.tan)
        y = np.array([[1.0], [n], [n - 1]]) * x
        t, y2 = tan(y), -(y * y) if hyperbolic else y * y
        h = np.where(y < 1e-3, 1 / 3 + y2 / 45, (1 - y / t) / y2)
        zero, s = x == 0, sin(x)
        ratio = np.where(zero, (n - 1) / n, cos(x) - s / t[1])
        return ratio, np.where(zero, 1.0, x / s), np.array([[n * n], [(n - 1) ** 2]]) * h[1:] - h[0]

    sign, a = np.where(tau[0] < 0, -1.0, 1.0), np.abs(tau[0])
    ratio, sinc, bracket = terms(np.arccos(np.minimum(a, 1.0)), False)
    if (above := np.flatnonzero(a > 1)).size:
        for y, z in zip((ratio, sinc, bracket), terms(np.arccosh(a[above]), True)):
            y[..., above] = z
    slope, g = sign * tau[1] * sinc * bracket, root * sign * ratio
    return (c1[0] - g * c0[0]) / (slope[0] * c1[0] + c1[1] - g * (slope[1] * c0[0] + c0[1]))


def _closed_form_tops(d, e, k: int, start, lo: int, m: int, n: int) -> np.ndarray:
    """Largest eigenvalue of each path S, rows 0..k-1 of ``d, e`` (taken mod
    their number), in O(m + rows besides the copies) per step; uncertified.

    Rows ``lo .. lo + n m - 1`` are n copies of the period ``lo .. lo + m -
    1``, and the edge before row lo, if any, is the period's last.  Its
    transfer matrix M has determinant D (its squared edges' product) and
    trace ``Delta = K_period - e_last^2 K_inner``; by Cayley-Hamilton
    ``det(lam - S) = D^((n-1)/2) (U_{n-1}(tau) C_1 - sqrt(D) U_{n-2}(tau)
    C_0)`` at ``tau = Delta / (2 sqrt D)``, C_j the continuant of S with j
    copies kept (K_period and 1 without other rows).  For n >= 2,
    :func:`_floquet_step` runs from ``start`` less its margin (the band
    edge, above the top unless the other rows lift it); its first step also
    finds the bands narrower than ``(n+1)^2 / 16`` widths (D = 0 where an
    edge vanishes), whose top, about ``5 / ((n + 1)^2 tau')`` below the
    edge, is the edge to within a sixth of a width (tau cancels too much to
    place it better).  For n <= 1, Laguerre steps on the continuant of S
    from ``start``, an upper bound, and one short Newton step: the first
    step of :func:`_top_eigenvalues` too."""
    p, e2 = d.shape[0], e * e
    rows = lambda r: [j % p for j in r]
    if n <= 1:
        path = rows(range(k))
        f = lambda lam: _continuant(d, e2, lam, path)[0]
        lam = _descend(lambda lam: _laguerre(f(lam), k), start)
        # a last step from far above may overshoot by rounding (8 widths at
        # k = 2 from 58 times the top): one short Newton step either way
        with np.errstate(invalid="ignore", divide="ignore"):
            step = (lambda y: y[0] / y[1])(f(lam))
        return lam - np.where(np.abs(step) <= 1e-8 * (np.abs(lam) + 1), step, 0.0)
    head, period, tail = rows(range(lo)), rows(range(lo, lo + m)), rows(range(lo + n * m, k))
    product, product_scale = _edge_product(e[period])
    ends = head + tail

    def steps(lam):
        """The Newton steps, and tau'."""
        ck, sk = _continuant(d, e2, lam, period)
        c1, s1 = _continuant(d, e2, lam, head + period + tail) if ends else (ck, sk)
        c0, s0 = _continuant(d, e2, lam, ends) if ends else ((1.0, 0.0), 0)
        # K_inner, 1 for a period of two rows (none for one)
        cm, sm = _continuant(d, e2, lam, period[1:-1]) if m > 2 else (np.array([[1.0], [0.0]]), 0)
        tau = ck[:2] - e2[period[-1]] * np.ldexp(cm[:2], sm - sk) if m > 1 else ck[:2]
        tau = np.ldexp(tau, sk - product_scale) / (2 * product)
        return _floquet_step(c1, c0, tau, np.ldexp(product, product_scale + s0 - s1), n), tau[1]

    lam = start - _bracket_width(start, start)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step, slope = steps(lam)
        at = np.flatnonzero(slope * ((n + 1) ** 2 * _bracket_width(lam, lam)) < 32)
    # the steps from here on see only the columns of wide bands
    d, e2, product, product_scale = d.take(at, axis=1), e2.take(at, axis=1), product[at], product_scale[at]
    lam[at] = _descend(lambda x: steps(x)[0], lam[at], step[at])
    return lam


def _pivot_rows(shifted, e2, first, q, guard=True):
    """Rows ``first, first + 1, ...`` of the pivot recurrence of
    :func:`_ldl_pivots` into ``q[1:]``, after row ``first - 1`` in ``q[0]``.
    ``shifted`` and ``e2`` are lists of one period's rows.  With ``guard``,
    pivots of modulus below ``PIVMIN`` become ``-PIVMIN``; without, a row
    costs two ufuncs."""
    p = len(shifted)
    for i, prev, row in zip(itertools.count(first), q, q[1:]):
        if i == 0:
            row[:] = shifted[0]
        else:
            np.divide(e2[(i - 1) % p], prev, out=row)
            np.subtract(shifted[i % p], row, out=row)
        if guard:
            np.putmask(row, np.abs(row) < PIVMIN, -PIVMIN)


def _pivot_window(period, first, q, guard: bool) -> bool:
    """Rows ``first, ...`` of :func:`_pivot_rows` into ``q[1:]``, with the
    guard only where it acts: a pass without it, then, if a pivot is below
    ``PIVMIN`` (or not finite), every column again with it from the
    window's first such row, and later windows are guarded from the start
    (the returned ``guard``)."""
    if not guard:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _pivot_rows(*period, first, q, guard=False)
        # the minima are NaN where a pivot is
        bad = ~(np.abs(q[1:]).min(axis=1) >= PIVMIN)
        if not bad.any():
            return False
        # up to the row before the first that failed, nothing changes
        r = int(np.argmax(bad))
        first, q = first + r, q[r:]
    _pivot_rows(*period, first, q)
    return True


def _ldl_pivots(d, e2, sigma, k: int, block: int):
    """Pivots of ``S - sigma = L D L^T`` for the k-by-k S of every column,
    ``d, e2`` one period (p, columns) of its diagonal and squared
    off-diagonal, in consecutive blocks of at most ``block`` rows, each
    written over the one before.  A pivot of modulus below ``PIVMIN``
    becomes ``-PIVMIN``.  By Sylvester's law of inertia the negative pivots
    count the eigenvalues below ``sigma`` (the Sturm count).  As in LAPACK's
    ``dlaneg`` (Marques, Riedy & Voemel, *SIAM J. Sci. Comput.* 28 (2006)
    1613-1633), each window of ``_PIVOT_ROWS`` rows runs without the guard,
    at two ufuncs a row, and is redone with it only where it would act
    (:func:`_pivot_window`), so pivots and counts are those of the guarded
    recurrence bit for bit.
    """
    # rows contiguous (d[:, mask] is not), as the recurrence runs along them
    period = [list(x) for x in (np.subtract(d, sigma, order="C"), np.ascontiguousarray(e2))]
    # row 0 holds the last row of the block before
    q = np.empty((min(k, block) + 1, d.shape[1]))
    guard = False
    for start in range(0, k, block):
        rows = min(block, k - start)
        for lo in range(0, rows, _PIVOT_ROWS):
            guard = _pivot_window(period, start + lo, q[lo : min(lo + _PIVOT_ROWS, rows) + 1], guard)
        yield q[1 : rows + 1]
        q[0] = q[rows]


def _count_above(d, e2, sigma, k: int) -> np.ndarray:
    """Number of eigenvalues of each S at or above ``sigma``, counted through
    a fixed block of pivot rows, so memory does not grow with k."""
    pivots = _ldl_pivots(d, e2, sigma, k, _PIVOT_ROWS)
    return k - sum(np.count_nonzero(q < 0, axis=0) for q in pivots)


def _top_eigenvalues(d, e, k: int, start=None) -> np.ndarray:
    """Largest eigenvalue of each k-by-k S, certified by Sturm counts: the
    search for the columns of :func:`_top_pairs` that fail its counts.

    lam is :func:`_closed_form_tops` with one copy (Laguerre steps on the
    whole path) from ``start``, an upper bound (default the Gershgorin
    bound).  Where lam passes the counts of :func:`_top_pairs` the bracket is
    ``[lam - w, lam + w]``, w its :func:`_bracket_width`, else from the
    largest diagonal entry (a Rayleigh quotient) to the Gershgorin bound.
    Midpoint bisection on the counts closes each to its
    :func:`_bracket_width`; the upper end is returned.
    """
    rows = min(k, d.shape[0])
    lo, hi, e2 = d[:rows].max(axis=0), _gershgorin(d, e)[:rows].max(axis=0), e * e
    lam = _closed_form_tops(d, e, k, hi if start is None else start, 0, k, 1)
    width = _bracket_width(lam, lam)
    # both counts in one pass, each column twice
    below, above = np.split(_count_above(np.tile(d, 2), np.tile(e2, 2), np.append(lam - width, lam + width), k), 2)
    ok = ((lo >= lam - width) | (below >= 1)) & (above == 0)
    lo, hi = np.where(ok, lam - width, lo), np.where(ok, lam + width, hi)
    while (at := np.flatnonzero(hi - lo > _bracket_width(lo, hi))).size:
        sigma = np.minimum(lo[at] + (hi[at] - lo[at]) / 2, hi[at])
        # take, unlike d[:, at], keeps the rows the recurrence runs along contiguous
        inside = _count_above(d.take(at, axis=1), e2.take(at, axis=1), sigma, k) >= 1
        lo[at], hi[at] = np.where(inside, sigma, lo[at]), np.where(inside, hi[at], sigma)
    return hi


def _sine_cubed(x) -> np.ndarray:
    """``(x - sin x) / x^3``, by its series where the difference would cancel."""
    x2, s = x * x, np.zeros_like(x)
    for c in _SINE_SERIES:
        s = s * x2 + c
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(x) < 2, s, (x - np.sin(x)) / (x * x2))


def _fold(y, lo: int, m: int, n: int) -> np.ndarray:
    """Rows of ``y`` with the n copies of rows ``lo .. lo + m - 1`` summed
    into one (for n >= 2): the rows of :func:`_copy_sums`."""
    return y if n < 2 else np.concatenate([y[:lo], y[lo : lo + n * m].reshape(n, m, -1).sum(axis=0), y[lo + n * m :]])


def _copy_sums(d, e, mu, lo: int, m: int, n: int):
    """:func:`_fold` of ``x_j^2`` and ``x_j x_{j+1}`` (0 for the last row)
    for the continuant vector x of each path S (as in
    :func:`_closed_form_tops`, n >= 2 copies): ``x_0 = 1``, ``(S x)_j = mu
    x_j`` but in the last row.  ``d, e`` hold only the rows up to two
    copies in and those after the copies, so this is O(lo + m + rows after
    the copies).  NaN where an x_j is not positive or ``tau > 1``.  Ratios
    ``x_{j+1} / x_j`` run two copies in (products carrying powers of two),
    and on after the copies.  The period's transfer matrix M is unimodular,
    trace ``2 tau``, so ``M^c = T_c(tau) + U_{c-1}(tau) (M - tau)``: copy c
    of row i is ``y_i T_c + z_i U_{c-1}``, ``y_i = x_{lo+i}``, ``z_i =
    x_{lo+m+i} - tau y_i``, ``tau = (x_{lo+2m} + x_lo) / (2 x_{lo+m})``.
    Over c < n, at ``tau = cos phi``, N = 2n - 1: ``sum T_c^2 = (N + 2 +
    U_{N-1}) / 4``, ``sum T_c U_{c-1} = U_{n-1} U_{n-2} / 2``, ``sum
    U_{c-1}^2 = (N - U_{N-1}) / (4 sin^2 phi) = N (phi / sin phi)^3 (N^2
    s(N phi) - s(phi)) / 4`` by :func:`_sine_cubed` s, so nothing cancels
    near phi = 0.
    """
    ratio = lambda j, r: (mu - d[j] - (0.0 if r is None else e[j - 1] / r)) / e[j]
    r, xs = None, [np.frexp(np.ones_like(mu))]
    for j in range(lo + 2 * m):
        r, (mant, s) = ratio(j, r), xs[-1]
        mant, scale = np.frexp(mant * r)
        xs.append((mant, s + scale))
    mant, expo = (np.array(y) for y in zip(*xs))
    x = np.ldexp(mant, expo - expo.max(axis=0))
    y, tau = x[lo : lo + m + 1], (x[lo + 2 * m] + x[lo]) / (2 * x[lo + m])
    z = x[lo + m : lo + 2 * m + 1] - tau * y
    phi = np.arccos(np.clip(tau, -1.0, 1.0))
    sin, zero, big = np.sin(phi), phi == 0, 2 * n - 1
    u = lambda j: np.where(zero, j + 1.0, np.sin((j + 1) * phi) / np.where(zero, 1.0, sin))
    cube, previous, (many, one) = np.where(zero, 1.0, phi / np.where(zero, 1.0, sin)) ** 3, u(n - 2), _sine_cubed(np.outer([big, 1], phi))
    tt, tu, uu = (big + 2 + u(big - 1)) / 4, u(n - 1) * previous / 2, big * cube * (big * big * many - one) / 4
    pair = lambda a, b: y[a] * y[b] * tt + (y[a] * z[b] + z[a] * y[b]) * tu + z[a] * z[b] * uu
    squares, links = pair(slice(0, m), slice(0, m)), pair(slice(0, m), slice(1, m + 1))
    # the last copy's last row and the row after it
    last, after = (y[i] * np.cos((n - 1) * phi) + z[i] * previous for i in (m - 1, m))
    tail, r, rows = [after], after / last, len(d) - lo - 2 * m
    for j in range(lo + 2 * m, len(d) - 1):
        r = ratio(j, r)
        tail.append(tail[-1] * r)
    tail = np.array(tail[:rows]).reshape(rows, mu.size)
    if rows == 0:
        links[-1] -= last * after
    good = (x[: lo + 2 * m + (n > 2 or rows > 0)] > 0).all(axis=0) & (tail > 0).all(axis=0) & (tau <= 1)
    squares = np.concatenate([x[:lo] * x[:lo], squares, tail * tail])
    links = np.concatenate([x[:lo] * x[1 : lo + 1], links, tail[:-1] * tail[1:], np.zeros((min(len(tail), 1), mu.size))])
    return np.where(good, squares, np.nan), np.where(good, links, np.nan)


def _top_eigenvectors(e, q) -> np.ndarray:
    """Top eigenvectors of each S, the columns of a (k, columns) array: two
    solves from all ones with the pivots ``q`` of ``S - sigma``, sigma a few
    ulps above the top, each scaled to largest modulus 1.  By Perron-Frobenius
    the top eigenvector is nonnegative, so not orthogonal to the start; each
    solve shrinks the others by (a few ulps) / (gap > ``DEGENERATE_GAP``)."""
    mult = e[np.arange(q.shape[0] - 1) % e.shape[0]]
    mult /= q[:-1]
    x = np.ones_like(q)
    for _ in range(2):
        _ldl_solve(q, mult, x)
        x /= np.maximum(x.max(axis=0), -x.min(axis=0))
    return x


def _checked_sums(d, e, lam, top, at, k: int, lo: int, m: int, n: int, folded, weights):
    """Which columns ``at`` of :func:`_top_pairs` keep :func:`_copy_sums` at
    lam, and their normalised sums: those whose quotient with ``weights``
    moves by at most ``_SUMS_ROUNDING`` times the largest weight from lam
    to top, and whose sums by at most 16 times that in all."""
    p = d.shape[0]
    # only the rows up to two copies in and after the copies, of both sides
    rows = np.r_[0 : lo + 2 * m, lo + n * m : k] % p
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        sq, ln = _copy_sums(*(y[rows].take(np.tile(at, 2), axis=1) for y in (d, e)), np.append(lam, top), lo, m, n)
        sq, ln = sq / sq.sum(axis=0), ln / sq.sum(axis=0)
        moved = [y[:, : at.size] - y[:, at.size :] for y in (sq, ln)]
        f, g = (np.broadcast_to(w, (folded.size, d.shape[1])).take(at, axis=1) for w in weights(folded % p))
        change = np.abs((f * moved[0] + g * moved[1]).sum(axis=0)) / np.maximum(np.abs(f).max(axis=0), np.abs(g).max(axis=0))
        total = sum(np.abs(y).sum(axis=0) for y in moved)
    good = (change <= _SUMS_ROUNDING) & (total <= 16 * _SUMS_ROUNDING)
    return good, sq[:, : at.size][:, good], ln[:, : at.size][:, good]


def _top_pairs(d, e, k: int, repeat=None, weights=None):
    """Top eigenvalue of each path S (rows 0..k-1 of ``d, e``, taken mod
    their number p) and, given ``weights``, the :func:`_fold` of ``x_j^2``
    and ``x_j x_{j+1}`` for a top eigenvector x of each, and the row each
    folded row starts at.

    lam is :func:`_closed_form_tops` for ``repeat = (lo, m, n)`` (default
    ``(0, p, k // p)``) from the copies' band edge, or the blocks' around
    them where higher (for n <= 1 the Gershgorin bound).  With w its
    :func:`_bracket_width`, a count must find no eigenvalue at or above
    ``lam + w`` and one, or a diagonal entry, at or above ``lam - w``; lam +
    w is returned, else :func:`_top_eigenvalues` (Laguerre steps on the
    whole path, the same counts, then bisection on them).  For n >= 2 the
    sums are :func:`_copy_sums` at lam where :func:`_checked_sums` keeps
    them: x(lam) strays from the eigenvector in proportion to lam's distance
    from the eigenvalue (a touch point by about 1.5e-16 / e_min per width at
    word 01, e_min its least scaled edge, at any k), and the recurrence
    amplifies that and its rounding alike where x decays across part of a
    long period (1e11-fold at the tests' p=24 spec), which a bound on each
    row's rounding misses; so the quotient
    ``sum f_j x_j^2 + g_j x_j x_{j+1}`` over ``sum x_j^2`` (``weights(rows)``
    gives f and g at the folded rows) must move little over one width.
    Other columns take :func:`_top_eigenvectors`, ``_VECTOR_BATCH_BYTES`` of
    (k, columns) at a time.
    """
    p, n = d.shape
    lo, m, copies = (0, p, k // p) if repeat is None else repeat
    start = _gershgorin(d, e)[:k].max(axis=0) if copies < 2 else _band_edges(d[lo : lo + m], e[lo : lo + m])
    if repeat is not None and copies >= 2:
        # the blocks around the copies of a compressed path, each its own top, may lift it
        ends = d[np.r_[0:lo, lo + copies * m : k]].max(axis=0)
        start = np.maximum(start, ends + 2 * np.finfo(float).eps * np.abs(ends) + PIVMIN)
    lam = _closed_form_tops(d, e, k, start, lo, m, copies)
    finite, lam = np.isfinite(lam), np.where(np.isfinite(lam), lam, start)
    width, e2 = _bracket_width(lam, lam), e * e
    top, low = lam + width, d[:k].max(axis=0) >= lam - width
    lo, m, copies = (lo, m, copies) if copies >= 2 else (0, k, 1)
    closed, folded = finite & (weights is None), np.r_[0 : lo + m, lo + copies * m : k]
    squares, links = np.empty((2, folded.size, n))
    if weights is not None and copies >= 2:
        at = np.flatnonzero(finite)
        good, sq, ln = _checked_sums(d, e, lam[at], top[at], at, k, lo, m, copies, folded, weights)
        closed[at[good]], squares[:, at[good]], links[:, at[good]] = True, sq, ln
    # counts at lam - w where no diagonal entry certifies, and at lam + w where
    # no pivots are wanted, in one pass through blocks of rows
    below, above = np.flatnonzero(~low), np.flatnonzero(closed)
    at, sigma = np.append(below, above), np.append(lam[below] - width[below], top[above])
    counts = _count_above(d.take(at, axis=1), e2.take(at, axis=1), sigma, k) if at.size else at
    low[below], closed[above] = counts[: below.size] >= 1, counts[below.size :] == 0
    ok = finite & low
    closed &= ok
    if weights is None:
        at = np.flatnonzero(~closed)
        if at.size:
            top[at] = _top_eigenvalues(d.take(at, axis=1), e.take(at, axis=1), k, start[at])
        return top, None
    rest = np.flatnonzero(~closed)
    for c in np.array_split(rest, -(-rest.size // max(2, _VECTOR_BATCH_BYTES // (8 * k)))) if rest.size else []:
        # a run of columns as a view: compressed paths hold k rows
        t = slice(c[0], c[-1] + 1) if c[-1] - c[0] + 1 == c.size else c
        dc, ec, e2c = d[:, t], e[:, t], e2[:, t]
        q = next(_ldl_pivots(dc, e2c, top[c], k, k))
        f = np.flatnonzero(~(ok[c] & (q < 0).all(axis=0)))
        if f.size:
            top[c[f]] = _top_eigenvalues(dc[:, f], ec[:, f], k, start[c[f]])
            q[:, f] = next(_ldl_pivots(dc[:, f], e2c[:, f], top[c[f]], k, k))
        x = _top_eigenvectors(ec, q)
        # the pivots' array takes the links, then the squares
        np.multiply(x[:-1], x[1:], out=q[:-1])
        q[-1] = 0.0
        links[:, c] = _fold(q, lo, m, copies)
        squares[:, c] = _fold(np.multiply(x, x, out=q), lo, m, copies)
    return top, (squares, links, folded)


def _ldl_solve(q, mult, x):
    """Overwrite ``x`` (rows first) by ``(L D L^T)^{-1} x``, with the pivots
    ``q`` of :func:`_ldl_pivots` and the multipliers ``mult = e / q[:-1]``,
    both broadcasting against the rows of ``x``; return it."""
    product = np.empty_like(x[0])
    for prev, row, m in zip(x, x[1:], mult):
        np.subtract(row, np.multiply(m, prev, out=product), out=row)
    x /= q
    for after, row, m in zip(x[:0:-1], x[-2::-1], mult[::-1]):
        np.subtract(row, np.multiply(m, after, out=product), out=row)
    return x


def _perron_vectors(d, e, sigma) -> np.ndarray:
    """Positive multiples of ``(sigma - C)^{-1} 1``, the columns of a (p,
    columns) array scaled to largest entry 1: near the top of C, its Perron
    vectors to within ``(sigma - lambda_max) / gap``.

    C is the real cycle with diagonal ``d`` and edges ``e >= 0``: the path P
    plus ``w (e_0 e_{p-1}^T + e_{p-1} e_0^T)``, ``w = e_{p-1}``.  With sigma
    above its top, ``sigma - C`` is a nonsingular M-matrix, so x > 0.  The
    pivots of ``P - sigma`` give ``y, z_0, z_1 = (sigma - P)^{-1} (1, e_0,
    e_{p-1})``, all nonnegative; by Woodbury ``x = y + w (x_{p-1} z_0 + x_0
    z_1)``, ``(x_0, x_{p-1})`` solving ``[[1 - w g, -w g_00], [-w g_11, 1 - w
    g]]`` against ``(y_0, y_{p-1})`` (``g_00 = z_0[0]``, ``g = z_0[p-1]``,
    ``g_11 = z_1[p-1]``).  Its determinant vanishes at the top, so ``det *
    x`` comes from the adjugate, all of whose terms but ``det * y`` are >= 0.
    """
    p = d.shape[0]
    q = next(_ldl_pivots(d, e * e, sigma, p, p))
    rhs = np.zeros((p, 3, d.shape[1]))
    rhs[:, 0], rhs[0, 1], rhs[-1, 2] = -1.0, -1.0, -1.0
    y, z0, z1 = _ldl_solve(q[:, None], (e[: p - 1] / q[:-1])[:, None], rhs).transpose(1, 0, 2)
    w, g00, g, g11 = e[-1], z0[0], z0[-1], z1[-1]
    det = (1 - w * g) ** 2 - w * w * g00 * g11
    n0 = (1 - w * g) * y[0] + w * g00 * y[-1]
    n1 = w * g11 * y[0] + (1 - w * g) * y[-1]
    x = det * y + w * (n1 * z0 + n0 * z1)
    return x / x.max(axis=0)


def _couplings(spec: PeriodSpec, beta) -> np.ndarray:
    """T's links ``c_j u_j + a_{j+1} conj(u_j)`` (p, directions) in the gauge
    ``u_j = D_{j+1} / D_j``, the phase of ``conj(beta_j)`` (1 where 0)."""
    u = np.exp(-1j * np.angle(beta))
    return (spec.c * u + np.roll(spec.a, -1) * np.conj(u)).T


def _touch_points(spec: PeriodSpec, coupling, squares, links) -> np.ndarray:
    """T_k's Rayleigh quotients at the eigenvectors ``D x`` of its Hermitian
    parts from the sums by residue mod p of ``x_j^2`` and ``x_j x_{j+1}``,
    ``sum b_j x_j^2 + coupling_j x_j x_{j+1}`` (for a cycle, ``x_p = x_0``,
    the symbol's, ``e^{i phi} = u_{p-1} D_{p-1}``), without BLAS, whose
    rounding depends on its thread count."""
    return (spec.b[:, None] * squares + coupling * links).sum(axis=0) / squares.sum(axis=0)


def _cut_blocks(spec: PeriodSpec, thetas, d, e, beta, exponent, cut):
    """The period's Hermitian part at each of ``thetas`` (``d, e, beta,
    exponent`` of :func:`_scaled_tridiagonals`) with the edges ``cut`` (p,
    directions) set to 0: its Perron vector at the band edge (rows rolled),
    and per block (rows between cut edges; slot j ends at cut edge j) of
    the directions with cut edges, that vector's part normalised: the
    block's top eigenvector.  Rows start after the first cut edge, so the
    wrap edge is cut (else tied blocks leave a Woodbury determinant that
    rounds to 0 or below).  Per block: the Hermitian quotient (-inf in
    unused slots); in the gauge of :func:`_couplings` with the phase of
    ``conj(gamma_j)`` across each cut edge j, the skew quotient and T's; the
    first entry; the last times ``|gamma_j|`` and T's link ``c_j u_j +
    a_{j+1} conj(u_j)``.
    """
    p, split = d.shape[0], np.flatnonzero(cut.any(axis=0))
    at = (np.arange(p)[:, None] + cut[:, split].argmax(axis=0) + 1) % p
    rows = lambda y: np.take_along_axis(y, at, axis=0)
    d, e = d.copy(), np.where(cut, 0.0, e)
    d[:, split], e[:, split] = rows(d[:, split]), rows(e[:, split])
    x = _perron_vectors(d, e, _band_edges(d, e))
    # from here on, only the directions with cut edges
    thetas, beta, cut, d, e, v = thetas[split], beta[split].T, *(y[:, split] for y in (cut, d, e, x))
    m, c, col = cut.sum(axis=0), rows(cut), np.arange(split.size)
    block = rows((np.cumsum(cut, axis=0) - cut) % m)
    index = (block * split.size + col).ravel()
    sums = lambda y: np.bincount(index, y.ravel(), p * split.size).reshape(p, -1)
    per_block = lambda y: sums(y.real) + 1j * sums(y.imag) if np.iscomplexobj(y) else sums(y)
    v = v / np.sqrt(per_block(v * v))[block, col]
    pairs = v * np.roll(v, -1, axis=0)
    w = np.exp(-1j * thetas)
    gamma = (w * spec.c[:, None] - np.conj(w * np.roll(spec.a, -1)[:, None])) / 2j
    u = np.exp(-1j * np.angle(np.where(cut, gamma, beta)))
    coupling = rows(_couplings(spec, np.where(cut, gamma, beta).T))
    inner = rows(np.where(cut, 0.0, (gamma * u).real))
    used = np.arange(p)[:, None] < m
    h = np.where(used, np.ldexp(per_block(d * v * v + 2 * e * pairs), exponent), -np.inf)
    s = per_block(rows((w * spec.b[:, None]).imag) * v * v + 2 * inner * pairs)
    q = per_block(spec.b[at] * v * v + np.where(c, 0.0, coupling) * pairs) / np.where(used, per_block(v * v), 1.0)
    head = per_block(np.where(np.roll(c, 1, axis=0), v, 0.0))
    out_gamma = per_block(np.where(c, rows(np.abs(gamma)) * v, 0.0))
    out_link = per_block(np.where(c, coupling * v, 0.0))
    return x, (h, s, q, head, out_gamma, out_link)


def _flat_ends(s, span, across, after, index, q, out_link, solve) -> np.ndarray:
    """Both ends of each flat edge (columns), bottom ends first, from its
    blocks (rows): the top vectors r of the skew part compressed to the
    spanning blocks (diagonal ``s``, edges ``across``) and of its negation
    give T's quotients at the phases ``conj(+-gamma_j)``, ``(sum r_b^2 q_b
    +- sum r_b r_{b+1} after_b out_link_b) / sum r_b^2``, block b being
    entry ``index[b]`` of ``q`` and ``out_link`` (of :func:`_cut_blocks`),
    ``after`` the next block's first entry.  ``solve(diagonal, edges,
    weights, span)`` gives the sums of ``r_b^2`` and ``r_b r_{b+1}`` over
    rows that share their entries, and the first block of each (indices or
    a slice);
    ``weights(rows)`` are those rows' terms of the quotients.
    """
    scale = np.frexp(np.maximum(np.abs(s * span), across).max(axis=0, initial=0.0))[1]
    sign, on, shape = np.array([[-1.0], [1.0]]), span[:, None], (len(s), 2, s.shape[1])
    # the negated and the plain matrix of each column, side by side
    bd = np.where(on, sign * np.ldexp(s, -scale)[:, None], -2.0)

    def weights(rows):
        """The rows' terms of the quotients of both signs, side by side."""
        link = after[rows] * out_link.ravel()[index[rows]]
        return np.hstack([q.ravel()[index[rows]]] * 2), np.hstack([-link, link])

    squares, links, rows = solve(bd.reshape(len(s), -1), np.broadcast_to(np.ldexp(across, -scale)[:, None], shape).reshape(len(s), -1), weights, span)
    joined = on & np.roll(on, -1, axis=0)
    squares, links = (y.reshape(-1, *shape[1:]) for y in (squares, links))
    by_entry = lambda w: np.stack([np.bincount(index[rows].ravel(), w[:, i].ravel(), q.size) for i in (0, 1)])
    squares = by_entry(squares * on[rows]).reshape(2, *q.shape)
    links = by_entry(links * joined[rows] * after[rows][:, None]).reshape(2, *q.shape)
    return ((squares * q).sum(axis=1) + sign * (links * out_link).sum(axis=1)) / squares.sum(axis=1)


def truncation_support(spec: PeriodSpec, k: int, thetas) -> np.ndarray:
    """Support function of W(T_k) at ``thetas``, in the shape of ``thetas``:
    the largest eigenvalue of the Hermitian part of ``e^{-i theta} T_k`` by
    :func:`_top_pairs`, the upper end of a certified bracket, no vectors."""
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        return np.zeros(thetas.shape)
    d, e, _, exponent = _scaled_tridiagonals(spec, thetas.ravel())
    return np.ldexp(_top_pairs(d, e, k)[0], exponent).reshape(thetas.shape)


def _spanning_pairs(d, e, k: int, repeat, weights, span):
    """:func:`_top_pairs`' sums of the paths ``d, e`` with ``repeat``, less
    the blocks of no ``span`` before and after the rest (at -2 and cut off
    by zero edges, so the top vectors vanish there) where that leaves the
    copies whole: the copies' sums then start at a spanning block."""
    lo, m, n = repeat
    first, end = span.argmax(axis=0).min(), k - span[::-1].argmax(axis=0).min()
    first, end = (first, end) if first <= lo and end >= lo + n * m else (0, k)
    squares, links, rows = _top_pairs(d[first:end], e[first:end], end - first, (lo - first, m, n), lambda rows: weights(rows + first))[1]
    return squares, links, rows + first


def _truncation_flat_ends(spec: PeriodSpec, k: int, thetas) -> np.ndarray:
    """Both ends of the flat edge of W(T_k) at each of ``thetas``: bottom
    and top end of the first, then of the second, and so on.

    S is cut at the period's smallest edges (and any within rounding of 0).
    Its blocks are copies of the cut period's but for the first and the
    last, from the period also cut before row 0 and after row k - 1; one
    :func:`_cut_blocks` solves the three (rows outside a block at -4, below
    any top).  The blocks form a path that repeats the period's every m
    blocks, which :func:`_top_pairs` solves per m in O(p) per step.
    """
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    n, p = beta.shape
    res, size = np.arange(p)[:, None], np.abs(beta).T
    present = res < k - 1
    smallest = np.where(present, size, np.inf).min(axis=0)
    cut = present & (size <= np.maximum(smallest, _edge_rounding(spec)[:, None]))
    m, first = cut.sum(axis=0), cut.argmax(axis=0)
    last = k - 2 - np.where(cut, (k - 2 - res) % p, p).min(axis=0)
    count = (k - 1) // p * m + cut[: (k - 1) % p].sum(axis=0) + 1
    # rows lo..hi of T_k, bounded by cut edges: its inner, first and last blocks
    lo = np.concatenate([first + 1, np.zeros(n, dtype=int), last + 1])
    hi = np.concatenate([last, first, np.full(n, k - 1)])
    three = np.tile(np.arange(n), 3)
    cuts = cut[:, three] | (res == (lo - 1) % p) | (res == hi % p)
    d = np.where((res - lo) % p <= hi - lo, d[:, three], -4.0)
    h, s, q, head, out_gamma, out_link = _cut_blocks(spec, thetas[three], d, e[:, three], beta[three], exponent, cuts)[1]
    # T_k's blocks in order, as indices into those; its block j ends at cut edge j
    t = np.arange(count.max())[:, None]
    last_slot = cuts[: (k - 1) % p, 2 * n :].sum(axis=0)
    index = np.where(t == 0, n, np.where(t == count - 1, (3 * last_slot + 2) * n, 3 * n * (t % m))) + np.arange(n)
    take = lambda y: y.ravel()[index]
    h = np.where(t < count, take(h), -np.inf)
    best = h.max(axis=0)
    span = h >= best - _gap_tol(best)
    after = np.roll(take(head), -1, axis=0) * (t < count - 1)
    across = take(out_gamma) * after * span * np.roll(span, -1, axis=0)
    s, q, out_link = take(s), q.reshape(-1, n), out_link.reshape(-1, n)
    ends = np.empty((2, n), dtype=complex)
    for size in set(m.tolist()):
        g = np.flatnonzero(m == size)
        rows = count[g].max()
        # blocks 1..count-2 repeat every ``size``; block 0 and one period head the copies
        repeat = 1 + size, size, max((count[g].min() - 3) // size - 1, 0)
        solve = lambda bd, be, weights, span: _spanning_pairs(bd, be, rows, repeat, weights, span)
        at = index[:rows, g] // n * g.size + np.arange(g.size)
        ends[:, g] = _flat_ends(*(y[:rows, g] for y in (s, span, across, after)), at, q[:, g], out_link[:, g], solve)
    return ends.T.ravel()


def _truncation_points(spec: PeriodSpec, k: int, cfg: SweepConfig) -> np.ndarray:
    """:func:`boundary_points` of the k-by-k truncation without a dense
    matrix: :func:`_top_pairs` on the real tridiagonal S(theta) similar to
    each Hermitian part, and where the top is degenerate (by the test of
    :func:`boundary_points`) both ends from :func:`_truncation_flat_ends`."""
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    thetas = phi_grid(cfg.num_theta)
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    coupling = _couplings(spec, beta)
    scaled_top, (squares, links, _) = _top_pairs(d, e, k, None, lambda rows: (spec.b[rows, None], coupling[rows]))
    by_residue = lambda y: np.array([y[r :: spec.p].sum(axis=0) for r in range(spec.p)])
    points = _touch_points(spec, coupling, by_residue(squares), by_residue(links))
    top = np.ldexp(scaled_top, exponent)
    below = np.ldexp(top - _gap_tol(top), -exponent)
    flat = np.nonzero(_count_above(d, e * e, below, k) >= 2)[0]
    # specs flat at every angle would otherwise hold many (blocks, num_theta) arrays
    chunk = max(1, _DENSE_BATCH_BYTES // (8 * k))
    ends = [_truncation_flat_ends(spec, k, thetas[flat[lo : lo + chunk]]) for lo in range(0, flat.size, chunk)]
    return _require_finite(np.concatenate([points, *ends]), "touch point")


def truncation_range(
    spec: PeriodSpec, k: int, cfg: SweepConfig = SweepConfig()
) -> RangePolygon:
    """Numerical-range polygon of the k-by-k leading compression."""
    return convex_hull(_truncation_points(spec, k, cfg))


def _twist_angles(spec: PeriodSpec, thetas):
    """The maximising twist ``phi*`` of each direction, and which of its edges vanish.

    The Hermitian part H of ``e^{-i theta} S(phi)`` is a periodic Jacobi
    matrix: ``det(lam - H) = D_theta(lam) - 2 Re(e^{i phi} Pi_theta)``, with
    ``Pi_theta`` the product of its edges (Teschl, *Jacobi Operators and
    Completely Integrable Nonlinear Lattices*, ch. 7).  Its top eigenvalue,
    the largest root, grows with the right-hand side, so it is largest at
    ``phi* = -arg Pi_theta``.  Where edges vanish to within the rounding of
    their entries (a split direction) it does not depend on phi, and the
    returned twist is 0.
    """
    beta = _scaled_tridiagonals(spec, thetas)[2]
    vanishing = np.abs(beta) <= _edge_rounding(spec)
    return np.where(vanishing.any(axis=1), 0.0, -np.angle(beta).sum(axis=1)), vanishing


def _union_directions(spec: PeriodSpec, cfg: SweepConfig) -> np.ndarray:
    """Directions of the union sweep: each interval of the ``num_theta`` grid
    cut into as many equal parts as the maximising twist turns by ``num_phi``
    grid steps across it."""
    thetas = phi_grid(cfg.num_theta)
    phi = _twist_angles(spec, thetas)[0]
    turn = np.abs(np.angle(np.exp(1j * (np.roll(phi, -1) - phi))))
    # the slack keeps a turn of exactly one step (word 01) at one part
    parts = np.maximum(1, np.ceil(cfg.num_phi * turn / (2 * np.pi) - 1e-9)).astype(int)
    step = 2 * np.pi / cfg.num_theta
    # part j of m in each interval
    j = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.repeat(thetas, parts) + step * j / np.repeat(parts, parts)


def _cycle_touch_points(spec: PeriodSpec, thetas) -> np.ndarray:
    """Touch points of the union of symbol ranges at directions ``thetas``,
    in O(p) each: one per direction, then the bottom end of each flat edge.

    The Perron vector at the band edge of the real cycle of
    :func:`_scaled_tridiagonals`, vanishing edges cut, gives the touch point.
    Where edges vanish, phi and the phases across them are free: the blocks
    within ``_gap_tol`` of the best span the flat edge, in a cycle.
    """
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    cut = (np.abs(beta) <= _edge_rounding(spec)).T
    x, (h, s, q, head, out_gamma, out_link) = _cut_blocks(spec, thetas, d, e, beta, exponent, cut)
    # the split directions' points are replaced by their ends below
    points = _touch_points(spec, _couplings(spec, beta), x * x, x * np.roll(x, -1, axis=0))
    split = np.flatnonzero(cut.any(axis=0))
    m, col = cut[:, split].sum(axis=0), np.arange(split.size)
    best = h.max(axis=0, initial=-np.inf)
    span = h >= best - _gap_tol(best)
    nxt = (np.arange(spec.p)[:, None] + 1) % m
    after = head[nxt, col]
    across = out_gamma * after * span * span[nxt, col]
    ends = np.empty((2, split.size), dtype=complex)

    def solve(bd, be, weights, span):
        r = _perron_vectors(bd, be, _band_edges(bd, be))
        return r * r, r * np.roll(r, -1, axis=0), slice(None)

    for size in set(m.tolist()):
        g = np.flatnonzero(m == size)
        blocks = (y[:size, g] for y in (s, span, across, after))
        index = np.arange(size * g.size).reshape(size, -1)
        ends[:, g] = _flat_ends(*blocks, index, q[:size, g], out_link[:size, g], solve)
    points[split] = ends[1]
    return np.concatenate([points, ends[0]])


def _symbol_points(spec: PeriodSpec, cfg: SweepConfig) -> np.ndarray:
    """:func:`_cycle_touch_points` at the directions of :func:`_union_directions`."""
    return _require_finite(_cycle_touch_points(spec, _union_directions(spec, cfg)), "touch point")

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
Newton steps on it give the top in O(p) per step, two Sturm counts certify
it, and their O(k) factorization gives the eigenvector.  The symbols' union
takes one O(p) solve per direction, at a twist known in closed form: the
band edge and the Perron vector of a real cycle.  Both take flat edges from
one block core: where edges vanish the period splits into blocks, and the
skew part compressed to the top blocks (a cycle for unions, a path of
copies for truncations) gives the two ends.
"""

from __future__ import annotations

import itertools
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
# Caps on the steps of :func:`_descend`, and on the passes of
# :func:`_top_eigenvalues` that take Newton steps (then it bisects).
_BAND_EDGE_STEPS = 60
_NEWTON_PASSES = 24
# Rows :func:`_continuant` runs between two rescalings, the range its sums
# may end a block in, and the weights of the derivatives' extra terms.
_CONTINUANT_ROWS = 32
_CONTINUANT_RANGE = 2.0**400
_DERIVATIVE_WEIGHTS = np.array([[1.0], [2.0]])


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
    top = np.outer([1.0, 0.0, 0.0], np.ones_like(lam))
    prev, scale = np.zeros_like(top), np.zeros(lam.shape, dtype=int)
    for lo in range(0, len(rows), _CONTINUANT_ROWS):
        block = rows[lo : lo + _CONTINUANT_ROWS]
        before = top, prev, scale
        top, prev = _continuant_rows(d, e2, lam, block, top, prev)
        size = np.abs(top).sum(axis=0)
        s = np.frexp(size)[1]
        top, prev, scale = np.ldexp(top, -s, out=top), np.ldexp(prev, -s, out=prev), scale + s
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
    product, product_scale = np.ones(d.shape[1]), 1
    for row in e:
        product, s = np.frexp(product * row)
        product_scale = product_scale + s

    def steps(lam):
        k, scale = _continuant(d, e2, lam, range(p))
        m, m_scale = _continuant(d, e2, lam, range(1, p - 1))
        f = k - (p > 1) * e2[p - 1] * np.ldexp(m, m_scale - scale)
        f[0] -= np.ldexp(product, product_scale - scale)
        return _laguerre(f, p)

    lam = _descend(steps, _gershgorin(d, e).max(axis=0))
    return lam + 2 * np.finfo(float).eps * np.abs(lam) + PIVMIN if upper else lam


def _descend(steps, lam) -> np.ndarray:
    """``lam`` less the finite positive ``steps(lam)`` until each is at most ``4 eps |lam|``."""
    for _ in range(_BAND_EDGE_STEPS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = np.where(np.isfinite(s := steps(lam)) & (s > 0), s, 0.0)
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


def _closed_form_tops(d, e, k: int, start, lo: int, m: int, n: int) -> np.ndarray:
    """Largest eigenvalue of each path S, rows 0..k-1 of ``d, e`` (taken mod
    their number), in O(m + rows besides the copies) per step; uncertified.

    Rows ``lo .. lo + n m - 1`` are n copies of the period ``lo .. lo + m -
    1``, and the edge before row lo, if any, is the period's last.  The
    period's transfer matrix M has determinant D (its squared edges'
    product) and trace ``Delta = K_period - e_last^2 K_inner``; by
    Cayley-Hamilton ``det(lam - S) = D^((n-1)/2) (U_{n-1}(tau) C_1 - sqrt(D)
    U_{n-2}(tau) C_0)`` at ``tau = Delta / (2 sqrt D)``, C_j the continuant
    of S with j copies kept, U Chebyshev polynomials of the second kind.
    For n >= 2 the top lies in the top band (|tau| <= 1) unless the other
    rows lift it (a count then fails): Newton steps on the form over
    ``U_{n-1}`` run from the band edge, ``start`` less its margin, except
    where the band is narrower than ``n^2 / 64`` bracket widths (D = 0 where
    an edge vanishes) and so holds the top within a fraction of a width of
    that edge.  For n <= 1, Laguerre steps on the continuant of S from
    ``start``, an upper bound.
    """
    p, e2 = d.shape[0], e * e
    rows = lambda r: [j % p for j in r]
    if n <= 1:
        f = lambda lam: _continuant(d, e2, lam, rows(range(k)))[0]
        lam = _descend(lambda lam: _laguerre(f(lam), k), start)
        # a last step from far above may overshoot by rounding (8 widths at
        # k = 2 from 58 times the top): one short Newton step either way
        with np.errstate(invalid="ignore", divide="ignore"):
            step = (lambda y: y[0] / y[1])(f(lam))
        return lam - np.where(np.abs(step) <= 1e-8 * (np.abs(lam) + 1), step, 0.0)
    head, period, tail = rows(range(lo)), rows(range(lo, lo + m)), rows(range(lo + n * m, k))
    product, product_scale = np.ones(d.shape[1]), 0
    for j in period:
        product, s = np.frexp(product * e[j])
        product_scale = product_scale + s

    def steps(lam):
        """The Newton steps, and tau'."""
        c1, s1 = _continuant(d, e2, lam, head + period + tail)
        c0, s0 = _continuant(d, e2, lam, head + tail)
        ck, sk = _continuant(d, e2, lam, period)
        cm, sm = _continuant(d, e2, lam, period[1:-1])
        tau = np.ldexp(ck[:2] - (m > 1) * e2[period[-1]] * np.ldexp(cm[:2], sm - sk), sk - product_scale) / (2 * product)
        # U_m(cos phi) = sin((m+1) phi) / sin phi, phi = arccos |tau| (imaginary
        # above 1), U_m(-tau) = (-1)^m U_m(tau): U_{n-2} / U_{n-1}, and U_m' / U_m
        # = (phi / sin phi) ((m+1)^2 h((m+1) phi) - h(phi)), h(x) = (1 - x cot x) / x^2
        # a series near 0, so nothing cancels where sin phi is small; limits at 0
        sign, phi = np.where(tau[0] < 0, -1.0, 1.0), np.arccos(np.abs(tau[0]) + 0j)
        h = lambda x: np.where(np.abs(x) < 1e-3, 1 / 3 + x * x / 45, (1 - x / np.tan(x)) / (x * x))
        sinc = sign * tau[1] * np.where(phi == 0, 1.0, phi / np.sin(phi))
        slope = lambda j: (sinc * ((j + 1) ** 2 * h((j + 1) * phi) - h(phi))).real
        ratio = np.where(phi == 0, (n - 1) / n, np.cos(phi) - np.sin(phi) / np.tan(n * phi)).real
        g = np.ldexp(product, product_scale + s0 - s1) * sign * ratio
        return (c1[0] - g * c0[0]) / (slope(n - 1) * c1[0] + c1[1] - g * (slope(n - 2) * c0[0] + c0[1])), tau[1]

    lam = start - _bracket_width(start, start)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        at = np.flatnonzero(steps(lam)[1] * (n * n * _bracket_width(lam, lam)) < 128)
    # the steps from here on see only the columns of wide bands
    d, e2, product, product_scale = d.take(at, axis=1), e2.take(at, axis=1), product[at], product_scale[at]
    lam[at] = _descend(lambda x: steps(x)[0], lam[at])
    return lam


def _pivot_rows(shifted, e2, first, q, ratio=None, guard=True):
    """Rows ``first, first + 1, ...`` of the pivot recurrence of
    :func:`_ldl_pivots` into ``q[1:]`` (and the slope terms into
    ``ratio[1:]``), after row ``first - 1`` in ``q[0]`` (and ``ratio[0]``).
    ``shifted`` and ``e2`` are lists of one period's rows.  With ``guard``,
    pivots of modulus below ``PIVMIN`` become ``-PIVMIN``; without, a row
    costs two ufuncs (five with ``ratio``)."""
    p = len(shifted)
    terms = itertools.repeat((None, None)) if ratio is None else zip(ratio, ratio[1:])
    for i, prev, row, (prev_term, term) in zip(itertools.count(first), q, q[1:], terms):
        if i == 0:
            row[:] = shifted[0]
            if term is not None:
                term[:] = -1.0
        else:
            np.divide(e2[(i - 1) % p], prev, out=row)
            if term is not None:
                np.multiply(row, prev_term, out=term)
                term -= 1.0
            np.subtract(shifted[i % p], row, out=row)
        if guard:
            np.putmask(row, np.abs(row) < PIVMIN, -PIVMIN)
        if term is not None:
            term /= row


def _pivot_window(period, arrays, first, q, ratio, guard: bool) -> bool:
    """Rows ``first, ...`` of :func:`_pivot_rows` into ``q[1:]`` and
    ``ratio[1:]``, with the guard only where it acts: a pass without it,
    then the columns with a pivot below ``PIVMIN`` (or not finite) again
    with it, from the window's first such row; where that is most columns,
    all, and later windows are guarded from the start (the returned ``guard``).
    ``period`` holds the rows of ``arrays``."""
    if guard:
        _pivot_rows(*period, first, q, ratio)
        return True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _pivot_rows(*period, first, q, ratio, guard=False)
    # the minima are NaN where a pivot is
    size = np.abs(q[1:])
    bad = np.flatnonzero(~(size.min(axis=0) >= PIVMIN))
    if bad.size == 0:
        return False
    # up to the row before the first that failed, nothing changes
    r = int(np.argmax(~(size.min(axis=1) >= PIVMIN)))
    if 2 * bad.size > q.shape[1]:
        _pivot_rows(*period, first + r, q[r:], None if ratio is None else ratio[r:])
        return True
    redo = [None if x is None else x[r:, bad] for x in (q, ratio)]
    # the rows of the window (and the one before), as a period of their own
    base = max(first + r - 1, 0)
    at = np.arange(base, first + q.shape[0] - 1) % arrays[0].shape[0]
    _pivot_rows(*(list(x[np.ix_(at, bad)]) for x in arrays), first + r - base, *redo)
    q[r:, bad] = redo[0]
    if ratio is not None:
        ratio[r:, bad] = redo[1]
    return False


def _ldl_pivots(d, e2, sigma, k: int, block: int, slope=None):
    """Pivots of ``S - sigma = L D L^T`` for the k-by-k S of every column,
    ``d, e2`` one period (p, columns) of its diagonal and squared
    off-diagonal, in consecutive blocks of at most ``block`` rows, each
    written over the one before.  A pivot of modulus below ``PIVMIN``
    becomes ``-PIVMIN``.  By Sylvester's law of inertia the negative pivots
    count the eigenvalues below ``sigma`` (the Sturm count).  With ``slope``
    (per column) the sweep adds ``G(sigma) = sum q_i' / q_i = sum_j 1 /
    (sigma - lambda_j)`` into it, from ``q_i' = -1 + e_{i-1}^2 q_{i-1}' /
    q_{i-1}^2``.  As in LAPACK's ``dlaneg`` (Marques, Riedy & Voemel, *SIAM
    J. Sci. Comput.* 28 (2006) 1613-1633), each window of ``_PIVOT_ROWS``
    rows runs without the guard, at two ufuncs a row, and only the columns
    it would act on are redone with it (:func:`_pivot_window`), so pivots,
    counts and slopes are those of the guarded recurrence bit for bit.
    """
    # rows contiguous (d[:, mask] is not), as the recurrence runs along them
    arrays = np.subtract(d, sigma, order="C"), np.ascontiguousarray(e2)
    period = [list(x) for x in arrays]
    # row 0 holds the last row of the block before
    q = np.empty((min(k, block) + 1, d.shape[1]))
    ratio = None if slope is None else np.empty_like(q)
    guard = False
    for start in range(0, k, block):
        rows = min(block, k - start)
        for lo in range(0, rows, _PIVOT_ROWS):
            window = slice(lo, min(lo + _PIVOT_ROWS, rows) + 1)
            rw = None if ratio is None else ratio[window]
            guard = _pivot_window(period, arrays, start + lo, q[window], rw, guard)
        if ratio is not None:
            slope += ratio[1 : rows + 1].sum(axis=0)
        yield q[1 : rows + 1]
        q[0] = q[rows]
        if ratio is not None:
            ratio[0] = ratio[rows]


def _count_above(d, e2, sigma, k: int, slope=None) -> np.ndarray:
    """Number of eigenvalues of each S at or above ``sigma``, counted through
    a fixed block of pivot rows, so memory does not grow with k; ``slope``
    as in :func:`_ldl_pivots`."""
    pivots = _ldl_pivots(d, e2, sigma, k, _PIVOT_ROWS, slope)
    return k - sum(np.count_nonzero(q < 0, axis=0) for q in pivots)


def _top_eigenvalues(d, e, k: int, start=None) -> np.ndarray:
    """Largest eigenvalue of each k-by-k S, by Sturm counts: the certified
    search for the columns of :func:`_top_pairs` that fail its counts.

    The bracket runs from the largest diagonal entry (a Rayleigh quotient)
    to the Gershgorin bound, and each pass tests one shift per open column.
    With ``start``, an upper bound, the first pass counts there (a column
    with an eigenvalue at or above it bisects) and returns ``G = sum_j 1 /
    (sigma - lambda_j)``; the next shift is the Newton point ``hi - max(1/G,
    tol)``, ``tol`` half the final width, which from above never overshoots
    the top but by rounding (one at or below ``lo`` becomes ``lo + tol``).
    Without ``start``, and after ``_NEWTON_PASSES`` passes, shifts bisect.
    The bracket keeps the side with the top; its upper end is returned.
    """
    rows = min(k, d.shape[0])
    lo, hi, e2 = d[:rows].max(axis=0), _gershgorin(d, e)[:rows].max(axis=0), e * e
    # the Newton step 1/G from each upper end, infinite where unknown, and
    # the columns that take no Newton steps
    step = np.full(lo.shape, np.inf)
    plain = np.full(lo.shape, start is None)

    def count(at, sigma):
        """Which columns ``at`` have an eigenvalue at or above ``sigma``, and
        the Newton steps from it: infinite where not wanted or not finite
        and positive (a pass with slopes costs five ufuncs a row, not two)."""
        slope = None if plain[at].all() else np.zeros(at.size)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # take, unlike d[:, at], keeps the rows the recurrence runs along contiguous
            above = _count_above(d.take(at, axis=1), e2.take(at, axis=1), sigma, k, slope)
            steps = np.inf if slope is None else 1.0 / slope
        return above >= 1, np.where(~plain[at] & np.isfinite(steps) & (steps > 0), steps, np.inf)

    if not plain.all():
        at = np.flatnonzero(hi - lo > _bracket_width(lo, hi))
        sigma = np.minimum(start[at], hi[at])
        inside, steps = count(at, sigma)
        plain[at] = inside
        lo[at] = np.where(inside, np.maximum(lo[at], sigma), lo[at])
        hi[at] = np.where(inside, hi[at], sigma)
        step[at] = np.where(inside, np.inf, steps)
    for passes in itertools.count():
        at = np.flatnonzero(hi - lo > _bracket_width(lo, hi))
        if at.size == 0:
            return hi
        if passes == _NEWTON_PASSES:
            plain[:], step[:] = True, np.inf
        a, b, h = lo[at], hi[at], step[at]
        tol = 0.5 * _bracket_width(b, b)
        newton = b - np.maximum(h, tol)
        # a Newton point at or below lo means the top sits at lo, to rounding
        newton = np.where(newton > a, newton, np.minimum(a + tol, 0.5 * (a + b)))
        sigma = np.where(np.isinf(h), np.minimum(a + (b - a) / 2, b), newton)
        inside, steps = count(at, sigma)
        lo[at], hi[at] = np.where(inside, sigma, a), np.where(inside, b, sigma)
        step[at] = np.where(inside, h, steps)


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


def _top_pairs(d, e, k: int, start=None, repeat=None, use=lambda t, x: x):
    """Top eigenvalue of each path S (rows 0..k-1 of ``d, e``, taken mod
    their number p), and an iterator of ``use(columns, top eigenvectors as a
    (k, columns) array)`` over chunks of columns (none if ``use`` is None).

    lam comes from :func:`_closed_form_tops` for ``repeat = (lo, m, n)``
    (default ``(0, p, k // p)``: a truncation) and ``start`` (default the
    period's band edge, or if n <= 1 the Gershgorin bound).  With w the
    :func:`_bracket_width` at lam, the pivots of ``S - (lam + w)`` (a chunk
    of ``_VECTOR_BATCH_BYTES`` at a time; they also drive
    :func:`_top_eigenvectors`) must all be negative, and a second count or
    a diagonal entry (a Rayleigh quotient) must put an eigenvalue at or
    above ``lam - w``; lam + w is returned.  Other columns, and those with
    lam not finite, go to :func:`_top_eigenvalues`.
    """
    p, n = d.shape
    lo, m, copies = (0, p, k // p) if repeat is None else repeat
    if start is None:
        start = _band_edges(d[lo : lo + m], e[lo : lo + m]) if copies >= 2 else _gershgorin(d, e)[:k].max(axis=0)
    lam = _closed_form_tops(d, e, k, start, lo, m, copies)
    finite, lam = np.isfinite(lam), np.where(np.isfinite(lam), lam, start)
    width, e2 = _bracket_width(lam, lam), e * e
    top, ok = lam + width, d[:k].max(axis=0) >= lam - width
    at = np.flatnonzero(~ok)
    ok[at] = _count_above(d.take(at, axis=1), e2.take(at, axis=1), lam[at] - width[at], k) >= 1
    ok &= finite
    vectors = []
    for c in np.array_split(np.arange(n), -(-n // max(2, _VECTOR_BATCH_BYTES // (8 * k)))):
        t = slice(c[0], c[-1] + 1)
        q = next(_ldl_pivots(d[:, t], e2[:, t], top[t], k, k))
        f = c[~(ok[t] & (q < 0).all(axis=0))]
        if f.size:
            top[f] = _top_eigenvalues(d[:, f], e[:, f], k, start[f])
            q[:, f - c[0]] = next(_ldl_pivots(d[:, f], e2[:, f], top[f], k, k))
        if use is not None:
            # the vectors replace the pivots, so ``use`` and the next chunk see one (k, columns) array
            q = _top_eigenvectors(e[:, t], q)
            vectors.append(use(t, q))
    return top, iter(vectors)


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


def _touch_points(spec: PeriodSpec, beta, x, cycle=False) -> np.ndarray:
    """Rayleigh quotients of T_k at the eigenvectors ``D x`` of its Hermitian parts.

    With ``u_j = D_{j+1} / D_j`` the phase of ``conj(beta_j)`` (1 where 0),
    ``(D x)^* T_k (D x) = sum b_j x_j^2 + sum (c_j u_j + a_{j+1} conj(u_j))
    x_j x_{j+1}``.  With ``cycle`` (x has p rows) the sum also takes the wrap
    edge: the quotient of the symbol ``S(phi)``, ``e^{i phi} = u_{p-1}
    D_{p-1}``.  Real sums by residue mod p keep BLAS, whose rounding depends
    on its thread count, out of it.
    """
    p = spec.p
    u = np.exp(-1j * np.angle(beta))
    coupling = spec.c * u + np.roll(spec.a, -1) * np.conj(u)
    xx = x * x
    by_residue = lambda y: np.array([y[r::p].sum(axis=0) for r in range(p)])
    squares, links = by_residue(xx), by_residue(x[:-1] * x[1:])
    if cycle:
        links[-1] += x[-1] * x[0]
    quotient = (spec.b[:, None] * squares + coupling.T * links).sum(axis=0)
    return quotient / xx.sum(axis=0)


def _cut_blocks(spec: PeriodSpec, thetas, d, e, beta, exponent, cut):
    """The period's Hermitian part at each of ``thetas`` (``d, e, beta,
    exponent`` of :func:`_scaled_tridiagonals`) with the edges ``cut`` (p,
    directions) set to 0: its Perron vector at the band edge (rows rolled),
    and per block (rows between cut edges; slot j ends at cut edge j) of
    the directions with cut edges, that vector's part normalised: the
    block's top eigenvector.  Rows start after the first cut edge, so the
    wrap edge is cut (else tied blocks leave a Woodbury determinant that
    rounds to 0 or below).  Per block: the Hermitian quotient (-inf in
    unused slots); in the gauge of :func:`_touch_points` with the phase of
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
    coupling = rows(spec.c[:, None] * u + np.roll(spec.a, -1)[:, None] * np.conj(u))
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
    blocks (rows): the top vectors r, by ``solve``, of the skew part
    compressed to the spanning blocks (diagonal ``s``, edges ``across``) and
    of its negation give T's quotients at the phases ``conj(+-gamma_j)``,
    ``(sum r_b^2 q_b +- sum r_b r_{b+1} after_b out_link_b) / sum r_b^2``,
    block b being entry ``index[b]`` of ``q`` and ``out_link`` (of
    :func:`_cut_blocks`), ``after`` the next block's first entry.
    """
    scale = np.frexp(np.maximum(np.abs(s * span), across).max(axis=0, initial=0.0))[1]
    sign, on, shape = np.array([[-1.0], [1.0]]), span[:, None], (len(s), 2, s.shape[1])
    # the negated and the plain matrix of each column, side by side
    bd = np.where(on, sign * np.ldexp(s, -scale)[:, None], -2.0)
    r = solve(bd.reshape(len(s), -1), np.broadcast_to(np.ldexp(across, -scale)[:, None], shape).reshape(len(s), -1))
    r = r.reshape(shape) * on
    by_entry = lambda w: np.stack([np.bincount(index.ravel(), w[:, i].ravel(), q.size) for i in (0, 1)])
    squares = by_entry(r * r).reshape(2, *q.shape)
    links = by_entry(r * np.roll(r, -1, axis=0) * after[:, None]).reshape(2, *q.shape)
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
    return np.ldexp(_top_pairs(d, e, k, _band_edges(d, e), None, None)[0], exponent).reshape(thetas.shape)


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
        solve = lambda bd, be: np.hstack(list(_top_pairs(bd, be, rows, None, repeat)[1]))
        at = index[:rows, g] // n * g.size + np.arange(g.size)
        ends[:, g] = _flat_ends(*(y[:rows, g] for y in (s, span, across, after)), at, q[:, g], out_link[:, g], solve)
    return ends.T.ravel()


def _truncation_points(spec: PeriodSpec, k: int, cfg: SweepConfig) -> np.ndarray:
    """:func:`boundary_points` of the k-by-k truncation, from its three
    diagonals: :func:`_top_pairs` on the real symmetric tridiagonal S(theta)
    similar to each Hermitian part, in O(num_theta * k) time and memory, and
    where the top is degenerate, by the test of :func:`boundary_points`, both
    ends of the flat edge from :func:`_truncation_flat_ends`; no dense k-by-k
    matrix is ever built."""
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    thetas = phi_grid(cfg.num_theta)
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    scaled_top, points = _top_pairs(d, e, k, None, None, lambda t, x: _touch_points(spec, beta[t], x))
    top = np.ldexp(scaled_top, exponent)
    below = np.ldexp(top - _gap_tol(top), -exponent)
    flat = np.nonzero(_count_above(d, e * e, below, k) >= 2)[0]
    # specs flat at every angle would otherwise hold many (blocks, num_theta) arrays
    chunk = max(1, _DENSE_BATCH_BYTES // (8 * k))
    ends = [_truncation_flat_ends(spec, k, thetas[flat[lo : lo + chunk]]) for lo in range(0, flat.size, chunk)]
    return _require_finite(np.concatenate([*points, *ends]), "touch point")


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
    points = _touch_points(spec, beta, x, cycle=True)
    split = np.flatnonzero(cut.any(axis=0))
    m, col = cut[:, split].sum(axis=0), np.arange(split.size)
    best = h.max(axis=0, initial=-np.inf)
    span = h >= best - _gap_tol(best)
    nxt = (np.arange(spec.p)[:, None] + 1) % m
    after = head[nxt, col]
    across = out_gamma * after * span * span[nxt, col]
    ends = np.empty((2, split.size), dtype=complex)
    solve = lambda bd, be: _perron_vectors(bd, be, _band_edges(bd, be))
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

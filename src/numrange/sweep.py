"""Numerical-range boundaries via the support-angle sweep.

For each direction theta the numerical range's support line touches the
boundary at the Rayleigh quotient of a top eigenvector of the Hermitian part
of ``exp(-i theta) A``.  Sweeping theta over a uniform grid and taking the
convex hull of the touch points yields an inscribed polygon whose support
function is within O(1/num_theta^2) of the true one.  Where the support
line meets the range along a flat edge (degenerate top eigenvalue) the
sweep emits the edge's endpoints, so flat pieces are exact.

Truncations of periodic operators have tridiagonal Hermitian parts; their
sweep runs on the similar real symmetric tridiagonals in O(k) per angle
(Sturm bisection and inverse iteration; Parlett, *The Symmetric Eigenvalue
Problem*, ch. 7), not on dense matrices.  The symbols' Hermitian parts are
periodic Jacobi matrices, whose characteristic polynomial at one theta is
the same for every phi up to a constant; their sweep takes O(p) steps per
(theta, phi) pair (Newton on that polynomial, a cut of the cycle for the
eigenvector).  Dense LAPACK solves remain for general matrices and for the
(near-)degenerate angles and pairs, where flat-edge ends are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RangePolygon, convex_hull
from .linalg import as_matrix, eigh
from .operators import PeriodSpec, build_symbol, build_truncation, phi_grid

__all__ = [
    "NotSelfAdjointError",
    "SweepConfig",
    "boundary_points",
    "range_boundary",
    "selfadjoint_interval",
    "symbol_union_hull",
    "truncation_range",
    "truncation_support",
    "rayleigh_samples",
]


class NotSelfAdjointError(ValueError):
    """Raised when an operation requires a self-adjoint period spec."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid sizes: ``num_theta`` support angles, ``num_phi`` symbol angles."""

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
# Symbol sweep: (theta, phi) pairs per chunk, Newton steps before a pair goes
# to the dense path, and the margin of the certificate that its top
# eigenvalue is simple.
_SYMBOL_CHUNK = 1 << 14
_NEWTON_STEPS = 64
_GAP_SAFETY = 4.0


def _angles(num_theta: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(num_theta) / num_theta


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
        0.5 * (phase * a + np.conj(phase) * a.conj().T), "Hermitian part"
    )


def _flat_edge_ends(a, phase, values, vecs) -> np.ndarray:
    """Both ends of the flat edge along which the support line meets W(a).

    ``values, vecs`` are the ``eigh`` of the Hermitian part of ``phase * a``.
    The ends are the extremes of the rotated matrix's skew part compressed
    to the top eigenspace, which keeps the point set exactly compatible
    with the symmetries of ``a``.
    """
    span = vecs[:, values >= values[-1] - _gap_tol(values[-1])]
    rotated = phase * a
    skew = (rotated - rotated.conj().T) / 2j
    compressed = span.conj().T @ (skew @ span)
    compressed = 0.5 * (compressed + compressed.conj().T)
    _, w = eigh(compressed)
    ends = span @ w[:, [0, -1]]
    return np.einsum("it,ij,jt->t", ends.conj(), a, ends)


def _dense_touch_points(a, phase) -> np.ndarray:
    """Support touch points of W(a) from dense ``eigh``, one direction per
    entry of ``phase``: the top-eigenvector Rayleigh quotients in that order,
    then the flat-edge ends of every (near-)degenerate direction."""
    values, vecs = eigh(_hermitian_parts(a, phase))
    top = vecs[:, :, -1]
    points = [np.einsum("ti,ij,tj->t", top.conj(), a, top)]
    if a.shape[0] > 1:
        flat = values[:, -1] - values[:, -2] <= _gap_tol(values[:, -1])
        points += [
            _flat_edge_ends(a, phase[t], values[t], vecs[t]) for t in np.nonzero(flat)[0]
        ]
    return np.concatenate(points)


def boundary_points(a, cfg: SweepConfig = SweepConfig()) -> np.ndarray:
    """Support touch points of W(a), at least one per sweep angle.

    Every returned point is a Rayleigh quotient, hence a member of W(a).
    When the top eigenvalue of the rotated Hermitian part is (near-)
    degenerate the support line touches W(a) along a flat segment; an
    arbitrary eigenvector would land somewhere inside it, so both segment
    endpoints are emitted as well.  A non-finite intermediate raises
    ``FloatingPointError``.
    """
    a = as_matrix(a)
    if a.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    phase = np.exp(-1j * _angles(cfg.num_theta))
    return _require_finite(_dense_touch_points(a, phase), "touch point")


def range_boundary(a, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Inscribed convex polygon approximating the numerical range of ``a``."""
    return convex_hull(boundary_points(a, cfg))


def _require_selfadjoint(spec: PeriodSpec) -> None:
    if not spec.is_selfadjoint():
        raise NotSelfAdjointError(
            "spec is not self-adjoint: need real b and c[j] = conj(a[j+1])"
        )


def selfadjoint_interval(
    spec: PeriodSpec, cfg: SweepConfig = SweepConfig()
) -> tuple[float, float]:
    """Endpoints of the closure of W(T) for a self-adjoint operator.

    Minimum of the smallest and maximum of the largest symbol eigenvalue
    over the ``num_phi`` twist grid.
    """
    _require_selfadjoint(spec)
    symbols = np.stack([build_symbol(spec, phi) for phi in phi_grid(cfg.num_phi)])
    _require_finite(symbols, "symbol entry")
    values = np.linalg.eigvalsh(symbols)
    return float(values[:, 0].min()), float(values[:, -1].max())


def symbol_union_hull(spec: PeriodSpec, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Convex hull of the union of symbol numerical ranges over the phi grid."""
    return convex_hull(_symbol_points(spec, cfg))


def _scaled_tridiagonals(spec: PeriodSpec, thetas: np.ndarray):
    """One period of the Hermitian part of ``e^{-i theta} T``, per angle.

    Row j of a truncation (j taken mod p) has the diagonal entry
    ``Re(e^{-i theta} b_j)`` and, right of it,
    ``beta_j = (e^{-i theta} c_j + conj(e^{-i theta} a_{j+1})) / 2``.  The
    unitary diagonal similarity with ``D_{j+1} / D_j = conj(beta_j) / |beta_j|``
    turns it into the real symmetric S(theta) with diagonal ``d`` and
    off-diagonal ``e = |beta|``.  Returns ``d, e`` as (p, num_theta) arrays
    divided by ``2**exponent``, which brings their largest entry into
    [1/2, 1) exactly, so that squares neither overflow nor underflow; and
    ``beta`` itself, shape (num_theta, p).
    """
    w = np.exp(-1j * thetas)[:, None]
    diag = _require_finite((w * spec.b).real, "diagonal entry")
    beta = (w * spec.c + np.conj(w * np.roll(spec.a, -1))) / 2
    modulus = _require_finite(np.abs(beta), "off-diagonal entry")
    exponent = int(np.frexp(max(np.abs(diag).max(), modulus.max()))[1])
    scaled = [np.ascontiguousarray(np.ldexp(x.T, -exponent)) for x in (diag, modulus)]
    return *scaled, beta, exponent


def _ldl_pivots(d, e2, sigma, k: int) -> np.ndarray:
    """Pivots of ``S - sigma = L D L^T`` for the k-by-k S of every angle.

    ``d`` and ``e2`` are one period of the diagonal and of the squared
    off-diagonal, shape (p, num_theta); the result has shape (k, num_theta).
    A pivot of modulus below ``PIVMIN`` becomes ``-PIVMIN``, as in LAPACK's
    ``dstebz``.  By Sylvester's law of inertia the number of negative pivots
    is the number of eigenvalues below ``sigma`` (the Sturm count).
    """
    p = d.shape[0]
    shifted = d - sigma
    q = np.empty((k, np.size(sigma)))
    q[0] = shifted[0]
    np.putmask(q[0], np.abs(q[0]) < PIVMIN, -PIVMIN)
    for i in range(1, k):
        np.divide(e2[(i - 1) % p], q[i - 1], out=q[i])
        np.subtract(shifted[i % p], q[i], out=q[i])
        np.putmask(q[i], np.abs(q[i]) < PIVMIN, -PIVMIN)
    return q


def _count_above(d, e2, sigma, k: int) -> np.ndarray:
    """Number of eigenvalues of each S at or above ``sigma``."""
    return k - np.count_nonzero(_ldl_pivots(d, e2, sigma, k) < 0, axis=0)


def _top_eigenvalues(d, e, k: int) -> np.ndarray:
    """Largest eigenvalue of each k-by-k S by Sturm bisection.

    The bracket starts between the largest diagonal entry (a Rayleigh
    quotient) and the Gershgorin bound, and shrinks to a few ulps.  Its
    upper end is returned: no eigenvalue lies above it, so ``S`` minus it
    factors without pivoting as a negative (semi)definite matrix.
    """
    rows = np.arange(min(k, d.shape[0]))
    lo = d[rows].max(axis=0)
    hi = (d + e + np.roll(e, 1, axis=0))[rows].max(axis=0)
    e2 = e * e
    eps = np.finfo(float).eps
    while np.any(hi - lo > 2 * eps * np.maximum(np.abs(lo), np.abs(hi)) + PIVMIN):
        mid = 0.5 * (lo + hi)
        inside = _count_above(d, e2, mid, k) >= 1
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return hi


def _top_eigenvectors(d, e, top, k: int) -> np.ndarray:
    """Top eigenvectors of each S, as the columns of a (k, num_theta) array.

    Inverse iteration with the pivots of ``S - top``, ``top`` from
    :func:`_top_eigenvalues`.  The off-diagonal of S is nonnegative, so by
    Perron-Frobenius its top eigenvector can be taken nonnegative and the
    all-ones start vector is never orthogonal to it.  Each of the three
    sweeps shrinks the other components by (a few ulps) / (spectral gap),
    and outside the flat-edge angles that gap exceeds ``DEGENERATE_GAP``.
    """
    q = _ldl_pivots(d, e * e, top, k)
    mult = e[np.arange(k - 1) % d.shape[0]] / q[:-1]
    x = np.ones_like(q)
    for _ in range(3):
        for i in range(1, k):
            x[i] -= mult[i - 1] * x[i - 1]
        x /= q
        for i in range(k - 2, -1, -1):
            x[i] -= mult[i] * x[i + 1]
        x /= np.abs(x).max(axis=0)
    return x


def _touch_points(spec: PeriodSpec, beta, x) -> np.ndarray:
    """Rayleigh quotients of T_k at the eigenvectors ``D x`` of its Hermitian parts.

    With ``u_j = D_{j+1} / D_j`` the phase of ``conj(beta_j)`` (1 where
    ``beta_j = 0``), ``(D x)^* T_k (D x)`` is
    ``sum b_j x_j^2 + sum (c_j u_j + a_{j+1} conj(u_j)) x_j x_{j+1}``.
    """
    rows = np.arange(x.shape[0]) % spec.p
    u = np.exp(-1j * np.angle(beta))
    coupling = spec.c * u + np.roll(spec.a, -1) * np.conj(u)
    xx = x * x
    quotient = spec.b[rows] @ xx + (x[:-1] * x[1:] * coupling.T[rows[:-1]]).sum(axis=0)
    return quotient / xx.sum(axis=0)


def truncation_support(spec: PeriodSpec, k: int, thetas) -> np.ndarray:
    """Support function of W(T_k) at ``thetas``: the largest eigenvalue of
    the Hermitian part of ``e^{-i theta} T_k``, in O(k) per angle."""
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    d, e, _, exponent = _scaled_tridiagonals(spec, np.atleast_1d(np.asarray(thetas, dtype=float)))
    return np.ldexp(_top_eigenvalues(d, e, k), exponent)


def _truncation_points(spec: PeriodSpec, k: int, cfg: SweepConfig) -> np.ndarray:
    """:func:`boundary_points` of the k-by-k truncation, from its three diagonals.

    The sweep runs on the real symmetric tridiagonal S(theta) similar to
    each Hermitian part (Sturm bisection, then inverse iteration), in
    O(num_theta * k) time and memory.  Where the top eigenvalue is
    degenerate, by the test of :func:`boundary_points`, that angle's dense
    k-by-k Hermitian part goes through the same flat-edge code, so flat
    edges stay exact.
    """
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    thetas = _angles(cfg.num_theta)
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    scaled_top = _top_eigenvalues(d, e, k)
    top = np.ldexp(scaled_top, exponent)
    below = np.ldexp(top - _gap_tol(top), -exponent)
    flat = np.nonzero(_count_above(d, e * e, below, k) >= 2)[0]
    points = [_touch_points(spec, beta, _top_eigenvectors(d, e, scaled_top, k))]
    if flat.size:
        t_k = build_truncation(spec, k)
        for t in flat:
            phase = np.exp(-1j * thetas[t])
            values, vecs = eigh(_hermitian_parts(t_k, phase))
            points.append(_flat_edge_ends(t_k, phase, values, vecs))
    return _require_finite(np.concatenate(points), "touch point")


def truncation_range(
    spec: PeriodSpec, k: int, cfg: SweepConfig = SweepConfig()
) -> RangePolygon:
    """Numerical-range polygon of the k-by-k leading compression."""
    return convex_hull(_truncation_points(spec, k, cfg))


def _cycle_polynomial(d, e2, lam):
    """``D(lam)`` and ``D'(lam)``, where ``det(lam - H) = D(lam) - 2 Re(e^{i phi} Pi)``.

    ``D = K_{0..p-1} - e2_{p-1} K_{1..p-2}``, from the path continuants
    ``K_{i..j} = (lam - d_j) K_{i..j-1} - e2_{j-1} K_{i..j-2}`` of the
    symbol's Hermitian part (an empty path gives 1), run side by side.
    """
    p = d.shape[0]
    shift = lam - d
    k, dk, k_prev, dk_prev = shift[0], 1.0, 1.0, 0.0  # K_{0..j}, K_{0..j-1}
    h, dh, h_prev, dh_prev = 1.0, 0.0, 0.0, 0.0  # K_{1..j}, K_{1..j-1}
    for j in range(1, p - 1):
        s, w = shift[j], e2[j - 1]
        k, dk, k_prev, dk_prev = s * k - w * k_prev, k + s * dk - w * dk_prev, k, dk
        h, dh, h_prev, dh_prev = s * h - w * h_prev, h + s * dh - w * dh_prev, h, dh
    s, w = shift[p - 1], e2[p - 2]
    k, dk = s * k - w * k_prev, k + s * dk - w * dk_prev
    return k - e2[p - 1] * h, dk - e2[p - 1] * dh


def _newton_top(d, e2, level, lam, tol, floor):
    """Largest root of ``D = level`` per pair, by Newton's method from an
    upper bound ``lam``.  The roots are all real, so above the largest one
    ``D - level`` is increasing and convex: the iterates descend onto it,
    their steps shrink and ``D'`` falls with them.  A pair converges once
    its step is at most ``tol``, and fails for good once ``D'`` is at most
    ``floor`` or after ``_NEWTON_STEPS`` steps.  Finished pairs leave the
    work arrays once they are half of them.  Returns the roots and which
    pairs converged.
    """
    lam = lam.copy()
    converged = np.zeros(lam.size, dtype=bool)
    live, at, failed = np.arange(lam.size), lam, np.zeros(lam.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        f, df = _cycle_polynomial(d, e2, at)
        failed |= ~(df > floor)
        step = np.where(failed | (f <= level), 0.0, (f - level) / df)
        at = at - step
        moving = step > tol
        lam[live], converged[live] = at, ~(failed | moving)
        if 2 * np.count_nonzero(moving) <= moving.size:
            live, d, e2, level, at, tol, floor, failed = (
                x[..., moving] for x in (live, d, e2, level, at, tol, floor, failed)
            )
            if not live.size:
                break
    return lam, converged


def _cut_minors(shift, e2) -> np.ndarray:
    """Principal minors of ``lam - H`` with vertex m deleted, row m: the
    continuant of the path ``m+1, ..., p-1, 0, ..., m-1``.  Its two pieces
    are a suffix and a prefix of ``0..p-1``, joined through the wrap edge
    ``e2[p-1]``, so all p minors cost O(p)."""

    def continuants(s, w, rows):  # row j: K of the first j vertices of s
        k = [np.ones_like(shift[0]), s[0]]
        for j in range(1, len(s)):
            k.append(s[j] * k[j] - w[j - 1] * k[j - 1])
        return np.array(k[:rows])

    p, zero = shift.shape[0], np.zeros_like(shift[:1])
    head = continuants(shift, e2, p)  # K_{0..m-1}
    head_inner = np.concatenate([zero, continuants(shift[1:], e2[1:], p - 1)])  # K_{1..m-1}
    tail = continuants(shift[::-1], e2[: p - 1][::-1], p)[::-1]  # K_{m+1..p-1}
    tail_inner = np.concatenate(  # K_{m+1..p-2}
        [continuants(shift[: p - 1][::-1], e2[: p - 2][::-1], p - 1)[::-1], zero]
    )
    return tail * head - e2[p - 1] * tail_inner * head_inner


def _symbol_chunk(spec: PeriodSpec, per_theta, t, twist):
    """Touch points of the symbols at a chunk of (theta, phi) pairs.

    ``per_theta`` holds, along its last axis, the scaled diagonal ``d`` and
    squared off-diagonal moduli ``e2`` of each Hermitian part H, its scaled
    edges ``g[j] = H[j, j+1 mod p]`` before the twist ``e^{i phi}`` of the
    wrap edge, their product ``Pi``, and the Newton start, tolerance and
    floor; ``t`` picks each pair's theta.  Returns the touch points and
    which pairs are certified: Newton converged with ``D'`` above the
    floor, so the top eigenvalue is simple, and the touch point is finite.
    """
    p = spec.p
    d, e2, g, pi, start, tol, floor = (x[..., t] for x in per_theta)
    g[-1] *= twist
    lam, certified = _newton_top(d, e2, 2 * (twist * pi).real, start, tol, floor)
    # Cut the cycle where |x_m| is largest, set x_m = 1 and solve the path
    # of the other rows of (lam - H) x = 0, in the frame rotated to m = 0.
    shift = lam - d
    cut = _cut_minors(shift, e2).argmax(axis=0)
    rot = (np.arange(p)[:, None] + cut) % p
    shift, e2, g = (np.take_along_axis(x, rot, axis=0) for x in (shift, e2, g))
    rhs = np.zeros((p - 1, lam.size), dtype=complex)
    rhs[0] += np.conj(g[0])
    rhs[-1] += g[-1]
    pivot = np.empty((p - 1, lam.size))
    pivot[0] = shift[1]
    for i in range(1, p - 1):
        pivot[i] = shift[i + 1] - e2[i] / pivot[i - 1]
        rhs[i] += np.conj(g[i]) / pivot[i - 1] * rhs[i - 1]
    x = np.ones((p, lam.size), dtype=complex)
    x[-1] = rhs[-1] / pivot[-1]
    for i in range(p - 3, -1, -1):
        x[i + 1] = (rhs[i] + g[i + 1] * x[i + 2]) / pivot[i]
    x = np.take_along_axis(x, (np.arange(p)[:, None] - cut) % p, axis=0)
    # Rayleigh quotient x* S x / x* x from the cycle's entries
    # S[j, j+1] = c_j and S[j+1, j] = a_{j+1}, twisted on the wrap edge.
    step = x[:-1].conj() * x[1:]
    wrap = x[-1].conj() * x[0]
    weight = x.real**2 + x.imag**2
    z = (
        spec.b @ weight
        + spec.c[:-1] @ step
        + spec.a[1:] @ step.conj()
        + spec.c[-1] * twist * wrap
        + spec.a[0] * np.conj(twist * wrap)
    ) / weight.sum(axis=0)
    return z, certified & np.isfinite(z)


def _symbol_points(spec: PeriodSpec, cfg: SweepConfig) -> np.ndarray:
    """:func:`boundary_points` of every symbol on the phi grid, all together.

    The Hermitian part H of ``e^{-i theta} S(phi)`` is a periodic Jacobi
    matrix, so ``det(lam - H) = D_theta(lam) - 2 Re(e^{i phi} Pi_theta)``
    with ``Pi_theta`` the product of its edges (Teschl, *Jacobi Operators
    and Completely Integrable Nonlinear Lattices*, ch. 7).  Each (theta,
    phi) pair takes O(p) vectorised steps: Newton for the top eigenvalue
    from the Gershgorin bound, a cut of the cycle for the eigenvector, and
    its Rayleigh quotient as the touch point.  Pairs whose top eigenvalue
    is not certified simple go through the dense code of
    :func:`boundary_points`, flat-edge ends included.  The top points come
    phi-major, one per pair, then the flat-edge ends.
    """
    p, num_theta = spec.p, cfg.num_theta
    thetas = _angles(num_theta)
    phis = phi_grid(cfg.num_phi)
    d, e, beta, exponent = _scaled_tridiagonals(spec, thetas)
    e2 = e * e
    g = np.ldexp(beta.real.T, -exponent) + 1j * np.ldexp(beta.imag.T, -exponent)
    pi = g.prod(axis=0)
    rows = e + np.roll(e, 1, axis=0)
    radius = (np.abs(d) + rows).max(axis=0)
    tol = 4 * np.finfo(float).eps * radius
    # Certificate that lam_1 is simple: D'(lam_1) = prod_{j>=2} (lam_1 - lam_j)
    # <= (lam_1 - lam_2) (2R)^(p-2), and the degeneracy gap at lam_1 is at
    # most the one at R >= |lam_1|.  Near lam_1, D - level carries a rounding
    # error of up to `rounding` (the continuants taken with absolute values
    # are at most ((1 + sqrt 2) R)^p), so a double root can look simple with
    # a slope up to 2 sqrt(rounding (2R)^(p-2)); the floor stays well above.
    width = (2 * radius) ** (p - 2)
    gap = np.ldexp(_gap_tol(np.ldexp(radius, exponent)), -exponent)
    rounding = 4 * (p + 1) * np.finfo(float).eps * (2.5 * radius) ** p
    floor = np.maximum(_GAP_SAFETY * gap * width, 8 * np.sqrt(rounding * width))
    per_theta = (d, e2, g, pi, (d + rows).max(axis=0), tol, floor)
    out = np.empty(num_theta * cfg.num_phi, dtype=complex)
    extra = []
    for lo in range(0, out.size, _SYMBOL_CHUNK):
        pairs = np.arange(lo, min(lo + _SYMBOL_CHUNK, out.size))
        t, twist = pairs % num_theta, np.exp(1j * phis[pairs // num_theta])
        with np.errstate(all="ignore"):
            out[pairs], certified = _symbol_chunk(spec, per_theta, t, twist)
        dense = pairs[~certified]
        for group in np.split(dense, np.flatnonzero(np.diff(dense // num_theta)) + 1):
            if group.size:
                symbol = build_symbol(spec, phis[group[0] // num_theta])
                points = _dense_touch_points(symbol, np.exp(-1j * thetas[group % num_theta]))
                out[group] = points[: group.size]
                extra.append(points[group.size :])
    if extra:
        out = np.concatenate([out, *extra])
    return _require_finite(out, "touch point")


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

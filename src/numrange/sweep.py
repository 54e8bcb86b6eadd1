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
the same for every twist phi up to a constant, so the support of their
union's range is attained at a twist known in closed form: the union
sweep solves one p-by-p symbol per direction, on a grid refined where that
twist turns fast.  Where an edge vanishes, the ends of the union's flat
edge sit at closed-form twists too.  General matrices, truncations at
(near-)degenerate angles and symbols go through dense LAPACK solves in
bounded batches.
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
    """Grid sizes: ``num_theta`` support angles, ``num_phi`` twist steps.

    ``num_phi`` is the twist resolution of symbol-union hulls, and the twist
    grid they sweep where two or more edges vanish.  They take one symbol
    per direction, at its maximising twist (two at a direction where one
    edge vanishes: the ends of the union's flat edge), and refine the
    ``num_theta`` grid until that twist moves by at most one of ``num_phi``
    steps between neighbouring directions.  Other sweeps ignore ``num_phi``.
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
# Bytes of Hermitian parts the dense sweep hands to one batched ``eigh``; the
# directions go in chunks of this size, so memory stays bounded for any
# number of angles.
_DENSE_BATCH_BYTES = 1 << 22


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
    """Support touch points from dense ``eigh``: of each matrix of the stack
    ``a`` in the direction of its entry of ``phase``.  The top-eigenvector
    Rayleigh quotients come in that order, then the flat-edge ends of every
    (near-)degenerate direction.  The directions go to ``eigh`` in chunks
    of ``_DENSE_BATCH_BYTES``; it solves each matrix on its own, so the
    chunks change no bit."""
    n = a.shape[-1]
    chunk = max(1, _DENSE_BATCH_BYTES // (16 * n * n))
    tops, ends = [np.empty(0, dtype=complex)], []
    for lo in range(0, phase.size, chunk):
        m, ph = a[lo : lo + chunk], phase[lo : lo + chunk]
        values, vecs = eigh(_hermitian_parts(m, ph))
        top = vecs[:, :, -1]
        tops.append(np.einsum("ti,tij,tj->t", top.conj(), m, top))
        if n > 1:
            flat = values[:, -1] - values[:, -2] <= _gap_tol(values[:, -1])
            ends += [_flat_edge_ends(m[t], ph[t], values[t], vecs[t]) for t in np.flatnonzero(flat)]
    return np.concatenate(tops + ends)


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
    phase = np.exp(-1j * phi_grid(cfg.num_theta))
    stack = np.broadcast_to(a, (phase.size, *a.shape))
    return _require_finite(_dense_touch_points(stack, phase), "touch point")


def range_boundary(a, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Inscribed convex polygon approximating the numerical range of ``a``."""
    return convex_hull(boundary_points(a, cfg))


def selfadjoint_interval(spec: PeriodSpec) -> tuple[float, float]:
    """Endpoints of the closure of W(T) for a self-adjoint operator: minus the
    support at theta = pi and the support at theta = 0, each the top
    eigenvalue of one symbol, at its maximising twist (:func:`_twist_angles`)."""
    if not spec.is_selfadjoint():
        raise NotSelfAdjointError("spec is not self-adjoint: need real b and c[j] = conj(a[j+1])")
    thetas = np.array([0.0, np.pi])
    symbols = build_symbol(spec, _twist_angles(spec, thetas)[0])
    top = np.linalg.eigvalsh(_hermitian_parts(symbols, np.exp(-1j * thetas)))[:, -1]
    return float(-top[1]), float(top[0])


def symbol_union_hull(spec: PeriodSpec, cfg: SweepConfig = SweepConfig()) -> RangePolygon:
    """Convex hull of touch points of the union of symbol numerical ranges
    over all twists phi (see :class:`SweepConfig`)."""
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
    thetas = phi_grid(cfg.num_theta)
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


def _twist_angles(spec: PeriodSpec, thetas):
    """The maximising twist ``phi*`` of each direction, and which of its edges vanish.

    The Hermitian part H of ``e^{-i theta} S(phi)`` is a periodic Jacobi
    matrix: ``det(lam - H) = D_theta(lam) - 2 Re(e^{i phi} Pi_theta)``, with
    ``Pi_theta`` the product of its edges (Teschl, *Jacobi Operators and
    Completely Integrable Nonlinear Lattices*, ch. 7).  Its top eigenvalue,
    the largest root, grows with the right-hand side, so it is largest at
    ``phi* = -arg Pi_theta``.  Where edges vanish to within the rounding of
    their entries (a split direction) it does not depend on phi; there the
    returned twist sums the arguments of the other edges only.
    """
    beta = _scaled_tridiagonals(spec, thetas)[2]
    rounding = 4 * np.finfo(float).eps * (np.abs(spec.c) + np.abs(np.roll(spec.a, -1)))
    vanishing = np.abs(beta) <= rounding
    return -np.where(vanishing, 0.0, np.angle(beta)).sum(axis=1), vanishing


def _union_directions(spec: PeriodSpec, cfg: SweepConfig) -> np.ndarray:
    """Directions of the union sweep: each interval of the ``num_theta`` grid
    cut into as many equal parts as the maximising twist turns by ``num_phi``
    grid steps across it, the twist taken as 0 at split directions."""
    thetas = phi_grid(cfg.num_theta)
    phi, vanishing = _twist_angles(spec, thetas)
    phi[vanishing.any(axis=1)] = 0.0
    turn = np.abs(np.angle(np.exp(1j * (np.roll(phi, -1) - phi))))
    # the slack keeps a turn of exactly one step (word 01) at one part
    parts = np.maximum(1, np.ceil(cfg.num_phi * turn / (2 * np.pi) - 1e-9)).astype(int)
    step = 2 * np.pi / cfg.num_theta
    return np.concatenate([t + step * np.arange(m) / m for t, m in zip(thetas, parts)])


def _union_twists(spec: PeriodSpec, thetas, num_phi: int):
    """The (direction, twist) pairs whose symbols the union sweep solves.

    - No vanishing edge: the maximising twist.
    - One vanishing edge j: ``H(theta, phi) = U H(theta, 0) U*`` for the
      diagonal U that is 1 up to row j and ``e^{i phi}`` after it, so the
      top eigenvector at phi is ``U y``, y the one at phi = 0, and along the
      support line the touch point of S(phi) is
      ``const + 2 Im(P e^{i phi})`` with ``P = e^{-i theta} c_j conj(y_j) y_{j+1}``.
      The Perron gauge of y fixes ``arg P = arg c_j - theta + (the other
      edges' arguments)``, so the two twists ``-arg P +- pi/2`` give the
      exact ends of the union's flat edge.
    - Several vanishing edges: the ``num_phi`` grid.
    - An edge the operator lacks (``c_j = a_{j+1} = 0``): U gauges S(phi)
      itself to S(0), so every direction takes the one twist 0.
    """
    if ((spec.c == 0) & (np.roll(spec.a, -1) == 0)).any():
        return thetas, np.zeros_like(thetas)
    phi, vanishing = _twist_angles(spec, thetas)
    count = vanishing.sum(axis=1)
    one, many = count == 1, count >= 2
    ends = phi[one] + thetas[one] - np.angle(spec.c[vanishing[one].argmax(axis=1)])
    ends = np.add.outer(ends, [-np.pi / 2, np.pi / 2]).ravel()
    return (
        np.concatenate([thetas[count == 0], np.repeat(thetas[one], 2), np.repeat(thetas[many], num_phi)]),
        np.concatenate([phi[count == 0], ends, np.tile(phi_grid(num_phi), many.sum())]),
    )


def _symbol_points(spec: PeriodSpec, cfg: SweepConfig) -> np.ndarray:
    """Support touch points of the union of symbol ranges: the symbols of
    :func:`_union_twists` at the directions of :func:`_union_directions`,
    in one call of the dense code of :func:`boundary_points`.  Off split
    directions a diagonal gauge makes each Hermitian part a real cycle with
    positive edges, whose top eigenvalue is simple by Perron-Frobenius; the
    degeneracy test stays as a safety net.
    """
    thetas, phi = _union_twists(spec, _union_directions(spec, cfg), cfg.num_phi)
    return _require_finite(
        _dense_touch_points(build_symbol(spec, phi), np.exp(-1j * thetas)), "touch point"
    )


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

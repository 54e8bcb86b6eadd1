"""Per-point reference geometry, reference eigenvalues, the dense
conjecture matrices, the polygon CSV reader, the Fourier vectors, and the
period-01 proof ingredients (the symbol ellipses' boundary points and
tangency parameters, the stadium's tangent lines, the special vector) for
the tests."""

import math
from fractions import Fraction

import numpy as np

from numrange import sweep
from numrange.ellipse import symbol_ellipse
from numrange.geometry import RangePolygon, _cross
from numrange.linalg import as_matrix
from numrange.operators import PeriodSpec, build_truncation, conjecture_specs

_ANGLE_TOL = 1e-12


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


def mp_touch_point(spec, k: int, theta: float, top: float, dps: int = 40) -> complex:
    """Touch point of W(T_k) in the direction theta to ``dps`` digits: five
    steps of inverse iteration in mpmath on the Hermitian part of ``e^{-i
    theta} T_k`` (tridiagonal, solved by the Thomas algorithm) from the
    all-ones vector, at a shift just above ``top``, a double-precision top
    eigenvalue, and the quotient of T_k at the vector.  Each step shrinks
    the other eigenvectors by (1e-16 / gap), so the gap must be well above
    1e-8."""
    import mpmath as mp

    with mp.workdps(dps):
        turn, p = mp.expj(-mp.mpf(float(theta))), spec.p
        a, b, c = ([mp.mpc(complex(v[j % p])) for j in range(k + 1)] for v in (spec.a, spec.b, spec.c))
        diag = [mp.re(turn * b[j]) for j in range(k)]
        up = [(turn * c[j] + mp.conj(turn * a[j + 1])) / 2 for j in range(k - 1)]
        down = [mp.conj(v) for v in up]
        # just above the top, by an irrational amount so no pivot vanishes
        sigma, x = mp.mpf(float(top)) + mp.pi * mp.mpf(10) ** -20, [mp.mpf(1)] * k
        for _ in range(5):
            # (H - sigma) y = x, forward elimination and back substitution
            ratio, rhs, piv = [mp.mpf(0)] * k, [mp.mpf(0)] * k, diag[0] - sigma
            for j in range(k):
                if j:
                    piv = diag[j] - sigma - down[j - 1] * ratio[j - 1]
                ratio[j] = up[j] / piv if j < k - 1 else 0
                rhs[j] = (x[j] - (down[j - 1] * rhs[j - 1] if j else 0)) / piv
            for j in range(k - 2, -1, -1):
                rhs[j] -= ratio[j] * rhs[j + 1]
            norm = mp.sqrt(mp.fsum(abs(v) ** 2 for v in rhs))
            x = [v / norm for v in rhs]
        tx = [b[j] * x[j] + (c[j] * x[j + 1] if j < k - 1 else 0) + (a[j] * x[j - 1] if j else 0) for j in range(k)]
        return complex(mp.fsum(mp.conj(u) * v for u, v in zip(x, tx)))


def _cot_ratio_series(terms: int = 24) -> np.ndarray:
    """Coefficients ``2^(2m) |B_2m| / (2m)!``, m = 1 .. terms, of ``h(x) =
    (1 - x cot x) / x^2`` in x^2, highest first, from the exact Bernoulli
    numbers of the Akiyama-Tanigawa algorithm: after its pass m, ``a[0]``
    is B_m.  The series converges for |x| < pi; at |x| < 1 the terms fall
    by pi^2 each, so 24 reach the rounding."""
    a, bernoulli = [], []
    for m in range(2 * terms + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        bernoulli.append(a[0])
    return np.array([float(4**m * abs(bernoulli[2 * m]) / math.factorial(2 * m)) for m in range(terms, 0, -1)])


_COT_RATIO_SERIES = _cot_ratio_series()


def complex_floquet_step(c1, c0, tau, root, n: int) -> np.ndarray:
    """The Newton step of :func:`sweep._floquet_step` in complex arithmetic:
    ``phi = arccos |tau|``, imaginary above 1, and the same formulas at
    that phi, the real parts taken at the end.  h(x) = (1 - x cot x) / x^2
    takes its own series below |x| = 1, where the difference cancels."""
    sign, phi = np.where(tau[0] < 0, -1.0, 1.0), np.arccos(np.abs(tau[0]) + 0j)
    h = lambda x: np.where(np.abs(x) < 1, np.polyval(_COT_RATIO_SERIES, x * x), (1 - x / np.tan(x)) / (x * x))
    sinc = sign * tau[1] * np.where(phi == 0, 1.0, phi / np.sin(phi))
    slope = lambda j: (sinc * ((j + 1) ** 2 * h((j + 1) * phi) - h(phi))).real
    ratio = np.where(phi == 0, (n - 1) / n, np.cos(phi) - np.sin(phi) / np.tan(n * phi)).real
    g = root * sign * ratio
    return (c1[0] - g * c0[0]) / (slope(n - 1) * c1[0] + c1[1] - g * (slope(n - 2) * c0[0] + c0[1]))


def polygon_from_csv(path) -> RangePolygon:
    """Read a polygon written by :func:`numrange.geometry.polygon_to_csv`.

    Raises ``ValueError`` unless the vertices are distinct and, from three
    on, counterclockwise convex: every turn positive, winding once.  That is
    the contract of :class:`RangePolygon`, which
    :func:`numrange.geometry.excess` relies on.
    """
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
    polygon = RangePolygon(np.array(vertices, dtype=complex))
    v = polygon.vertices
    if (np.diff(np.sort(v)) == 0).any():
        raise ValueError("polygon vertices must be distinct")
    if v.size > 2:
        edges = np.roll(v, -1) - v
        turns = _cross(np.roll(v, 1), v, np.roll(v, -1))
        if not (turns > 0).all() or np.angle(np.roll(edges, -1) / edges).sum() > 3 * np.pi:
            raise ValueError("polygon vertices must be counterclockwise convex")
    return polygon


def fourier_vector(p: int, s: int, j: int, k: int) -> np.ndarray:
    """Unit vector with ``rho_k^t / sqrt(s)`` at slot j of block t.

    ``rho_k = exp(2 pi i k / s)``; blocks have length p and t runs over the
    s periods.  These vectors form an orthonormal basis of C^(s*p).
    """
    v = np.zeros(s * p, dtype=complex)
    v[j::p] = np.exp(2j * np.pi * k / s) ** np.arange(s)
    return v / np.sqrt(s)


def symbol_ellipse_point(phi: float, t) -> complex | np.ndarray:
    """Boundary point(s) ``e^{i rot} (|w|/2 e^{-i t} + 1/2 e^{i t})`` of
    :func:`numrange.ellipse.symbol_ellipse` at ``phi``.

    ``t`` may be a scalar or an array of parameter angles.
    """
    params = symbol_ellipse(phi)
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * params.rotation) * (
        0.5 * abs(params.w) * np.exp(-1j * t) + 0.5 * np.exp(1j * t)
    )
    return complex(z) if z.ndim == 0 else z


def tangency_parameter(phi: float, psi) -> float | np.ndarray:
    """Parameter angle maximizing ``Re(symbol_ellipse_point(phi, t) e^{-i psi})``.

    Writing the support profile as ``A cos(t - B)``, this returns B: a float
    for a scalar ``psi``, an array for an array of them.
    """
    params = symbol_ellipse(phi)
    delta = params.rotation - np.asarray(psi, dtype=float)
    b = np.arctan2((abs(params.w) - 1.0) * np.sin(delta), (abs(params.w) + 1.0) * np.cos(delta))
    return float(b) if b.ndim == 0 else b


def tangent_line_support(psi: float) -> float:
    """Support value ``1/2 + cos(psi)`` of the line tangent to the circle
    ``|z - 1| = 1/2`` at ``1 + e^{i psi}/2``, for psi in [0, pi/2] or
    [3pi/2, 2pi)."""
    return 0.5 + float(np.cos(psi))


def check_semiplane_containment(
    phi: float, psi: float, num_t: int = 4096
) -> tuple[bool, complex | None]:
    """Check the twist-angle ellipse against the closed half-plane of ``tangent_line_support``.

    Returns ``(contained, tangent_point)``.  Containment is tested on a
    ``num_t`` grid of parameter angles with a 1e-9 slack.  The tangent point
    is the closed-form contact point in the equality cases: ``1 + e^{i psi}/2``
    when ``phi == psi`` away from the vertical-tangent angles, and
    ``+-(sin(phi) + i/2)`` when ``psi`` is ``pi/2`` or ``3 pi/2``.
    """
    t = 2.0 * np.pi * np.arange(num_t) / num_t
    support = float((symbol_ellipse_point(phi, t) * np.exp(-1j * psi)).real.max())
    contained = support <= tangent_line_support(psi) + 1e-9

    tangent: complex | None
    if abs(psi - np.pi / 2) <= _ANGLE_TOL:
        tangent = complex(np.sin(phi), 0.5)
    elif abs(psi - 3 * np.pi / 2) <= _ANGLE_TOL:
        tangent = complex(-np.sin(phi), -0.5)
    elif abs((phi - psi + np.pi) % (2 * np.pi) - np.pi) <= _ANGLE_TOL:
        tangent = 1.0 + 0.5 * complex(np.exp(1j * psi))
    else:
        tangent = None
    return contained, tangent


def special_vector_value(lam: complex) -> complex:
    """Rayleigh quotient of the period-01 operator at the vector
    ``(1, 1, lam, lam, lam^2, lam^2, ...)``, truncated once the tail is
    below 1e-13.  Equals ``1 + lam/2`` for ``|lam| < 1``."""
    lam = complex(lam)
    mod = abs(lam)
    if mod >= 1.0:
        raise ValueError(f"need |lam| < 1, got {mod}")
    if mod == 0.0:
        periods = 1
    else:
        periods = max(1, int(np.ceil(np.log(1e-13 * (1.0 - mod * mod)) / np.log(mod * mod))))
    x = np.repeat(lam ** np.arange(periods), 2)
    u = x / np.linalg.norm(x)
    t = build_truncation(PeriodSpec.from_word("01"), 2 * periods)
    return complex(np.vdot(u, t @ u))

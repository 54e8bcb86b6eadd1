"""Reference support functions and output checks, computed without numrange.

The support function of a compact convex set K is
``h_K(t) = max Re(z e^{-it})`` over z in K.  Every polygon numrange emits is
inscribed in the set it approximates, so its support function may fall
short of the true one but must never exceed it.  This module brackets the
true support function between a ``lower`` and an ``upper`` curve on the
angles ``pi*j/num_theta`` (the sweep angles at even j, the midpoints
between them at odd j) using only numpy and scipy:

- word ``01``: the closed form ``|cos t| + 1/2`` of the stadium;
- a k-by-k truncation: the top eigenvalue of the Hermitian part of
  ``e^{-it} T_k``, which a diagonal phase similarity turns into a real
  symmetric tridiagonal matrix (``scipy.linalg.eigh_tridiagonal``);
- the symbol-union hull of any other spec: the maximum over ``phi`` of the
  top eigenvalue of the Hermitian part of the rotated symbol, searched on
  a ``phi`` grid refined until no cell can hold a larger value.  ``lower``
  is the best value found, ``upper`` adds the tolerance the search stops at.

The error a uniform ``num_phi`` grid adds to the program's union hulls is
bounded by the Lipschitz term in ``phi`` (``L * dphi / 2``), which enters
the a-priori bound on the support gap.

Specs are plain ``(a, b, c)`` tuples of complex arrays with the numrange
convention: row j carries ``a[j mod p]`` on the subdiagonal, ``b[j mod p]``
on the diagonal and ``c[j mod p]`` on the superdiagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Slack for floating-point rounding when a polygon is compared with an upper
# bound, relative to the polygon's size.  Rayleigh quotients and eigenvalues
# are accurate to a few ulps times the matrix norm, far below this.
ROUNDING = 1e-10
# The phi search starts from COARSE_PHI cells and stops once no cell can
# hold a value more than PHI_TOL above the best one found.
COARSE_PHI = 32
PHI_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    """``lower <= h_K <= upper`` on ``thetas``; ``phi_term`` bounds the error
    a ``num_phi`` grid adds to a symbol-union hull (0 for truncations)."""

    thetas: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    num_theta: int
    phi_term: float = 0.0


def word_spec(word: str):
    a = np.array([float(ch) for ch in word], dtype=complex)
    return a, np.zeros_like(a), np.ones_like(a)


def spec_text(spec) -> str:
    """The spec in the ``p=..;a=..;b=..;c=..`` form ``numrange --spec`` reads."""
    a, b, c = spec
    fmt = lambda arr: ",".join(repr(complex(z)) for z in arr)
    return f"p={len(a)};a={fmt(a)};b={fmt(b)};c={fmt(c)}"


def check_angles(num_theta: int) -> np.ndarray:
    return np.pi * np.arange(2 * num_theta) / num_theta


def support(vertices, thetas) -> np.ndarray:
    """Support function of the polygon with the given vertices."""
    z = np.asarray(vertices, dtype=complex)
    return (np.cos(thetas)[:, None] * z.real + np.sin(thetas)[:, None] * z.imag).max(axis=1)


def stadium_reference(num_theta: int, num_phi: int) -> Reference:
    """Word 01: the union hull is the stadium, ``h(t) = |cos t| + 1/2``."""
    t = check_angles(num_theta)
    h = np.abs(np.cos(t)) + 0.5
    a, _, c = word_spec("01")
    return Reference(t, h, h, num_theta, _phi_term((a, None, c), t, num_phi))


def truncation_reference(spec, k: int, num_theta: int) -> Reference:
    """Support of W(T_k) from the phase-similar real tridiagonal."""
    a, b, c = spec
    p = len(a)
    j = np.arange(k)
    t = check_angles(num_theta)
    h = np.empty(t.size)
    for i, theta in enumerate(t):
        w = np.exp(-1j * theta)
        diag = (w * b[j % p]).real
        off = np.abs(w * c[j[:-1] % p] + np.conj(w * a[j[1:] % p])) / 2
        h[i] = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(k - 1, k - 1)
        )[0]
    return Reference(t, h, h, num_theta)


def _top_eigenvalue(spec, thetas, phis, radius=1.0) -> np.ndarray:
    """Top eigenvalue of the Hermitian part of ``e^{-i theta} S``, where S
    has the symbol's wrap entries scaled by ``radius * e^{+-i phi}``.

    Off the corners this is the truncation pattern; the wrap entries add
    ``radius e^{-i phi} beta(theta)`` at (0, p-1) and its conjugate at
    (p-1, 0), which for p = 2 lands on the off-diagonal itself.  At
    ``radius = 1`` this is the symbol at twist angle phi.
    """
    a, b, c = spec
    p = len(a)
    w = np.exp(-1j * thetas)
    h = np.zeros((thetas.size, p, p), dtype=complex)
    idx = np.arange(p)
    h[:, idx, idx] = (w[:, None] * b).real
    off = (w[:, None] * c[:-1] + np.conj(w[:, None] * a[1:])) / 2
    h[:, idx[:-1], idx[1:]] = off
    h[:, idx[1:], idx[:-1]] = off.conj()
    corner = radius * np.exp(-1j * phis) * _beta(spec, thetas)
    h[:, 0, p - 1] += corner
    h[:, p - 1, 0] += corner.conj()
    return np.linalg.eigvalsh(h)[:, -1]


def _beta(spec, thetas) -> np.ndarray:
    a, _, c = spec
    w = np.exp(-1j * thetas)
    return (w * a[0] + np.conj(w * c[-1])) / 2


def _phi_term(spec, thetas, num_phi: int) -> float:
    """Largest error a uniform ``num_phi`` grid can add to a support value.

    This is the Lipschitz term ``L * dphi / 2``.  The wrap entries are the
    only part of the symbol that depends on phi, and they move by at most
    ``|beta(theta)| * |dphi|`` in spectral norm.  So by Weyl's inequality
    the top eigenvalue is Lipschitz in phi with
    ``L = |beta(theta)| <= (|a_0| + |c_{p-1}|) / 2``.
    """
    return float(np.abs(_beta(spec, thetas)).max()) * np.pi / num_phi


def symbol_hull_reference(spec, num_theta: int, num_phi: int) -> Reference:
    """Support of the union of symbol ranges: ``max_phi lambda_max(theta, phi)``.

    Branch and bound over phi cells, starting from ``COARSE_PHI`` cells and
    halving every cell that may still hold a value above ``best + PHI_TOL``.
    The cell bound uses convexity: the wrap entries are affine in
    ``(cos phi, sin phi)`` and lambda_max is convex in the matrix, so on
    the arc from phi0 to phi1 lambda_max stays below its largest value at
    the corners of the triangle around the arc: the two ends and the point
    where their tangents meet (``radius = 1 / cos(width / 2)``).  That
    bound is within ``L * width**2 / 8`` of the arc's maximum, against
    ``L * width / 2`` for the Lipschitz bound alone, so the search stops
    after about ten halvings instead of millions of cells.
    """
    t = check_angles(num_theta)
    grid = 2 * np.pi * np.arange(COARSE_PHI + 1) / COARSE_PHI
    f = _top_eigenvalue(spec, np.repeat(t, COARSE_PHI + 1), np.tile(grid, t.size))
    f = f.reshape(t.size, COARSE_PHI + 1)
    best = f.max(axis=1)

    cell = np.repeat(np.arange(t.size), COARSE_PHI)
    lo = np.tile(grid[:-1], t.size)
    f0, f1 = f[:, :-1].ravel(), f[:, 1:].ravel()
    width = 2 * np.pi / COARSE_PHI
    for _ in range(30):
        apex = _top_eigenvalue(spec, t[cell], lo + width / 2, 1.0 / np.cos(width / 2))
        bound = np.maximum(np.maximum(f0, f1), apex)
        keep = bound > best[cell] + PHI_TOL
        cell, lo, f0, f1 = cell[keep], lo[keep], f0[keep], f1[keep]
        if cell.size == 0:
            return Reference(t, best, best + PHI_TOL, num_theta, _phi_term(spec, t, num_phi))
        width /= 2
        mid = lo + width
        fm = _top_eigenvalue(spec, t[cell], mid)
        np.maximum.at(best, cell, fm)
        cell = np.concatenate([cell, cell])
        lo = np.concatenate([lo, mid])
        f0, f1 = np.concatenate([f0, fm]), np.concatenate([fm, f1])
    raise RuntimeError("phi refinement did not converge")


def check_polygon(vertices, ref: Reference) -> tuple[float, list[str]]:
    """Support gap of a polygon and the problems found with it.

    The gap is the largest shortfall of the polygon's support function
    below ``ref.lower`` at the midpoints between sweep angles.  Problems:
    non-finite vertices; support above ``ref.upper`` by more than rounding
    (the polygon is not inscribed); a gap above an a-priori bound that
    holds for any polygon through support points at every sweep angle.

    That bound: at a midpoint, the set lies in the wedge of the support
    lines at the two neighbouring sweep angles, whose apex q sees the touch
    points p1, p2 under the angle ``pi - dtheta``.  The nearer of them is
    at most ``|p1 - p2| / (2 cos(dtheta/2))`` from q, and q lies
    ``sin(dtheta/2)`` times that beyond it, so the gap is at most
    ``D/2 * tan(dtheta/2)`` with D the diameter.  When the touch points
    fall short of the support lines by up to ``phi_term`` (a union hull on
    a phi grid), the apex moves out by ``phi_term / cos(dtheta/2)``.
    """
    z = np.asarray(vertices, dtype=complex)
    if z.size == 0 or not np.isfinite(z).all():
        return float("inf"), ["vertices missing or not finite"]
    problems = []
    h = support(z, ref.thetas)
    scale = 1.0 + float(np.abs(z).max())
    excess = float((h - ref.upper).max())
    if excess > ROUNDING * scale:
        problems.append(f"support exceeds the reference by {excess:.3e}")
    gap = float((ref.lower - h)[1::2].max())
    n = ref.num_theta
    diameter = float((ref.upper[:n] + ref.upper[n:]).max())
    limit = diameter / 2 * np.tan(np.pi / n) + ref.phi_term / np.cos(np.pi / n)
    if gap > limit:
        problems.append(f"support gap {gap:.3e} above the a-priori bound {limit:.3e}")
    return gap, problems


def read_csv_polygon(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "re,im":
            raise ValueError(f"{path}: unexpected CSV header")
        rows = [line.split(",") for line in fh if line.strip()]
    return np.array([complex(float(x), float(y)) for x, y in rows], dtype=complex)


def same_bytes(path_a, path_b) -> bool:
    """Determinism check: two reports for the same seed are byte-identical."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def check_report(text: str) -> list[str]:
    """Problems with a verify report (JSONL): every record must pass, its
    ``passed`` flag must equal ``metric <= tolerance``, and the free Jacobi
    interval check must match its closed form."""
    problems = []
    records = [json.loads(line) for line in text.splitlines()]
    if not records:
        return ["empty report"]
    for rec in records:
        if rec["passed"] != (rec["metric"] <= rec["tolerance"]):
            problems.append(f"{rec['name']}: passed flag disagrees with metric <= tolerance")
        if not rec["passed"]:
            problems.append(f"{rec['name']}: metric {rec['metric']!r} > tolerance")
        if rec["name"] == "selfadjoint_interval" and _is_free_jacobi(rec["parameters"]):
            problems += _free_jacobi_problems(rec)
    return problems


def _is_free_jacobi(params) -> bool:
    one, zero = ["(1+0j)", "(1+0j)"], ["0j", "0j"]
    return params["a"] == one and params["b"] == zero and params["c"] == one


def _free_jacobi_problems(rec) -> list[str]:
    """All off-diagonals 1: the symbols have eigenvalues ``+-|1 + e^{i phi}|``,
    so the interval is [-2, 2], and the truncation's extreme eigenvalues are
    ``+-2 cos(pi / (k+1))``."""
    k = rec["parameters"]["k_max"]
    lo, hi = rec["parameters"]["interval"]
    expected = 2.0 - 2.0 * np.cos(np.pi / (k + 1))
    problems = []
    if max(abs(lo + 2.0), abs(hi - 2.0)) > 1e-12:
        problems.append(f"free Jacobi interval {lo, hi} is not [-2, 2]")
    if abs(rec["metric"] - expected) > 1e-12:
        problems.append(f"free Jacobi metric {rec['metric']!r}, closed form {expected!r}")
    return problems

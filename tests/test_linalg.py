"""Matrix helpers and the Hermitian eigensolver, against independent oracles."""

import numpy as np
import pytest

from numrange.linalg import NoConvergenceError, as_matrix, eigh
from numrange.sweep import _hermitian_parts

RNG = np.random.default_rng(7)


def random_complex(n: int) -> np.ndarray:
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def random_hermitian(n: int) -> np.ndarray:
    m = random_complex(n)
    return 0.5 * (m + m.conj().T)


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError, match="finite"):
        as_matrix(np.array([[np.inf, 0], [0, 0]]))


# --- the Hermitian parts the sweep hands to eigh -------------------------------


def hermitian_part(a, theta: float) -> np.ndarray:
    """Hermitian part of exp(-i theta) a, one matrix, as the sweep forms it."""
    return _hermitian_parts(a, np.exp(-1j * theta))


def test_hermitian_part_hermitian_input_is_fixed_point():
    h = random_hermitian(3)
    np.testing.assert_allclose(hermitian_part(h, 0.0), h, atol=1e-15)


def test_hermitian_part_shift_matrix():
    shift = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_array_equal(
        hermitian_part(shift, 0.0), np.array([[0, 0.5], [0.5, 0]])
    )


def test_hermitian_part_theta_pi_flips_sign():
    for _ in range(5):
        a = random_complex(4)
        direct = 0.5 * (np.exp(-1j * np.pi) * a + np.conj(np.exp(-1j * np.pi)) * a.conj().T)
        np.testing.assert_allclose(hermitian_part(a, np.pi), direct, atol=1e-15)
        np.testing.assert_allclose(
            hermitian_part(a, np.pi), -hermitian_part(a, 0.0), atol=1e-15
        )


def test_hermitian_part_is_exactly_hermitian():
    for theta in (0.0, 0.3, np.pi / 2, 4.1):
        h = hermitian_part(random_complex(6), theta)
        assert np.array_equal(h, h.conj().T)


# --- eigh -------------------------------------------------------------------


def test_eig_diag_sorted():
    values, _ = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])


def test_eig_two_by_two_exchange():
    values, vectors = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)
    for j, lam in enumerate(values):
        v = vectors[:, j]
        assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(v[1]) - 1 / np.sqrt(2)) < 1e-12
        assert np.linalg.norm(np.array([[0, 1], [1, 0]]) @ v - lam * v) < 1e-12


def test_eig_selfadjoint_symbol_at_zero():
    # all-ones 2-periodic self-adjoint operator: Hermitian symbol [[0,2],[2,0]]
    values, _ = eigh(np.array([[0, 2], [2, 0]], dtype=complex))
    np.testing.assert_allclose(values, [-2.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_eig_invariants_random(n):
    h = random_hermitian(n)
    values, vectors = eigh(h)
    assert np.all(np.diff(values) >= 0)
    norms = np.linalg.norm(vectors, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(n)).max() <= 1e-10
    for j in range(n):
        res = np.linalg.norm(h @ vectors[:, j] - values[j] * vectors[:, j])
        assert res <= 1e-10 * (1 + abs(values[j]))
    recon = vectors @ np.diag(values) @ vectors.conj().T
    assert np.linalg.norm(h - recon) <= 1e-9 * (1 + np.linalg.norm(h))
    assert abs(values.sum() - h.trace().real) <= 1e-10 * (1 + abs(h.trace()))


def extreme_pair(h):
    """Smallest and largest eigenvalue of h with unit eigenvectors: the
    first and last columns of eigh, as the sweeps take them."""
    values, vectors = eigh(h)
    return values[0], vectors[:, 0], values[-1], vectors[:, -1]


def test_extreme_pair_diagonal():
    lo, v_lo, hi, v_hi = extreme_pair(np.diag([-5.0, 7.0]).astype(complex))
    assert (lo, hi) == (-5.0, 7.0)
    assert abs(abs(v_lo[0]) - 1) < 1e-14 and abs(abs(v_hi[1]) - 1) < 1e-14


def test_extreme_pair_zero_matrix():
    lo, v_lo, hi, v_hi = extreme_pair(np.zeros((3, 3), dtype=complex))
    assert lo == hi == 0.0
    assert np.linalg.norm(v_lo) == pytest.approx(1.0)
    assert np.linalg.norm(v_hi) == pytest.approx(1.0)


def test_extreme_pair_matches_full_decomposition():
    # against eigvalsh, and as eigenpairs
    h = random_hermitian(4)
    lo, v_lo, hi, v_hi = extreme_pair(h)
    values = np.linalg.eigvalsh(h)
    assert abs(lo - values[0]) <= 1e-12 and abs(hi - values[-1]) <= 1e-12
    for lam, v in ((lo, v_lo), (hi, v_hi)):
        assert np.linalg.norm(h @ v - lam * v) <= 1e-12 * (1 + np.abs(h).max())


# --- independent oracles -----------------------------------------------------


def sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Eigenvalues of a real symmetric tridiagonal matrix below x."""
    count = 0
    q = 1.0
    for i in range(len(d)):
        off = e[i - 1] ** 2 if i > 0 else 0.0
        q = d[i] - x - (off / q if q != 0.0 else off / 1e-300)
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues by bisection on the Sturm-sequence count."""
    n = len(d)
    radius = np.abs(d).max() + 2 * (np.abs(e).max() if len(e) else 0.0) + 1.0
    out = []
    for k in range(1, n + 1):
        lo, hi = -radius, radius
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if sturm_count(d, e, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def test_eig_matches_sturm_bisection_on_tridiagonal():
    for n in (4, 9, 20):
        d = RNG.standard_normal(n)
        e = RNG.standard_normal(n - 1)
        h = np.diag(d).astype(complex) + np.diag(e, 1) + np.diag(e, -1)
        values, _ = eigh(h)
        np.testing.assert_allclose(values, sturm_eigenvalues(d, e), atol=1e-9)


def jacobi_eig_hermitian(h, tol: float = 1e-14, max_sweeps: int = 60):
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Row-cyclic two-sided unitary 2x2 eliminations; stops once the
    off-diagonal Frobenius mass drops below ``tol * ||h||_F``.  Quadratic
    convergence makes 60 sweeps ample at the dimensions used here.  This is
    an independent reference for LAPACK's ``eigh``; it is O(n^3) per sweep
    in pure Python, so keep dimensions modest.  Returns ascending values
    and the matching unit eigenvectors as columns.
    """
    a = np.array(h, dtype=complex)
    if np.abs(a - a.conj().T).max() > 1e-13 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not Hermitian")
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n <= 1:
        return a.real.diagonal().copy(), v

    target = tol * max(np.linalg.norm(a), np.finfo(float).tiny)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(a.diagonal()))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                # unitary that zeroes a[p,q]: a phase to make the pivot real,
                # then the classic symmetric Schur rotation
                u = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c

                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * u * row_q
                a[q, :] = s * row_p + c * u * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(u) * col_q
                a[:, q] = s * col_p + c * np.conj(u) * col_q

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * np.conj(u) * vec_q
                v[:, q] = s * vec_p + c * np.conj(u) * vec_q
    else:
        off = np.linalg.norm(a - np.diag(a.diagonal()))
        if off > target:
            raise NoConvergenceError(
                f"Jacobi sweep limit ({max_sweeps}) exceeded at dimension {n}"
            )

    values = a.real.diagonal().copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_jacobi_matches_lapack(n):
    h = random_hermitian(n)
    ref_values, _ = eigh(h)
    values, vectors = jacobi_eig_hermitian(h)
    np.testing.assert_allclose(values, ref_values, atol=1e-11 * (1 + np.abs(h).max()))
    recon = vectors @ np.diag(values) @ vectors.conj().T
    assert np.linalg.norm(h - recon) <= 1e-10 * (1 + np.linalg.norm(h))
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(n)).max() <= 1e-12


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        jacobi_eig_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))


def test_jacobi_sweep_budget():
    with pytest.raises(NoConvergenceError):
        jacobi_eig_hermitian(random_hermitian(12), max_sweeps=0)

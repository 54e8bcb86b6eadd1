"""Period specs and the matrices built from them."""

import numpy as np
import pytest

from numrange.checks import random_period_specs
from numrange.operators import (
    PeriodSpec,
    SpecParseError,
    build_block_unitary,
    build_circulant,
    build_symbol,
    build_truncation,
    conjecture_specs,
    lift_eigenvector,
    phi_grid,
)
from oracles import conjecture_pair, fourier_vector

WORD01 = PeriodSpec.from_word("01")


# --- PeriodSpec --------------------------------------------------------------


def test_spec_broadcast_and_period():
    spec = PeriodSpec(a=(0, 1), b=0, c=1)
    assert spec.p == 2
    np.testing.assert_array_equal(spec.b, [0, 0])
    np.testing.assert_array_equal(spec.c, [1, 1])


def test_spec_rejects_short_period_and_bad_lengths():
    with pytest.raises(ValueError, match=">= 2"):
        PeriodSpec(a=[1], b=0, c=1)
    with pytest.raises(ValueError, match="length"):
        PeriodSpec(a=(0, 1), b=(1, 2, 3), c=1)
    with pytest.raises(ValueError, match="finite"):
        PeriodSpec(a=(0, np.inf), b=0, c=1)


def test_parse_word_form():
    spec = PeriodSpec.parse("word=01")
    np.testing.assert_array_equal(spec.a, [0, 1])
    np.testing.assert_array_equal(spec.b, [0, 0])
    np.testing.assert_array_equal(spec.c, [1, 1])


def test_parse_field_form():
    spec = PeriodSpec.parse("p=2;a=0,1;b=0,0;c=1,1")
    np.testing.assert_array_equal(spec.a, [0, 1])
    spec = PeriodSpec.parse("p=3;a=1,-1,1j;b=0;c=2")
    assert spec.p == 3
    assert spec.a[2] == 1j
    np.testing.assert_array_equal(spec.c, [2, 2, 2])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "word=0",
        "word=ab",
        "p=2;a=0,1",
        "p=1;a=0;b=0;c=0",
        "p=2;a=0,1,2;b=0;c=0",
        "p=2;a=zz;b=0;c=0",
        "word=01;p=2",
        "p=x;a=0,1;b=0;c=0",
        # unknown and repeated fields
        "p=2;a=0,1;b=0;c=1;x=5",
        "p=2;a=0,1;b=0;c=1;q=7",
        "p=2;a=0,1;b=0;c=1;c=2",
        "p=2;p=2;a=0,1;b=0;c=1",
        "word=01;word=001",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SpecParseError):
        PeriodSpec.parse(text)


def test_selfadjoint_detection():
    assert PeriodSpec(a=(1, 1), b=0, c=(1, 1)).is_selfadjoint()
    assert PeriodSpec(a=(1j, 2), b=(0.5, 1), c=(2, -1j)).is_selfadjoint()
    assert not WORD01.is_selfadjoint()
    assert not PeriodSpec(a=(1, 1), b=1j, c=(1, 1)).is_selfadjoint()


@pytest.mark.parametrize("scale", [2.0**-500, 1e-13, 2.0**500])
def test_selfadjoint_detection_is_relative(scale):
    # the tolerance scales with the entries: word 01 stays non-self-adjoint
    # however small, and the free Jacobi spec self-adjoint however large
    assert not PeriodSpec(a=(0, scale), b=0, c=scale).is_selfadjoint()
    assert PeriodSpec(a=scale, b=0, c=scale, p=2).is_selfadjoint()
    assert not PeriodSpec(a=scale, b=1e-9j * scale, c=scale, p=2).is_selfadjoint()


# --- truncations and circulants ----------------------------------------------


def test_truncation_word01_examples():
    np.testing.assert_array_equal(build_truncation(WORD01, 1), [[0]])
    np.testing.assert_array_equal(
        build_truncation(WORD01, 3), [[0, 1, 0], [1, 0, 1], [0, 0, 0]]
    )


def test_truncation_index_pattern_oracle():
    spec = PeriodSpec(a=(2, 3, 5), b=(7, 11, 13), c=(17, 19, 23))
    t = build_truncation(spec, 8)
    for i in range(8):
        for j in range(8):
            if i == j:
                expected = spec.b[i % 3]
            elif i == j + 1:
                expected = spec.a[i % 3]
            elif j == i + 1:
                expected = spec.c[i % 3]
            else:
                expected = 0.0
            assert t[i, j] == expected


def test_truncation_diagonal_spec():
    spec = PeriodSpec(a=0, b=(5, 5), c=0)
    np.testing.assert_array_equal(build_truncation(spec, 4), 5 * np.eye(4))
    with pytest.raises(ValueError):
        build_truncation(spec, 0)


def test_circulant_four_cycle():
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    c4 = build_circulant(spec, 2)
    np.testing.assert_array_equal(
        c4, [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    )
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(c4.real)), [-2, 0, 0, 2], atol=1e-14
    )


def test_circulant_constant_diagonal():
    spec = PeriodSpec(a=0, b=3.5, c=0, p=2)
    np.testing.assert_array_equal(build_circulant(spec, 3), 3.5 * np.eye(6))
    with pytest.raises(ValueError):
        build_circulant(spec, 1)


def test_circulant_compression_is_truncation_bit_exact():
    for spec, s in random_period_specs(8, seed=3):
        cm = build_circulant(spec, s)
        m = s * spec.p
        assert np.array_equal(cm[: m - 1, : m - 1], build_truncation(spec, m - 1))


# --- symbols ------------------------------------------------------------------


def test_symbol_word01_closed_form():
    for phi in (0.0, 0.7, np.pi, 5.1):
        np.testing.assert_allclose(
            build_symbol(WORD01, phi),
            [[0, 1], [1 + np.exp(1j * phi), 0]],
            atol=1e-15,
        )


def test_symbol_p3_corner_pattern():
    spec = PeriodSpec(a=(2, 3, 5), b=(7, 11, 13), c=(17, 19, 23))
    phi = 1.3
    s = build_symbol(spec, phi)
    assert s[0, 2] == spec.a[0] * np.exp(-1j * phi)
    assert s[2, 0] == spec.c[2] * np.exp(1j * phi)
    s2 = s.copy()
    s2[0, 2] = s2[2, 0] = 0
    np.testing.assert_array_equal(s2, build_truncation(spec, 3))


def test_symbol_at_zero_matches_circulant_row_pattern():
    spec = PeriodSpec(a=(2, 3, 5, 7), b=0, c=(1, 1, 1, 1))
    s = build_symbol(spec, 0.0)
    assert s[0, 3] == spec.a[0]
    assert s[3, 0] == spec.c[3]


def test_symbol_diagonal_spec_is_phi_independent():
    spec = PeriodSpec(a=0, b=(1, 2, 3), c=0)
    for phi in (0.0, 2.2):
        np.testing.assert_array_equal(build_symbol(spec, phi), np.diag([1, 2, 3]))


# --- Fourier vectors and the block unitary ------------------------------------


def test_fourier_vector_small_cases():
    np.testing.assert_allclose(
        fourier_vector(2, 2, 0, 0), np.array([1, 0, 1, 0]) / np.sqrt(2)
    )
    np.testing.assert_allclose(
        fourier_vector(2, 2, 1, 1), np.array([0, 1, 0, -1], dtype=complex) / np.sqrt(2)
    )


def test_fourier_vectors_are_orthonormal():
    p, s = 3, 4
    vecs = [fourier_vector(p, s, j, k) for k in range(s) for j in range(p)]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.abs(gram - np.eye(p * s)).max() <= 1e-12


def test_block_unitary_columns_and_unitarity():
    for p, s in [(2, 2), (2, 5), (3, 4), (4, 6)]:
        spec = PeriodSpec(a=np.arange(1, p + 1), b=0, c=1)
        u = build_block_unitary(spec, s)
        np.testing.assert_array_equal(u[:, 0], fourier_vector(p, s, 0, 0))
        for k in range(s):
            for j in range(p):
                np.testing.assert_array_equal(u[:, k * p + j], fourier_vector(p, s, j, k))
        assert np.abs(u.conj().T @ u - np.eye(s * p)).max() <= 1e-12


def test_block_unitary_diagonalizes_four_cycle():
    # hand computation: the 4-cycle splits into [[0,2],[2,0]] and [[0,0],[0,0]]
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    u = build_block_unitary(spec, 2)
    d = u.conj().T @ build_circulant(spec, 2) @ u
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = [[0, 2], [2, 0]]
    assert np.abs(d - expected).max() <= 1e-10


def test_block_diagonalization_random_sweep():
    for spec, s in random_period_specs(12, seed=11):
        cm = build_circulant(spec, s)
        u = build_block_unitary(spec, s)
        d = u.conj().T @ cm @ u
        blocks = np.zeros_like(d)
        for k, phi in enumerate(phi_grid(s)):
            blocks[k * spec.p : (k + 1) * spec.p, k * spec.p : (k + 1) * spec.p] = (
                build_symbol(spec, phi)
            )
        defect = np.linalg.norm(d - blocks)
        assert defect <= 1e-10 * (1 + np.linalg.norm(cm))


def _greedy_pairing(circ, union):
    remaining = list(np.sort_complex(union))
    worst = 0.0
    for lam in np.sort_complex(circ):
        dists = [abs(lam - mu) for mu in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return worst


def test_spectrum_union_multiset_selfadjoint_tight():
    rng = np.random.default_rng(2)
    for _ in range(6):
        a = rng.choice([-1.0, 1.0], 3).astype(complex)
        spec = PeriodSpec(a=a, b=rng.choice([0.0, 1.0], 3), c=np.conj(np.roll(a, -1)))
        s = int(rng.integers(2, 7))
        circ = np.linalg.eigvalsh(build_circulant(spec, s))
        union = np.concatenate(
            [np.linalg.eigvalsh(build_symbol(spec, phi)) for phi in phi_grid(s)]
        )
        assert _greedy_pairing(circ.astype(complex), union.astype(complex)) <= 1e-8


def test_spectrum_union_multiset_general():
    # defective symbol eigenvalues limit double-precision agreement to ~eps^(1/q)
    for spec, s in random_period_specs(8, seed=5):
        circ = np.linalg.eigvals(build_circulant(spec, s))
        union = np.concatenate(
            [np.linalg.eigvals(build_symbol(spec, phi)) for phi in phi_grid(s)]
        )
        assert _greedy_pairing(circ, union) <= 1e-4


# --- conjecture matrices and eigenvector lifting -------------------------------


def test_conjecture_matrices_n1():
    plus, minus = conjecture_pair(1)
    np.testing.assert_array_equal(plus, [[1, 1], [0, 1]])
    np.testing.assert_array_equal(minus, [[-1, 1], [0, -1]])


def test_conjecture_matrices_n2_and_trace():
    plus, _ = conjecture_pair(2)
    np.testing.assert_array_equal(plus, [[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    for n in range(1, 7):
        plus, minus = conjecture_pair(n)
        assert plus.trace() == 2.0
        assert minus.trace() == -2.0
    with pytest.raises(ValueError):
        conjecture_specs(0)


def test_lift_four_cycle_eigenvector():
    lifted = lift_eigenvector(np.array([0.5, 0.5]), 0.0, 2)
    np.testing.assert_array_equal(lifted, [0.5, 0.5, 0.5, 0.5])
    c4 = build_circulant(PeriodSpec(a=1, b=0, c=1, p=2), 2)
    np.testing.assert_allclose(c4 @ lifted, 2.0 * lifted, atol=1e-15)


def test_lift_zero_phase_repeats_and_norm():
    v = np.array([1.0, 2.0, 3.0])
    lifted = lift_eigenvector(v, 0.0, 4)
    np.testing.assert_array_equal(lifted, np.tile(v, 4))
    for phi in (0.3, 2.0):
        lifted = lift_eigenvector(v, phi, 5)
        assert np.linalg.norm(lifted) ** 2 == pytest.approx(5 * np.linalg.norm(v) ** 2)


def test_lifted_eigenvectors_are_circulant_eigenvectors():
    for spec, s in random_period_specs(8, seed=23):
        cm = build_circulant(spec, s)
        for k, phi in enumerate(phi_grid(s)):
            values, vectors = np.linalg.eig(build_symbol(spec, phi))
            for lam, v in zip(values, vectors.T):
                lifted = lift_eigenvector(v, phi, s)
                res = np.linalg.norm(cm @ lifted - lam * lifted)
                assert res <= 1e-10 * (1 + abs(lam)) * np.linalg.norm(lifted)


def test_phi_grid():
    np.testing.assert_allclose(phi_grid(4), [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(ValueError):
        phi_grid(0)

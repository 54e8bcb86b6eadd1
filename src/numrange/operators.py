"""Finite matrices attached to a periodic tridiagonal operator.

A period-p operator is described by three length-p sequences: subdiagonal
``a``, diagonal ``b``, superdiagonal ``c``.  Row ``i`` of the infinite matrix
carries ``a[i mod p]`` on the subdiagonal, ``b[i mod p]`` on the diagonal and
``c[i mod p]`` on the superdiagonal, so the subdiagonal starts at ``a[1]``
and the superdiagonal at ``c[0]``.  From that data we build the leading
truncations, the wrapped-around circulants, the phase-twisted symbol
matrices, the Fourier-type block unitary, and the two period specs whose
truncations are the superdiagonal-plus-corners matrices of the small-period
hulls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecParseError",
    "PeriodSpec",
    "phi_grid",
    "build_truncation",
    "build_circulant",
    "build_symbol",
    "build_block_unitary",
    "conjecture_specs",
    "lift_eigenvector",
]

SELFADJOINT_TOL = 1e-12


class SpecParseError(ValueError):
    """Raised when a period-spec text cannot be parsed."""


def _as_period_array(value, p: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=complex))
    if arr.size == 1:
        arr = np.full(p, arr[0], dtype=complex)
    if arr.shape != (p,):
        raise ValueError(f"sequence {name!r} must have length {p}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"sequence {name!r} must be finite")
    return arr


@dataclass(frozen=True)
class PeriodSpec:
    """Period data (a, b, c) of a periodic tridiagonal operator.

    Scalars broadcast to the period length, which is taken from ``p`` when
    given and from the longest sequence otherwise.  So both
    ``PeriodSpec(a=(0, 1), b=0, c=1)`` and ``PeriodSpec(p=2, a=1, b=0, c=1)``
    describe 2-periodic operators.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int = 0

    def __post_init__(self):
        lengths = [np.atleast_1d(np.asarray(s)).size for s in (self.a, self.b, self.c)]
        p = self.p if self.p else max(lengths)
        if p < 2:
            raise ValueError(f"period length must be >= 2, got {p}")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "a", _as_period_array(self.a, p, "a"))
        object.__setattr__(self, "b", _as_period_array(self.b, p, "b"))
        object.__setattr__(self, "c", _as_period_array(self.c, p, "c"))

    @classmethod
    def from_word(cls, word: str) -> "PeriodSpec":
        """Subdiagonal read off a digit word, with b = 0 and c = 1."""
        if len(word) < 2 or not word.isdigit():
            raise SpecParseError(f"period word must be >= 2 digits, got {word!r}")
        return cls(a=[float(ch) for ch in word], b=0.0, c=1.0)

    @classmethod
    def parse(cls, text: str) -> "PeriodSpec":
        """Parse ``"word=01"`` or ``"p=2;a=0,1;b=0,0;c=1,1"``.

        Sequence entries accept anything Python's ``complex()`` does
        (``1``, ``-1.5``, ``2+3j``); a single value broadcasts.  Each field
        may appear once, and the sequence form takes no field but p, a, b
        and c.
        """
        fields: dict[str, str] = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            key = key.strip()
            if not sep or not value:
                raise SpecParseError(f"malformed field {chunk!r}")
            if key in fields:
                raise SpecParseError(f"repeated field {key!r}")
            fields[key] = value.strip()

        if "word" in fields:
            extra = set(fields) - {"word"}
            if extra:
                raise SpecParseError(f"unexpected fields with word form: {sorted(extra)}")
            return cls.from_word(fields["word"])

        unknown = set(fields) - {"p", "a", "b", "c"}
        if unknown:
            raise SpecParseError(f"unknown fields: {sorted(unknown)}")
        missing = {"p", "a", "b", "c"} - set(fields)
        if missing:
            raise SpecParseError(f"missing fields: {sorted(missing)}")
        try:
            p = int(fields["p"])
            seqs = {k: [complex(tok) for tok in fields[k].split(",")] for k in "abc"}
        except ValueError as exc:
            raise SpecParseError(f"cannot parse {text!r}: {exc}") from exc
        if p < 2:
            raise SpecParseError(f"period length must be >= 2, got p={p}")
        for k, seq in seqs.items():
            if len(seq) not in (1, p):
                raise SpecParseError(
                    f"sequence {k!r} has length {len(seq)}, expected {p} (or 1 to broadcast)"
                )
        try:
            return cls(a=seqs["a"], b=seqs["b"], c=seqs["c"], p=p)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc

    def is_selfadjoint(self) -> bool:
        """True when the operator is self-adjoint: b real, c[j] = conj(a[j+1]),
        each to within ``SELFADJOINT_TOL`` times the largest entry's modulus,
        so that the answer does not depend on the operator's scale."""
        tol = SELFADJOINT_TOL * max(float(np.abs(x).max()) for x in (self.a, self.b, self.c))
        return (
            float(np.abs(self.b.imag).max()) <= tol
            and float(np.abs(self.c - np.conj(np.roll(self.a, -1))).max()) <= tol
        )


def phi_grid(num_phi: int) -> np.ndarray:
    """Uniform half-open grid of twist angles, ``2*pi*k/num_phi``."""
    if num_phi < 1:
        raise ValueError("num_phi must be >= 1")
    return 2.0 * np.pi * np.arange(num_phi) / num_phi


def build_truncation(spec: PeriodSpec, k: int) -> np.ndarray:
    """Leading k-by-k compression of the operator."""
    if k < 1:
        raise ValueError("truncation size must be >= 1")
    idx = np.arange(k)
    t = np.zeros((k, k), dtype=complex)
    t[idx, idx] = spec.b[idx % spec.p]
    t[idx[1:], idx[:-1]] = spec.a[idx[1:] % spec.p]
    t[idx[:-1], idx[1:]] = spec.c[idx[:-1] % spec.p]
    return t


def build_circulant(spec: PeriodSpec, s: int) -> np.ndarray:
    """Cyclic wrap of s periods: the truncation of size m = s*p plus the
    corner entries a[0] at (0, m-1) and c[p-1] at (m-1, 0)."""
    if s < 2:
        raise ValueError("number of periods s must be >= 2")
    m = s * spec.p
    cm = build_truncation(spec, m)
    cm[0, m - 1] = spec.a[0]
    cm[m - 1, 0] = spec.c[spec.p - 1]
    return cm


def build_symbol(spec: PeriodSpec, phi) -> np.ndarray:
    """Symbol matrix: one period with phase-twisted wrap entries.

    This is the p-by-p truncation plus ``a[0] e^{-i phi}`` at (0, p-1) and
    ``c[p-1] e^{i phi}`` at (p-1, 0).  For p = 2 those wrap entries land on
    the off-diagonal and add up::

        [[b0, c0 + a0 e^{-i phi}], [a1 + c1 e^{i phi}, b1]]

    An array of angles gives the stack of their symbols.
    """
    phi = np.asarray(phi, dtype=float)
    t = np.broadcast_to(build_truncation(spec, spec.p), (*phi.shape, spec.p, spec.p)).copy()
    t[..., 0, -1] += spec.a[0] * np.exp(-1j * phi)
    t[..., -1, 0] += spec.c[-1] * np.exp(1j * phi)
    return t


def build_block_unitary(spec: PeriodSpec, s: int) -> np.ndarray:
    """Unitary whose columns are the Fourier vectors, k-major.

    Column ``k*p + j`` holds ``rho_k^t / sqrt(s)`` at slot j of block t,
    with ``rho_k = exp(2 pi i k / s)``, blocks of length p and t over the s
    periods.  Conjugating a circulant by this matrix produces the
    block-diagonal stack of symbols at the angles ``phi_k = 2*pi*k/s``.
    """
    if s < 2:
        raise ValueError("number of periods s must be >= 2")
    p = spec.p
    u = np.zeros((s * p, s * p), dtype=complex)
    eye = np.eye(p)
    for k in range(s):
        powers = np.exp(2j * np.pi * k / s) ** np.arange(s)
        u[:, k * p : (k + 1) * p] = np.kron(powers[:, None], eye) / np.sqrt(s)
    return u


def conjecture_specs(n: int) -> tuple[PeriodSpec, PeriodSpec]:
    """The period-(n+1) specs whose (n+1)-square truncations are B + J and B - J.

    B has ones on the first superdiagonal only and J is zero except for ones
    at (0, 0) and (n, n), so the specs are ``a = 0, b = +-(1, 0, ..., 0, 1),
    c = 1``.  The hull of the two matrices' numerical ranges conjecturally
    equals the range closure of the period-word-0^n-1 operator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    corners = np.zeros(n + 1)
    corners[[0, n]] = 1.0
    return PeriodSpec(a=0.0, b=corners, c=1.0), PeriodSpec(a=0.0, b=-corners, c=1.0)


def lift_eigenvector(v, phi_k: float, s: int) -> np.ndarray:
    """Extend a symbol eigenvector across s periods with phase ``e^{i t phi_k}``.

    If v is an eigenvector of the symbol at angle phi_k, the lifted vector is
    an eigenvector of the circulant on s periods for the same eigenvalue.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    v = np.asarray(v, dtype=complex).ravel()
    phases = np.exp(1j * phi_k * np.arange(s))
    return (phases[:, None] * v).ravel()

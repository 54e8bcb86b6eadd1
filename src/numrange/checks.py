"""End-to-end verification suite with machine-readable reports.

Each check compares two independently computed descriptions of the same
set or spectrum and reports a single defect number (a Frobenius defect, a
residual, or a Hausdorff distance).  A report passes exactly when its
metric is at or below its tolerance; checks that require a *minimum*
separation (negative controls) report the shortfall below the required
separation, so the same rule applies.

Reports serialize to line-delimited JSON via :func:`reports_to_lines`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .ellipse import stadium_region
from .geometry import RangePolygon, convex_hull, excess, hausdorff, support_width
from .operators import (
    PeriodSpec,
    build_block_unitary,
    build_circulant,
    build_symbol,
    conjecture_specs,
    lift_eigenvector,
    phi_grid,
)
from .sweep import (
    SweepConfig,
    selfadjoint_interval,
    symbol_union_hull,
    truncation_range,
    truncation_support,
)

__all__ = [
    "CheckReport",
    "reports_to_lines",
    "random_period_specs",
    "check_block_diagonalization",
    "check_eigenvector_lifting",
    "check_spectrum_union",
    "check_hull_convergence",
    "check_truncation_containment",
    "check_selfadjoint_convergence",
    "check_stadium_identity",
    "check_stadium_support_widths",
    "check_conjecture",
    "check_range_negation_symmetry",
    "check_pair_ellipse_axes",
    "check_stadium_separation",
    "run_all",
    "PROFILES",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: passes iff ``metric <= tolerance``."""

    name: str
    parameters: dict = field(default_factory=dict)
    metric: float = 0.0
    tolerance: float = 0.0
    passed: bool = field(init=False, default=False)

    def __post_init__(self):
        object.__setattr__(self, "metric", float(self.metric))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.metric <= self.tolerance))

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "parameters": self.parameters,
                "metric": self.metric,
                "tolerance": self.tolerance,
                "passed": self.passed,
            },
            sort_keys=True,
        )


def reports_to_lines(reports) -> str:
    """Line-delimited JSON, one record per report."""
    return "".join(r.to_json() + "\n" for r in reports)


def _spec_params(spec: PeriodSpec) -> dict:
    def fmt(arr):
        return [str(z) for z in arr]

    return {"p": spec.p, "a": fmt(spec.a), "b": fmt(spec.b), "c": fmt(spec.c)}


def _symbol_blocks(spec: PeriodSpec, s: int) -> np.ndarray:
    blocks = np.zeros((s, spec.p, s, spec.p), dtype=complex)
    blocks[np.arange(s), :, np.arange(s), :] = build_symbol(spec, phi_grid(s))
    return blocks.reshape(s * spec.p, s * spec.p)


def check_block_diagonalization(spec: PeriodSpec, s: int) -> CheckReport:
    """Frobenius defect of U* C U against the stacked symbol blocks."""
    c = build_circulant(spec, s)
    u = build_block_unitary(spec, s)
    defect = float(np.linalg.norm(u.conj().T @ c @ u - _symbol_blocks(spec, s)))
    return CheckReport(
        name="block_diagonalization",
        parameters={**_spec_params(spec), "s": s},
        metric=defect,
        tolerance=1e-10 * (1.0 + float(np.linalg.norm(c))),
    )


def check_eigenvector_lifting(spec: PeriodSpec, s: int) -> CheckReport:
    """Worst scaled circulant residual of lifted symbol eigenvectors."""
    c = build_circulant(spec, s)
    worst = 0.0
    for phi in phi_grid(s):
        values, vectors = np.linalg.eig(build_symbol(spec, phi))
        for lam, v in zip(values, vectors.T):
            lifted = lift_eigenvector(v, phi, s)
            residual = float(np.linalg.norm(c @ lifted - lam * lifted))
            worst = max(
                worst, residual / ((1.0 + abs(lam)) * float(np.linalg.norm(lifted)))
            )
    return CheckReport(
        name="eigenvector_lifting",
        parameters={**_spec_params(spec), "s": s},
        metric=worst,
        tolerance=1e-10,
    )


def _greedy_pairing_distance(left: np.ndarray, right: np.ndarray) -> float:
    """Max nearest-neighbour distance pairing two equal-size multisets."""
    if left.size != right.size:
        raise ValueError("multisets must have equal size")
    order = np.lexsort((left.imag, left.real))
    remaining = list(right)
    worst = 0.0
    for lam in left[order]:
        dists = [abs(lam - mu) for mu in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return worst


def check_spectrum_union(spec: PeriodSpec, s: int) -> CheckReport:
    """Circulant spectrum against the union of symbol spectra (as multisets).

    Self-adjoint specs go through the Hermitian solver, where eigenvalues
    are perfectly conditioned and 1e-8 agreement holds.  General specs can
    have defective symbol eigenvalues whose double-precision sensitivity is
    eps^(1/q) for a size-q Jordan block (measured up to ~1e-5 over random
    sign specs), so the non-normal route uses a 1e-4 tolerance.
    """
    selfadjoint = spec.is_selfadjoint()
    circulant, symbols = build_circulant(spec, s), build_symbol(spec, phi_grid(s))
    if selfadjoint:
        circ_eigs = np.linalg.eigvalsh(circulant).astype(complex)
        symbol_eigs = np.linalg.eigvalsh(symbols).ravel().astype(complex)
        tolerance = 1e-8
    else:
        circ_eigs = np.linalg.eigvals(circulant)
        symbol_eigs = np.linalg.eigvals(symbols).ravel()
        tolerance = 1e-4
    return CheckReport(
        name="spectrum_union",
        parameters={**_spec_params(spec), "s": s, "selfadjoint": selfadjoint},
        metric=_greedy_pairing_distance(circ_eigs, symbol_eigs),
        tolerance=tolerance,
    )


def check_hull_convergence(
    spec: PeriodSpec,
    k_max: int,
    trunc: RangePolygon,
    hull: RangePolygon,
    containment: float,
    cfg: SweepConfig,
) -> CheckReport:
    """Hausdorff gap between the k_max truncation range and the symbol-union
    hull, given ``containment``, the :func:`~numrange.geometry.excess` of ``trunc`` over ``hull``."""
    if k_max < 2 * spec.p:
        raise ValueError("k_max must be at least twice the period")
    hausdorff_gap = max(containment, excess(hull, trunc))
    return CheckReport(
        name="hull_convergence",
        parameters={
            **_spec_params(spec),
            "k_max": k_max,
            "num_theta": cfg.num_theta,
            "num_phi": cfg.num_phi,
            "containment_defect": containment,
        },
        metric=hausdorff_gap,
        tolerance=0.05,
    )


def check_truncation_containment(
    spec: PeriodSpec, k_max: int, containment: float, cfg: SweepConfig
) -> CheckReport:
    """One-sided inclusion: the truncation range sits inside the symbol hull,
    to within ``containment`` (as in :func:`check_hull_convergence`)."""
    return CheckReport(
        name="hull_containment",
        parameters={**_spec_params(spec), "k_max": k_max, "num_theta": cfg.num_theta},
        metric=containment,
        tolerance=1e-6,
    )


def check_selfadjoint_convergence(spec: PeriodSpec, k_max: int = 400) -> CheckReport:
    """Interval endpoints from symbols against deep-truncation eigenvalue extremes.

    The truncation's largest eigenvalue is its support value at theta = 0,
    and minus its smallest is the support value at theta = pi.
    """
    lo, hi = selfadjoint_interval(spec)
    lam_max, neg_lam_min = truncation_support(spec, k_max, [0.0, np.pi])
    lam_min = -neg_lam_min
    return CheckReport(
        name="selfadjoint_interval",
        parameters={
            **_spec_params(spec),
            "k_max": k_max,
            "interval": [lo, hi],
        },
        metric=max(abs(lo - lam_min), abs(hi - lam_max)),
        tolerance=0.05,
    )


def _pair_ranges(n: int, cfg: SweepConfig) -> tuple[RangePolygon, RangePolygon]:
    """Range polygons of the matrices B + J and B - J: the (n+1)-square
    truncations of the two :func:`~numrange.operators.conjecture_specs`."""
    plus, minus = conjecture_specs(n)
    return truncation_range(plus, n + 1, cfg), truncation_range(minus, n + 1, cfg)


def _hull_of_pair_ranges(plus: RangePolygon, minus: RangePolygon) -> RangePolygon:
    return convex_hull(np.concatenate([plus.vertices, minus.vertices]))


def check_stadium_identity(
    hull01: RangePolygon,
    stadium: RangePolygon,
    pair_hull: RangePolygon,
    cfg: SweepConfig,
) -> CheckReport:
    """Period word 01: symbol hull vs the stadium vs the two-matrix hull."""
    d_hull_stadium = hausdorff(hull01, stadium)
    d_stadium_pair = hausdorff(stadium, pair_hull)
    return CheckReport(
        name="stadium_identity",
        parameters={
            "num_theta": cfg.num_theta,
            "num_phi": cfg.num_phi,
            "hull_vs_stadium": d_hull_stadium,
            "stadium_vs_pair": d_stadium_pair,
        },
        metric=max(d_hull_stadium, d_stadium_pair),
        tolerance=2e-3,
    )


def check_stadium_support_widths(
    hull01: RangePolygon,
    stadium: RangePolygon,
    pair_hull: RangePolygon,
    cfg: SweepConfig,
) -> CheckReport:
    """Support widths of all three period-01 sets at the four axis directions."""
    angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    expected = [1.5, 0.5, 1.5, 0.5]
    worst = max(
        abs(support_width(region, angle) - target)
        for region in (hull01, stadium, pair_hull)
        for angle, target in zip(angles, expected)
    )
    return CheckReport(
        name="stadium_support_widths",
        parameters={"num_theta": cfg.num_theta, "num_phi": cfg.num_phi},
        metric=worst,
        tolerance=1e-3,
    )


def check_conjecture(
    n: int,
    hull: RangePolygon,
    pair_hull: RangePolygon,
    cfg: SweepConfig,
) -> CheckReport:
    """Symbol-union hull of word 0^n 1 vs the hull of the two matrix ranges.

    Proven for n = 1; numerically supported for n = 2, 3.  For n = 4 the
    statement is open, so the report is advisory: the metric is recorded
    but no tolerance is asserted.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    advisory = n == 4
    params = {
        "n": n,
        "word": "0" * n + "1",
        "num_theta": cfg.num_theta,
        "num_phi": cfg.num_phi,
    }
    if advisory:
        params["advisory"] = True
    return CheckReport(
        name="conjecture_hull",
        parameters=params,
        metric=hausdorff(hull, pair_hull),
        tolerance=float("inf") if advisory else 0.02,
    )


def check_range_negation_symmetry(
    n: int, plus: RangePolygon, minus: RangePolygon, cfg: SweepConfig
) -> CheckReport:
    """The two paired matrix ranges are negations of each other."""
    return CheckReport(
        name="conjecture_symmetry",
        parameters={"n": n, "num_theta": cfg.num_theta},
        metric=hausdorff(plus, RangePolygon(-minus.vertices)),
        tolerance=1e-8,
    )


def check_pair_ellipse_axes(plus: RangePolygon, minus: RangePolygon, cfg: SweepConfig) -> CheckReport:
    """The n = 2 matrix ranges are the ellipses centred at +-1/2 with
    major axis sqrt(3) and minor axis sqrt(2), read off support widths."""
    deviations = []
    for poly, center in ((plus, 0.5), (minus, -0.5)):
        s_right = support_width(poly, 0.0)
        s_up = support_width(poly, np.pi / 2)
        s_left = support_width(poly, np.pi)
        s_down = support_width(poly, 3 * np.pi / 2)
        deviations += [
            abs((s_right - s_left) / 2 - center),
            abs((s_up - s_down) / 2),
            abs(s_right + s_left - np.sqrt(3)),
            abs(s_up + s_down - np.sqrt(2)),
        ]
    return CheckReport(
        name="conjecture_ellipse_axes",
        parameters={"num_theta": cfg.num_theta},
        metric=max(deviations),
        tolerance=1e-6,
    )


def check_stadium_separation(word: str, hull: RangePolygon, stadium: RangePolygon) -> CheckReport:
    """Negative control: the symbol hull of ``word`` must stay at least 0.1
    away from the stadium.  The metric is the shortfall below that."""
    gap = hausdorff(hull, stadium)
    return CheckReport(
        name="conjecture_negative_control",
        parameters={"word": word, "required_separation": 0.1, "hausdorff": gap},
        metric=max(0.0, 0.1 - gap),
        tolerance=0.0,
    )


PROFILES = {
    "quick": {
        "cfg": SweepConfig(num_theta=192, num_phi=192),
        "random_trials": 10,
        "k_main": 120,
        "main_words": ["01"],
        "conjecture_ns": [1, 2],
    },
    "full": {
        "cfg": SweepConfig(num_theta=720, num_phi=720),
        "random_trials": 50,
        "k_main": 200,
        "main_words": ["01", "001"],
        "conjecture_ns": [1, 2, 3, 4],
    },
}


def random_period_specs(trials: int, seed: int = 0) -> list[tuple[PeriodSpec, int]]:
    """Deterministic sample of specs over the alphabets {0,1} and {-1,1}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        alphabet = [0.0, 1.0] if rng.integers(2) == 0 else [-1.0, 1.0]
        p = int(rng.integers(2, 5))
        s = int(rng.integers(2, 9))
        draw = lambda: rng.choice(alphabet, p).astype(complex)
        out.append((PeriodSpec(a=draw(), b=draw(), c=draw()), s))
    return out


def _random_selfadjoint_spec(seed: int) -> PeriodSpec:
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], 3).astype(complex)
    b = rng.choice([0.0, 1.0], 3).astype(complex)
    return PeriodSpec(a=a, b=b, c=np.conj(np.roll(a, -1)))


def run_all(
    profile: str,
    seed: int = 0,
    only: str | None = None,
    conjecture_n: int | None = None,
) -> list[CheckReport]:
    """Run the verification suite for a profile, optionally filtered.

    ``only`` keeps checks whose name contains the given substring and is an
    error when nothing matches.  ``conjecture_n`` restricts the per-n
    conjecture checks and is an error when the profile has no such n.
    Reports come back sorted by name (stable within a name, so repeated
    runs are identical).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    params = PROFILES[profile]
    cfg: SweepConfig = params["cfg"]

    # Polygons, and how far each truncation range reaches outside its union
    # hull, are built on first use and shared by every check that compares
    # them (each pair matrix is swept once); the caches live only for this call.
    union_hull = functools.cache(lambda word: symbol_union_hull(PeriodSpec.from_word(word), cfg))
    trunc_range = functools.cache(lambda word, k: truncation_range(PeriodSpec.from_word(word), k, cfg))
    outside = functools.cache(lambda w, k: excess(trunc_range(w, k), union_hull(w)))
    pair_ranges = functools.cache(lambda n: _pair_ranges(n, cfg))
    pair_hull = functools.cache(lambda n: _hull_of_pair_ranges(*pair_ranges(n)))
    stadium = functools.cache(lambda: stadium_region(cfg.num_theta))

    jobs: list[tuple[str, object]] = []
    for spec, s in random_period_specs(params["random_trials"], seed):
        jobs.append(("block_diagonalization", lambda sp=spec, ss=s: check_block_diagonalization(sp, ss)))
        jobs.append(("eigenvector_lifting", lambda sp=spec, ss=s: check_eigenvector_lifting(sp, ss)))
        jobs.append(("spectrum_union", lambda sp=spec, ss=s: check_spectrum_union(sp, ss)))

    for word in params["main_words"]:
        spec = PeriodSpec.from_word(word)
        k = params["k_main"] + (len(word) - params["k_main"] % len(word)) % len(word)
        shared = lambda w=word, kk=k: (trunc_range(w, kk), union_hull(w), outside(w, kk))
        jobs.append(("hull_convergence", lambda sp=spec, kk=k, sh=shared: check_hull_convergence(sp, kk, *sh(), cfg)))
        jobs.append(
            ("hull_containment", lambda sp=spec, kk=k, w=word: check_truncation_containment(sp, kk, outside(w, kk), cfg))
        )

    sa_spec = PeriodSpec(a=(1.0, 1.0), b=0.0, c=(1.0, 1.0))
    jobs.append(("selfadjoint_interval", lambda: check_selfadjoint_convergence(sa_spec)))
    jobs.append(
        (
            "selfadjoint_interval",
            lambda: check_selfadjoint_convergence(_random_selfadjoint_spec(seed + 1)),
        )
    )

    word01_sets = lambda: (union_hull("01"), stadium(), pair_hull(1))
    jobs.append(("stadium_identity", lambda: check_stadium_identity(*word01_sets(), cfg)))
    jobs.append(("stadium_support_widths", lambda: check_stadium_support_widths(*word01_sets(), cfg)))

    ns = params["conjecture_ns"]
    if conjecture_n is not None:
        if conjecture_n not in ns:
            raise ValueError(f"n={conjecture_n} is not one of the {profile!r} profile's conjecture sizes {ns}")
        ns = [conjecture_n]
    for n in ns:
        jobs.append(
            ("conjecture_hull", lambda nn=n: check_conjecture(nn, union_hull("0" * nn + "1"), pair_hull(nn), cfg))
        )
        jobs.append(
            ("conjecture_symmetry", lambda nn=n: check_range_negation_symmetry(nn, *pair_ranges(nn), cfg))
        )
        if n == 2:
            jobs.append(("conjecture_ellipse_axes", lambda: check_pair_ellipse_axes(*pair_ranges(2), cfg)))
    jobs.append(
        ("conjecture_negative_control", lambda: check_stadium_separation("11", union_hull("11"), stadium()))
    )

    if only is not None:
        jobs = [(name, fn) for name, fn in jobs if only in name]
        if not jobs:
            raise ValueError(f"filter {only!r} matches no check")

    reports = [fn() for _, fn in jobs]
    reports.sort(key=lambda r: r.name)
    return reports

"""Verification-suite reports: content, invariants, determinism."""

import json

import numpy as np
import pytest

import numrange.checks as checks
import numrange.cli as cli
from numrange import sweep
from numrange.checks import (
    CheckReport,
    _hull_of_pair_ranges,
    _pair_ranges,
    check_block_diagonalization,
    check_conjecture,
    check_pair_ellipse_axes,
    check_eigenvector_lifting,
    check_hull_convergence,
    check_range_negation_symmetry,
    check_selfadjoint_convergence,
    check_stadium_identity,
    check_stadium_support_widths,
    check_spectrum_union,
    check_stadium_separation,
    check_truncation_containment,
    random_period_specs,
    reports_to_lines,
    run_all,
)
from numrange.operators import (
    PeriodSpec,
    build_block_unitary,
    build_circulant,
    build_symbol,
    phi_grid,
)
from numrange.ellipse import stadium_region
from numrange.geometry import RangePolygon
from numrange.sweep import NotSelfAdjointError, SweepConfig, symbol_union_hull, truncation_range
from oracles import distance_to_region

CFG = SweepConfig(num_theta=192, num_phi=192)
WORD01 = PeriodSpec.from_word("01")


def word_hull(word: str, cfg: SweepConfig = CFG):
    return symbol_union_hull(PeriodSpec.from_word(word), cfg)


def pair_hull(n: int, cfg: SweepConfig = CFG):
    return _hull_of_pair_ranges(*_pair_ranges(n, cfg))


def test_report_invariant_and_serialization():
    good = CheckReport(name="x", metric=0.5, tolerance=0.5)
    assert good.passed
    bad = CheckReport(name="x", metric=0.5000001, tolerance=0.5)
    assert not bad.passed
    record = json.loads(good.to_json())
    assert record == {
        "name": "x",
        "parameters": {},
        "metric": 0.5,
        "tolerance": 0.5,
        "passed": True,
    }
    lines = reports_to_lines([good, bad]).splitlines()
    assert len(lines) == 2 and all(json.loads(line) for line in lines)


def test_block_diagonalization_passes():
    assert check_block_diagonalization(WORD01, 4).passed
    spec = PeriodSpec(a=(-1, 1, 1), b=(1, -1, 1), c=(1, 1, -1))
    report = check_block_diagonalization(spec, 6)
    assert report.passed
    assert report.parameters["s"] == 6


def test_block_diagonalization_negative_control():
    # corrupting a circulant corner must break the similarity
    spec = PeriodSpec.from_word("001")
    s = 4
    cm = build_circulant(spec, s)
    cm[0, -1] += 0.5
    u = build_block_unitary(spec, s)
    blocks = np.zeros_like(cm)
    for k, phi in enumerate(phi_grid(s)):
        blocks[k * 3 : (k + 1) * 3, k * 3 : (k + 1) * 3] = build_symbol(spec, phi)
    defect = np.linalg.norm(u.conj().T @ cm @ u - blocks)
    assert defect > 1e-10 * (1 + np.linalg.norm(cm))


def test_lifting_and_spectrum_sweep():
    for spec, s in random_period_specs(6, seed=1):
        assert check_eigenvector_lifting(spec, s).passed
        assert check_spectrum_union(spec, s).passed


def test_spectrum_union_selfadjoint_uses_tight_tolerance():
    spec = PeriodSpec(a=(1.0, 1.0), b=0.0, c=(1.0, 1.0))
    report = check_spectrum_union(spec, 5)
    assert report.passed
    assert report.tolerance == 1e-8
    assert report.parameters["selfadjoint"] is True


def test_hull_convergence_word01():
    trunc, hull = truncation_range(WORD01, 120, CFG), word_hull("01")
    excess = float(distance_to_region(trunc.vertices, hull).max())
    report = check_hull_convergence(WORD01, 120, trunc, hull, excess, CFG)
    assert report.passed
    assert report.metric <= 0.05
    containment = check_truncation_containment(WORD01, 120, excess, CFG)
    assert containment.passed
    assert containment.metric <= 1e-6


def test_hull_convergence_word001():
    spec = PeriodSpec.from_word("001")
    trunc, hull = truncation_range(spec, 120, CFG), word_hull("001")
    report = check_hull_convergence(spec, 120, trunc, hull, float(distance_to_region(trunc.vertices, hull).max()), CFG)
    assert report.passed
    assert report.parameters["containment_defect"] <= 1e-6


def test_hull_convergence_diagonal_spec_is_exact():
    spec = PeriodSpec(a=0, b=(1.0, 1j), c=0)
    cfg = SweepConfig(64, 16)
    hull = symbol_union_hull(spec, cfg)
    trunc = truncation_range(spec, 8, cfg)
    report = check_hull_convergence(spec, 8, trunc, hull, float(distance_to_region(trunc.vertices, hull).max()), cfg)
    assert report.metric <= 1e-12
    with pytest.raises(ValueError, match="k_max"):
        check_hull_convergence(spec, 2, truncation_range(spec, 2, cfg), hull, 0.0, cfg)


def test_selfadjoint_theorem_and_shift():
    spec = PeriodSpec(a=1, b=0, c=1, p=2)
    report = check_selfadjoint_convergence(spec, k_max=400)
    assert report.passed
    lo, hi = report.parameters["interval"]
    assert (lo, hi) == pytest.approx((-2, 2), abs=1e-12)
    shifted = PeriodSpec(a=1, b=3.0, c=1, p=2)
    report2 = check_selfadjoint_convergence(shifted, k_max=400)
    lo2, hi2 = report2.parameters["interval"]
    assert (lo2, hi2) == pytest.approx((1, 5), abs=1e-12)
    with pytest.raises(NotSelfAdjointError):
        check_selfadjoint_convergence(WORD01, k_max=100)


def test_stadium_checks():
    word01_sets = word_hull("01"), stadium_region(CFG.num_theta), pair_hull(1)
    assert check_stadium_identity(*word01_sets, CFG).passed
    widths = check_stadium_support_widths(*word01_sets, CFG)
    assert widths.passed and widths.metric <= 1e-3


def test_conjecture_small_n():
    for n in (1, 2):
        report = check_conjecture(n, word_hull("0" * n + "1"), pair_hull(n), CFG)
        assert report.passed
        assert report.tolerance == 0.02
        assert report.parameters["word"] == "0" * n + "1"


def test_conjecture_n4_is_advisory():
    cfg = SweepConfig(96, 96)
    report = check_conjecture(4, word_hull("00001", cfg), pair_hull(4, cfg), cfg)
    assert report.parameters["advisory"] is True
    assert report.tolerance == float("inf")
    assert report.passed  # advisory reports never gate
    point = RangePolygon(np.array([0j]))
    for bad in (0, 5):
        with pytest.raises(ValueError):
            check_conjecture(bad, point, point, CFG)


def test_negation_symmetry():
    for n in (1, 2, 3):
        report = check_range_negation_symmetry(n, *_pair_ranges(n, CFG), CFG)
        assert report.passed
        assert report.metric <= 1e-8


def test_pair_ellipse_axes():
    report = check_pair_ellipse_axes(*_pair_ranges(2, CFG), CFG)
    assert report.passed
    assert report.metric <= 1e-6


def test_stadium_separation_negative_control():
    stadium = stadium_region(CFG.num_theta)
    report = check_stadium_separation("11", word_hull("11"), stadium)
    assert report.passed
    assert report.parameters["hausdorff"] >= 0.1
    # word 01 matches the stadium, so the separation requirement must fail
    matching = check_stadium_separation("01", word_hull("01"), stadium)
    assert not matching.passed


def test_run_all_rejects_bad_inputs():
    with pytest.raises(ValueError, match="profile"):
        run_all("")
    with pytest.raises(ValueError, match="profile"):
        run_all("fast")
    with pytest.raises(ValueError, match="matches no check"):
        run_all("quick", only="nonexistent")


@pytest.fixture(scope="module")
def quick_reports():
    return run_all("quick", seed=0)


def test_run_all_quick_passes(quick_reports):
    failed = [r for r in quick_reports if not r.passed]
    assert failed == []
    names = [r.name for r in quick_reports]
    assert names == sorted(names)
    for expected in (
        "block_diagonalization",
        "eigenvector_lifting",
        "spectrum_union",
        "hull_convergence",
        "hull_containment",
        "selfadjoint_interval",
        "stadium_identity",
        "stadium_support_widths",
        "conjecture_hull",
        "conjecture_symmetry",
        "conjecture_ellipse_axes",
        "conjecture_negative_control",
    ):
        assert expected in names


def test_run_all_is_reproducible(quick_reports):
    again = run_all("quick", seed=0)
    assert reports_to_lines(again) == reports_to_lines(quick_reports)


def test_run_all_filter_and_n(quick_reports):
    conj = run_all("quick", only="conjecture", conjecture_n=2)
    names = {r.name for r in conj}
    assert names == {
        "conjecture_hull",
        "conjecture_symmetry",
        "conjecture_ellipse_axes",
        "conjecture_negative_control",
    }
    hulls = [r for r in conj if r.name == "conjecture_hull"]
    assert len(hulls) == 1 and hulls[0].parameters["n"] == 2


def test_run_all_builds_each_polygon_once(monkeypatch):
    """Within one call every union hull, truncation range and pair-matrix
    range is built once and shared; nothing is cached across calls.  The
    pair matrices are the truncations with k = n + 1 = p of their specs."""
    hull_words, truncations, pair_sizes = [], [], []
    build_hull, build_truncation = checks.symbol_union_hull, checks.truncation_range

    def counting_hull(spec, cfg):
        hull_words.append("".join(str(int(x)) for x in spec.a.real))
        return build_hull(spec, cfg)

    def counting_truncation(spec, k, cfg):
        (pair_sizes if k == spec.p else truncations).append(k)
        return build_truncation(spec, k, cfg)

    monkeypatch.setattr(checks, "symbol_union_hull", counting_hull)
    monkeypatch.setattr(checks, "truncation_range", counting_truncation)

    run_all("quick")
    assert sorted(hull_words) == ["001", "01", "11"] and truncations == [120]
    # the plus and minus matrices of n = 1 and n = 2, one sweep each
    assert sorted(pair_sizes) == [2, 2, 3, 3]
    run_all("quick")
    assert len(hull_words) == 6 and truncations == [120, 120] and len(pair_sizes) == 8

    hull_words.clear()
    truncations.clear()
    pair_sizes.clear()
    run_all("quick", only="conjecture", conjecture_n=2)
    assert sorted(hull_words) == ["001", "11"] and truncations == [] and pair_sizes == [3, 3]


def test_pair_checks_and_figure_run_without_dense_eigh(monkeypatch, tmp_path):
    """The pair ranges go through the truncation core: no dense ``eigh``
    behind the conjecture and stadium checks or the figure."""

    def no_eigh(h):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(sweep, "eigh", no_eigh)
    assert all(r.passed for r in run_all("quick", only="conjecture"))
    assert all(r.passed for r in run_all("quick", only="stadium"))
    assert cli.main(["figure", "--n", "2", "--out", str(tmp_path / "n2.svg")]) == 0


def test_run_all_measures_the_truncation_excess_once(monkeypatch):
    """hull_convergence and hull_containment share the excess of the
    truncation range over the union hull: with the hull's excess over the
    truncation, two excesses per main word, not three."""
    calls, measure = [], checks.excess

    def counting(p, q):
        calls.append(q)
        return measure(p, q)

    monkeypatch.setattr(checks, "excess", counting)
    reports = run_all("quick", only="hull_con")
    assert sorted(r.name for r in reports) == ["hull_containment", "hull_convergence"]
    assert len(calls) == 2
    calls.clear()
    assert [r.name for r in run_all("quick", only="hull_containment")] == ["hull_containment"]
    assert len(calls) == 1

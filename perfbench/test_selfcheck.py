"""Self-tests of the benchmark's own checks.

    python3 -m pytest -q perfbench

Each check must accept what numrange produces today and reject a
deliberately wrong output: a polygon pushed outward, a report whose flag
or metric is off, a report that differs from its repeat.  The references
are also checked against each other and against dense eigensolves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
from numrange import PeriodSpec, SweepConfig, symbol_union_hull, truncation_range  # noqa: E402
from numrange.checks import reports_to_lines, run_all  # noqa: E402

N = 180
SPEC = (
    np.array([0.3 + 0.8j, -1.1, 0.4j]),
    np.array([0.5, -0.2 + 0.1j, 0.0]),
    np.array([1.0, 0.7 - 0.6j, -0.3 + 0.2j]),
)


def _hull(word, n=N):
    return symbol_union_hull(PeriodSpec.from_word(word), SweepConfig(n, n)).vertices


def _truncation(spec, k, n=N):
    return truncation_range(PeriodSpec.parse(ref.spec_text(spec)), k, SweepConfig(n, n)).vertices


CASES = {
    "stadium": lambda: (_hull("01"), ref.stadium_reference(N, N)),
    "hull-001": lambda: (_hull("001"), ref.symbol_hull_reference(ref.word_spec("001"), N, N)),
    "hull-0001": lambda: (_hull("0001"), ref.symbol_hull_reference(ref.word_spec("0001"), N, N)),
    "truncation-01": lambda: (
        _truncation(ref.word_spec("01"), 60), ref.truncation_reference(ref.word_spec("01"), 60, N)
    ),
    "truncation-random": lambda: (_truncation(SPEC, 40), ref.truncation_reference(SPEC, 40, N)),
}


def _push(vertices, delta):
    """Move every vertex ``delta`` away from the centroid."""
    d = vertices - vertices.mean()
    return vertices + delta * d / np.abs(d)


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_polygon_passes_and_pushed_polygon_fails(case):
    vertices, reference = CASES[case]()
    gap, problems = ref.check_polygon(vertices, reference)
    assert problems == []
    assert gap > 0
    _, problems = ref.check_polygon(_push(vertices, 1e-6), reference)
    assert any("exceeds the reference" in p for p in problems)


def test_polygon_missing_vertices_breaks_the_a_priori_bound():
    vertices, reference = CASES["stadium"]()
    right_half = vertices[vertices.real > 0]
    _, problems = ref.check_polygon(right_half, reference)
    assert any("a-priori bound" in p for p in problems)


def test_coarser_angle_grid_gives_larger_gap():
    gaps = [ref.check_polygon(_hull("01", n), ref.stadium_reference(n, n))[0] for n in (90, 360)]
    assert gaps[0] > 4 * gaps[1]
    word01 = ref.word_spec("01")
    gaps = [
        ref.check_polygon(_truncation(word01, 60, n), ref.truncation_reference(word01, 60, n))[0]
        for n in (90, 360)
    ]
    assert gaps[0] > 4 * gaps[1]


def test_symbol_hull_reference_matches_closed_form():
    search = ref.symbol_hull_reference(ref.word_spec("01"), N, N)
    exact = ref.stadium_reference(N, N).lower
    assert np.all(search.lower <= exact + 1e-12)
    assert np.all(exact <= search.upper + 1e-12)
    assert np.all(search.upper - search.lower <= ref.PHI_TOL + 1e-15)


def test_truncation_reference_matches_dense_eigensolve():
    k = 30
    reference = ref.truncation_reference(SPEC, k, 8)
    a, b, c = SPEC
    j = np.arange(k)
    t = np.zeros((k, k), dtype=complex)
    t[j, j] = b[j % 3]
    t[j[1:], j[:-1]] = a[j[1:] % 3]
    t[j[:-1], j[1:]] = c[j[:-1] % 3]
    for theta, value in zip(reference.thetas, reference.lower):
        m = np.exp(-1j * theta) * t
        assert abs(np.linalg.eigvalsh((m + m.conj().T) / 2)[-1] - value) < 1e-12


def _report(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_perturbed_report_fails_determinism_check(tmp_path):
    text = reports_to_lines(run_all("quick", seed=3, only="block"))
    first = _report(tmp_path, "a.jsonl", text)
    again = _report(tmp_path, "b.jsonl", reports_to_lines(run_all("quick", seed=3, only="block")))
    i = next(i for i, ch in enumerate(text) if ch.isdigit() and ch != "9")
    perturbed = _report(tmp_path, "c.jsonl", text[:i] + str(int(text[i]) + 1) + text[i + 1 :])
    assert ref.same_bytes(first, again)
    assert not ref.same_bytes(first, perturbed)


def _edit_records(text, edit):
    records = [json.loads(line) for line in text.splitlines()]
    for rec in records:
        edit(rec)
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def test_report_checks_reject_wrong_records():
    text = reports_to_lines(run_all("quick", seed=0, only="selfadjoint"))
    assert ref.check_report(text) == []

    def flip(rec):
        rec["passed"] = not rec["passed"]

    def fail(rec):
        rec["metric"] = 2 * rec["tolerance"]
        rec["passed"] = False

    def nudge(rec):
        rec["metric"] *= 1 + 1e-6

    for edit, expected in ((flip, "passed flag"), (fail, "> tolerance"), (nudge, "closed form")):
        problems = ref.check_report(_edit_records(text, edit))
        assert any(expected in p for p in problems), (edit.__name__, problems)

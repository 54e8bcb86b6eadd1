"""Command-line surface: CSV output, verify reports, SVG figures, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import numrange.cli as cli
from numrange.checks import CheckReport
from numrange.sweep import NotSelfAdjointError
from oracles import polygon_from_csv


def test_range_word01_symbol_hull_is_stadium(tmp_path):
    out = tmp_path / "stadium.csv"
    code = cli.main(
        ["range", "--word", "01", "--mode", "symbol-hull",
         "--num-theta", "180", "--num-phi", "180", "--out", str(out)]
    )
    assert code == 0
    poly = polygon_from_csv(out)
    xs, ys = poly.vertices.real, poly.vertices.imag
    assert xs.max() == pytest.approx(1.5, abs=1e-3)
    assert ys.max() == pytest.approx(0.5, abs=1e-3)
    assert xs.min() == pytest.approx(-1.5, abs=1e-3)


def test_range_constant_diagonal_is_single_point(capsys, tmp_path):
    args = ["range", "--spec", "p=2;a=0,0;b=1,1;c=0,0", "--num-theta", "16", "--num-phi", "4"]
    code = cli.main(args)
    assert code == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 2
    re_s, im_s = lines[1].split(",")
    assert float(re_s) == 1.0 and float(im_s) == 0.0
    out = tmp_path / "point.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_text() == text


def test_range_truncation_mode(tmp_path):
    out = tmp_path / "trunc.csv"
    code = cli.main(
        ["range", "--word", "01", "--mode", "truncation", "--k", "12",
         "--num-theta", "90", "--out", str(out)]
    )
    assert code == 0
    assert len(polygon_from_csv(out)) >= 8


def test_range_malformed_spec_exits_2(capsys):
    assert cli.main(["range", "--spec", "definitely-not-a-spec"]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["range", "--spec", "word=0"]) == 2
    # an unknown or a repeated field is an error, not ignored or overwritten
    assert cli.main(["range", "--spec", "p=2;a=0,1;b=0;c=1;q=7", "--mode", "truncation", "--k", "4"]) == 2
    assert cli.main(["range", "--spec", "p=2;a=0,1;b=0;c=1;c=2"]) == 2
    assert cli.main(["range", "--spec", "word=01;word=001"]) == 2
    assert cli.main(["range", "--word", "01", "--k", "0", "--mode", "truncation"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["range", "--word", "01", "--num-theta", "16", "--num-phi", "4"],
        ["verify", "--filter", "selfadjoint"],
        ["figure", "--n", "1", "--k", "4", "--num-theta", "16"],
    ],
    ids=["range", "verify", "figure"],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    # a usage error, not "a check failed" (1) and not a traceback
    out = tmp_path / "missing" / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


def test_range_requires_spec_or_word():
    with pytest.raises(SystemExit) as exc:
        cli.main(["range"])
    assert exc.value.code == 2


def test_back_to_back_calls_share_one_parser(capsys):
    # the parser is built once per process: a call after others prints what
    # it prints on a parser of its own, so no option leaks from one call to
    # the next (--k falls back to 128; an argparse error exits 2 in between)
    calls = [
        ["range", "--word", "01", "--mode", "truncation", "--k", "5", "--num-theta", "16"],
        ["range", "--word", "01", "--mode", "truncation", "--num-theta", "16"],
        ["range", "--word", "01", "--mode", "sideways"],
        ["verify", "--filter", "selfadjoint", "--seed", "3"],
        ["range", "--word", "01", "--mode", "truncation", "--k", "0"],
        ["range", "--spec", "p=2;a=0,1;b=0;c=1,0", "--num-theta", "16", "--num-phi", "4"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    together = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert together == alone
    assert [code for code, *_ in together] == [0, 0, 2, 0, 2, 0]
    assert together[1] == run(calls[1] + ["--k", "128"]) and together[0][1] != together[1][1]
    assert cli._build_parser() is cli._build_parser()


def test_cli_import_loads_every_layer_and_its_public_names():
    # the benchmark's tracer (perfbench/tracing.py) imports numrange.cli
    # alone, then looks up every name in each of these layers' __all__:
    # checked in a fresh process, where no other test has imported a layer
    layers = ("linalg", "operators", "geometry", "sweep", "ellipse", "checks", "cli")
    code = (
        "import sys, numrange.cli\n"
        f"for layer in {layers!r}:\n"
        "    module = sys.modules['numrange.' + layer]\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_verify_filtered_conjecture(capsys):
    code = cli.main(
        ["verify", "--profile", "quick", "--filter", "conjecture", "--n", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["passed"] for r in records)
    assert {r["name"] for r in records} >= {"conjecture_hull", "conjecture_symmetry"}


def test_verify_pair_axes_metrics_present(capsys):
    code = cli.main(
        ["verify", "--profile", "quick", "--filter", "conjecture", "--n", "2"]
    )
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    axes = [r for r in records if r["name"] == "conjecture_ellipse_axes"]
    assert len(axes) == 1
    assert axes[0]["metric"] <= 1e-6


def _raises(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize(
    "target, argv, error",
    [
        ("truncation_range", ["range", "--word", "01", "--mode", "truncation", "--k", "800"],
         MemoryError("Unable to allocate 7.4 GiB")),
        ("run_all", ["verify"], MemoryError("Unable to allocate 7.4 GiB")),
        ("run_all", ["verify"], NotSelfAdjointError("spec is not self-adjoint")),
    ],
)
def test_numeric_errors_exit_3(monkeypatch, capsys, target, argv, error):
    monkeypatch.setattr(cli, target, _raises(error))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"numeric error: {error}\n"


@pytest.mark.parametrize("mode", ["symbol-hull", "truncation"])
def test_range_overflow_exits_3(capsys, mode):
    # finite input whose symbol entries and Hermitian parts overflow
    argv = ["range", "--spec", "p=2;a=1e308,1e308;b=0;c=1e308", "--mode", mode,
            "--k", "6", "--num-theta", "16", "--num-phi", "4"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("numeric error: non-finite")


def test_range_hull_overflow_exits_3(capsys):
    # finite touch points about 1e160 across, whose hull turns overflow: the
    # hull raises, with no RuntimeWarning (the tests turn those into errors)
    argv = ["range", "--spec", "p=2;a=0,1e160;b=0;c=1e160", "--mode", "symbol-hull",
            "--num-theta", "180", "--num-phi", "180"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("numeric error: overflow")


def test_verify_unknown_filter_exits_2(capsys):
    assert cli.main(["verify", "--filter", "nonexistent"]) == 2
    assert "matches no check" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "9"], ["--n", "0"], ["--profile", "quick", "--n", "3"]])
def test_verify_n_outside_profile_exits_2(capsys, argv):
    # an n the profile does not check would run no conjecture check at all
    assert cli.main(["verify", "--filter", "conjecture", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_bad_profile_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--profile", "bogus"])
    assert exc.value.code == 2


def test_verify_reports_failure_with_exit_1(monkeypatch, capsys):
    failing = CheckReport(name="stub", metric=1.0, tolerance=0.5)
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: [failing])
    code = cli.main(["verify", "--profile", "quick"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED stub" in captured.err
    assert json.loads(captured.out.strip())["passed"] is False


def test_verify_writes_report_file(tmp_path):
    out = tmp_path / "report.jsonl"
    code = cli.main(
        ["verify", "--profile", "quick", "--filter", "stadium", "--out", str(out)]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert {r["name"] for r in records} == {"stadium_identity", "stadium_support_widths"}


def test_figure_outputs_deterministic_svg(tmp_path):
    out1 = tmp_path / "fig1.svg"
    out2 = tmp_path / "fig2.svg"
    args = ["figure", "--n", "1", "--k", "40", "--num-theta", "90"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    svg = out1.read_text()
    assert svg == out2.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2  # the two matrix-range boundaries
    assert svg.count("<circle") >= 90  # truncation sample points
    assert 'stroke="#d82f2f"' in svg and 'stroke="#1d8f3c"' in svg


def test_figure_rejects_bad_n():
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "--n", "0", "--out", "x.svg"])
    assert exc.value.code == 2


def test_figure_bad_num_theta_exits_2(capsys, tmp_path):
    out = tmp_path / "x.svg"
    assert cli.main(["figure", "--n", "1", "--num-theta", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_figure_bad_k_exits_2(capsys, tmp_path, k):
    out = tmp_path / "x.svg"
    assert cli.main(["figure", "--n", "1", "--k", k, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --k must be >= 1\n"
    assert not out.exists()


def test_write_svg_validates_layers(tmp_path):
    with pytest.raises(ValueError, match="layer"):
        cli.write_svg(str(tmp_path / "empty.svg"), [])
    with pytest.raises(ValueError, match="kind"):
        cli.write_svg(
            str(tmp_path / "bad.svg"), [("l", "blob", np.array([0j]), "blue")]
        )

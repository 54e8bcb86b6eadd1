"""Command-line front end: polygon CSVs, verification reports, figure SVGs.

Exit codes: 0 success, 1 at least one check failed, 2 usage or parse error
(an output path that cannot be written included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .checks import reports_to_lines, run_all
from .geometry import polygon_csv
from .linalg import NoConvergenceError
from .operators import PeriodSpec, SpecParseError, conjecture_specs
from .sweep import NotSelfAdjointError, SweepConfig, symbol_union_hull, truncation_range

__all__ = ["main", "write_svg"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    NoConvergenceError,
    NotSelfAdjointError,
    FloatingPointError,
    MemoryError,
)

_SVG_COLORS = {"blue": "#1f4fd8", "red": "#d82f2f", "green": "#1d8f3c"}


def write_svg(path: str, layers, width: int = 800, height: int = 600) -> None:
    """Render point and polygon layers to a standalone SVG.

    ``layers`` is an iterable of ``(label, kind, data, color)`` with kind
    ``"points"`` or ``"polygon"`` and data a complex array (polygon data is
    taken as closed).  Axes are autoscaled with a 5% margin, aspect ratio
    preserved; output is byte-deterministic for fixed input.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("need at least one layer")
    everything = np.concatenate([np.asarray(data, dtype=complex).ravel() for _, _, data, _ in layers])
    x_min, x_max = float(everything.real.min()), float(everything.real.max())
    y_min, y_max = float(everything.imag.min()), float(everything.imag.max())
    span_x = max(x_max - x_min, 1e-9)
    span_y = max(y_max - y_min, 1e-9)
    margin = 0.05
    scale = min(width / (span_x * (1 + 2 * margin)), height / (span_y * (1 + 2 * margin)))
    offset_x = 0.5 * width - scale * 0.5 * (x_min + x_max)
    offset_y = 0.5 * height + scale * 0.5 * (y_min + y_max)

    def to_px(z: complex) -> tuple[float, float]:
        return offset_x + scale * z.real, offset_y - scale * z.imag

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for label, kind, data, color in layers:
        stroke = _SVG_COLORS.get(color, color)
        zs = np.asarray(data, dtype=complex).ravel()
        if kind == "polygon":
            coords = " L ".join(f"{x:.3f},{y:.3f}" for x, y in map(to_px, zs))
            parts.append(
                f'<path id="{label}" d="M {coords} Z" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
            )
        elif kind == "points":
            parts.append(f'<g id="{label}" fill="{stroke}">')
            parts.extend(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2"/>' for x, y in map(to_px, zs)
            )
            parts.append("</g>")
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="numrange",
        description="Numerical ranges of periodic tridiagonal operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", help="emit a numerical-range polygon as CSV")
    group = p_range.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help='period spec, e.g. "p=2;a=0,1;b=0,0;c=1,1" or "word=01"')
    group.add_argument("--word", help='period word shorthand, e.g. "01"')
    p_range.add_argument("--mode", choices=["symbol-hull", "truncation"], default="symbol-hull")
    p_range.add_argument("--k", type=int, default=128, help="truncation size (truncation mode)")
    p_range.add_argument("--num-theta", type=int, default=720, help="support angles (default 720)")
    twist_help = "symbol-hull mode: twist resolution, which sets how finely the directions are refined"
    p_range.add_argument("--num-phi", type=int, default=720, help=f"{twist_help} (default 720)")
    p_range.add_argument("--out", default="-", help="output CSV path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--profile", choices=["quick", "full"], default="quick")
    p_verify.add_argument("--filter", help="only run checks whose name contains this string")
    p_verify.add_argument("--n", type=int, help="restrict conjecture checks to this n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default="-", help="report path (default stdout)")

    p_figure = sub.add_parser("figure", help="emit the figure for word 0^n 1 as SVG")
    p_figure.add_argument("--n", type=int, required=True, choices=[1, 2, 3])
    p_figure.add_argument(
        "--k", type=int, default=120,
        help="truncation size for sample points, >= 1; sizes below 2p, p = n + 1 the period, "
        "are raised to 2p (default 120)",
    )
    p_figure.add_argument("--num-theta", type=int, default=360)
    p_figure.add_argument("--out", required=True, help="output SVG path")
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_range(args) -> int:
    try:
        spec = PeriodSpec.parse(args.spec if args.spec else f"word={args.word}")
        cfg = SweepConfig(num_theta=args.num_theta, num_phi=args.num_phi)
        if args.k < 1:
            raise SpecParseError("--k must be >= 1")
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "truncation":
        poly = truncation_range(spec, args.k, cfg)
    else:
        poly = symbol_union_hull(spec, cfg)
    _emit(polygon_csv(poly), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        reports = run_all(
            args.profile, seed=args.seed, only=args.filter, conjecture_n=args.n
        )
    except _NUMERIC_ERRORS:  # some are ValueErrors, but not usage errors
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(reports_to_lines(reports), args.out)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAILED {r.name}: metric {r.metric:.3e} > tolerance {r.tolerance:.3e}",
              file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_figure(args) -> int:
    n = args.n
    spec = PeriodSpec.from_word("0" * n + "1")
    try:
        cfg = SweepConfig(num_theta=args.num_theta, num_phi=args.num_theta)
        if args.k < 1:
            raise ValueError("--k must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    k = max(args.k, 2 * spec.p)
    blue = truncation_range(spec, k, cfg).vertices
    red, green = (truncation_range(pair, n + 1, cfg).vertices for pair in conjecture_specs(n))
    write_svg(
        args.out,
        [
            (f"truncation-range-k{k}", "points", blue, "blue"),
            ("range-plus", "polygon", red, "red"),
            ("range-minus", "polygon", green, "green"),
        ],
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"range": _cmd_range, "verify": _cmd_verify, "figure": _cmd_figure}[args.command]
    try:
        return command(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

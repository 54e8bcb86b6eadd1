"""Benchmark of numrange: one workload per call, its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a numrange checkout; it imports the program from
``src``.  The workload runs in its own process (``worker.py``), which makes
whole rounds of ``numrange`` CLI calls for ``--seconds`` seconds.  This
process then checks every output against the reference support functions
of ``reference.py``, computed without numrange, and prints the metrics:
with ``--trace 0`` the end-to-end ones, with ``--trace 1`` the per-layer
ones of a traced run.  Workloads, seeds and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np

import reference as ref
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROBES = 5  # set-up probes before and again after the workload
WORKER_TIMEOUT_S = 150
# One BLAS thread: the machine has two cores, and one thread keeps the
# timings steady.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
N_THETA = 720
QUICK = 192  # num_theta = num_phi of the quick verify profile
# Time of worker.Calibration on the reference machine at its usual speed
# (perfbench/README.md); times are scaled to that speed.
CAL_REF_S = 0.110


class Op:
    """One CLI call of a round and how to check its output.

    ``reference`` (a function returning a ``reference.Reference``) marks a
    polygon output; ``in_gap`` says whether its support gap enters the
    ``support_gap`` metric.  Without a reference the output is a verify
    report.
    """

    def __init__(self, argv, reference=None, in_gap=True):
        self.argv = argv
        self.reference = cache(reference) if reference else None
        self.in_gap = in_gap


def _range(spec_args, mode, n, k=None):
    """``numrange range`` with ``n`` sweep angles (and ``n`` twist angles)."""
    argv = ["range", *spec_args, "--mode", mode, "--num-theta", str(n), "--num-phi", str(n)]
    return argv + (["--k", str(k)] if k else [])


def verify_quick(seed: int):
    """The quick verify profile at two seeds, and the two word-01 polygons
    that profile compares (hull and k=120 truncation)."""
    verify = lambda s: Op(["verify", "--profile", "quick", "--seed", str(s)])
    word01 = ref.word_spec("01")
    return [
        verify(seed),
        verify(seed + 1),
        Op(_range(["--word", "01"], "symbol-hull", QUICK),
           lambda: ref.stadium_reference(QUICK, QUICK)),
        Op(_range(["--word", "01"], "truncation", QUICK, k=120),
           lambda: ref.truncation_reference(word01, 120, QUICK)),
    ]


def symbol_hull(seed: int):
    """Union hulls at 720x720 of words 01, 001, 0001, in a seeded order."""
    ops = []
    for word in np.random.default_rng(seed).permutation(["01", "001", "0001"]):
        if word == "01":
            reference = lambda: ref.stadium_reference(N_THETA, N_THETA)
        else:
            reference = lambda w=word: ref.symbol_hull_reference(ref.word_spec(w), N_THETA, N_THETA)
        ops.append(Op(_range(["--word", word], "symbol-hull", N_THETA), reference))
    return ops


def random_spec(seed: int):
    """Period-3 spec with complex Gaussian entries, rounded to 3 decimals."""
    rng = np.random.default_rng(seed)
    draw = lambda: np.round((rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2), 3)
    return draw(), draw(), draw()


def truncation(seed: int):
    """Truncation ranges at 720 angles: word 01 at k = 120, 240 and 800, and
    a seeded period-3 spec at k = 150.  At k = 800 the dense batch needs
    more memory than the worker's cap, so that call fails on every run.
    The seeded polygon is checked but its gap, which depends on the seed,
    stays out of ``support_gap``."""
    word01 = ref.word_spec("01")
    spec = random_spec(seed)
    trunc = lambda s, k: lambda: ref.truncation_reference(s, k, N_THETA)
    return [
        Op(_range(["--word", "01"], "truncation", N_THETA, k=120), trunc(word01, 120)),
        Op(_range(["--spec", ref.spec_text(spec)], "truncation", N_THETA, k=150),
           trunc(spec, 150), in_gap=False),
        Op(_range(["--word", "01"], "truncation", N_THETA, k=240), trunc(word01, 240)),
        Op(_range(["--word", "01"], "truncation", N_THETA, k=800), trunc(word01, 800)),
    ]


WORKLOADS = {"verify-quick": verify_quick, "symbol-hull": symbol_hull, "truncation": truncation}


def _child(args, timeout):
    env = {**os.environ, **CHILD_ENV}
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, timeout=timeout, check=True, stdout=subprocess.PIPE, text=True,
    )


def probe_setup(run_dir: Path) -> list[float]:
    """Times of import plus a first small call, each in a fresh process and
    at reference speed."""
    times = []
    for _ in range(PROBES):
        probe = json.loads(_child(["--probe", str(run_dir)], 60).stdout.splitlines()[-1])
        if probe["exit"] != 0:
            raise RuntimeError(f"set-up call exited with {probe['exit']}")
        times.append(at_reference_speed(probe["setup_s"], probe["cal_s"]))
    return times


def check_outputs(ops, rounds) -> tuple[bool, int, int, float]:
    """Check every output of every round; returns correct, attempted,
    failed and the support gap.  A verify report must also be byte-identical
    to the report for the same seed in the first round."""
    problems, gaps = [], []
    attempted = failed = 0
    for rnd in rounds:
        for i, (op, res) in enumerate(zip(ops, rnd["ops"])):
            attempted += 1
            if res["error"] is not None or res["exit"] not in (0, 1):
                failed += 1
                continue
            if op.reference is None:
                with open(res["out"], encoding="utf-8") as fh:
                    problems += [f"op {i}: {p}" for p in ref.check_report(fh.read())]
                if not ref.same_bytes(rounds[0]["ops"][i]["out"], res["out"]):
                    problems.append(f"op {i}: report differs from the first round's")
                continue
            if res["exit"] != 0:
                problems.append(f"op {i}: exit {res['exit']}")
                continue
            gap, found = ref.check_polygon(ref.read_csv_polygon(res["out"]), op.reference())
            problems += [f"op {i} ({' '.join(op.argv)}): {p}" for p in found]
            if op.in_gap:
                gaps.append(gap)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return not problems, attempted, failed, max(gaps, default=float("nan"))


def at_reference_speed(seconds: float, cal_s: float) -> float:
    """A time scaled to the machine speed at which the calibration mix
    takes ``CAL_REF_S``, given what the mix took around it."""
    return seconds * CAL_REF_S / cal_s


def pass_seconds(rounds) -> float:
    """Time of one pass: the sum over operations of each one's median time
    across the rounds, each time at reference speed, so neither a slow
    spell of the machine during one round nor its speed in this run moves
    it."""
    per_op = zip(*[[at_reference_speed(op["seconds"], op["cal_s"]) for op in r["ops"]]
                   for r in rounds])
    return sum(statistics.median(times) for times in per_op)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "numrange" / "__init__.py").is_file():
        print(f"error: no numrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed)
        setup_times = probe_setup(run_dir)
        plan = {
            "ops": [op.argv for op in ops],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_path": str(OUT / f"trace-{args.workload}.jsonl"),
            "out_dir": str(run_dir),
        }
        (run_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        _child([str(run_dir / "plan.json"), str(run_dir / "result.json")], WORKER_TIMEOUT_S)
        setup_times += probe_setup(run_dir)
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        rounds = result["rounds"]
        correct, attempted, failed, gap = check_outputs(ops, rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = pass_seconds([r for r in rounds if not r["traced"]])
    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": unit} for k, unit in PER_LAYER.items()}
        overhead = pass_seconds([r for r in rounds if r["traced"]]) - untraced
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": untraced, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "support_gap": {"value": gap, "unit": "1"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

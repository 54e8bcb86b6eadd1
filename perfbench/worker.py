"""The workload process: rounds of ``numrange.cli.main`` calls, timed.

    python3 perfbench/worker.py PLAN.json RESULT.json
    python3 perfbench/worker.py --probe OUT_DIR

The plan lists the operations of one round (CLI argument lists without
``--out``), the run length and whether to trace.  The worker imports
numrange from the checkout's ``src``, makes one small warm-up call, then
runs whole rounds until the run length has passed, each operation writing
to its own file.  With tracing on, untraced and traced rounds alternate, so
the overhead of tracing is measured in the same process.  ``--probe``
times the import and a first small call, for the set-up figure.

A shared machine's CPU changes speed by itself, by 20 to 30 % over
seconds to minutes, and most kinds of work slow down together.  So the
worker runs a fixed calibration mix (``Calibration``) before the first
operation of a round and after each one, and a probe runs it after its
set-up call; the parent scales each time by how fast the machine ran
around it.

The process caps its address space before numpy is imported, so a request
for more memory than the cap fails with ``MemoryError`` instead of driving
the machine out of memory.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE_CAP = 3 * 2**30
SMALL_CALL = ["range", "--word", "01", "--num-theta", "16", "--num-phi", "16"]


class Calibration:
    """A fixed mix of the kinds of work numrange does, about 0.1 s: many
    tiny Hermitian eigensolves, a few mid-size ones, a Python loop over
    small array operations, and a sort of complex points as in a hull.
    Calling it returns the time the mix took."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def hermitian(shape):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return a + np.conj(np.swapaxes(a, -1, -2))

        self.np = np
        self.tiny = hermitian((20000, 3, 3))
        self.mid = hermitian((6, 150, 150))
        self.points = rng.standard_normal(100000) + 1j * rng.standard_normal(100000)

    def __call__(self) -> float:
        np = self.np
        start = perf_counter()
        np.linalg.eigvalsh(self.tiny)
        np.linalg.eigh(self.mid)
        head = self.points[:64]
        for _ in range(3000):
            np.abs(head - head[0]).max()
        order = np.lexsort((self.points.imag, self.points.real))
        np.diff(self.points[order]).real.sum()
        return perf_counter() - start


def _import_cli():
    # The machine's CPUs change speed independently of each other, so the
    # process stays on one of them, where the calibration measures it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(ROOT / "src"))
    import numrange.cli

    if not Path(numrange.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"numrange imported from {numrange.__file__}, not from {ROOT / 'src'}")
    return numrange.cli


def probe(out_dir: str) -> None:
    start = perf_counter()
    cli = _import_cli()
    code = cli.main(SMALL_CALL + ["--out", os.path.join(out_dir, "probe.csv")])
    setup_s = perf_counter() - start
    calibrate = Calibration()
    calibrate()  # warm: the first eigensolves load LAPACK
    print(json.dumps({"setup_s": setup_s, "cal_s": calibrate(), "exit": code}))


def _run_op(cli, argv):
    try:
        return cli.main(argv), None
    except MemoryError:
        return None, "MemoryError"
    except Exception:  # the program under test crashed: a failed operation
        return None, traceback.format_exc()


def run(plan: dict) -> dict:
    cli = _import_cli()
    cli.main(SMALL_CALL + ["--out", os.path.join(plan["out_dir"], "warmup.csv")])
    calibrate = Calibration()
    calibrate()
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    rounds = []
    start = perf_counter()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        ops = []
        cal = [calibrate()]
        round_start = perf_counter()
        for i, argv in enumerate(plan["ops"]):
            out = os.path.join(plan["out_dir"], f"r{r}-op{i}.out")
            op_start = perf_counter()
            with tracer.active(r) if traced else contextlib.nullcontext():
                code, error = _run_op(cli, argv + ["--out", out])
            seconds = perf_counter() - op_start
            cal.append(calibrate())
            ops.append({"exit": code, "error": error, "out": out, "seconds": seconds,
                        "cal_s": (cal[-2] + cal[-1]) / 2})
        rounds.append({"seconds": perf_counter() - round_start, "traced": traced, "ops": ops})
        if perf_counter() - start >= plan["seconds"] and (tracer is None or r % 2 == 1):
            break

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write_jsonl(plan["trace_path"])
        result["layers"] = tracer.layer_metrics(len(rounds) // 2)
    return result


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        probe(sys.argv[2])
    else:
        with open(sys.argv[1], encoding="utf-8") as fh:
            plan = json.load(fh)
        result = run(plan)
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)

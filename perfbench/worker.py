"""One workload in one fresh process: set up, run timed passes, report.

Started by ``run.py`` with BLAS threads pinned to 1.  Prints one JSON object
as the last line of its standard output.

Set-up (reported as ``setup_s``) is everything from the start of ``main``
to the end of one untimed warm-up operation: importing raikit and numpy,
generating the workload's inputs from the seed, and the warm-up itself.
With ``--setup-only`` the process stops there.

Otherwise it runs passes over the workload's operations, in process, until
its share of ``--seconds`` is used, then CLI passes (the workload's scenario
files through the console script, one subprocess each) for the rest.  With
``--trace 1`` the CLI passes are replaced by traced in-process passes, and
the untraced passes before them are the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

# What the ``raikit`` console script runs (pyproject: raikit = "raikit.cli:main").
CONSOLE = "import sys; from raikit.cli import main; sys.exit(main())"
MIN_PASSES = 2
CLI_TIMEOUT_S = 120
# Share of the measured time given to in-process passes; the rest goes to
# CLI passes (untraced run) or traced passes (traced run).  A bundled CLI pass
# takes about three in-process passes, so it gets more of the time.
INPROC_SHARE = {"bundled": 0.45, "ensemble": 0.6, "balance_checks": 0.6}
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def provenance() -> dict:
    import numpy as np

    import raikit

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        config = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    deps = config.get("Build Dependencies", {})
    return {
        "raikit": raikit.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "simd_build": config.get("SIMD Extensions"),
        "cpu_simd": sorted(k for k, v in __cpu_features__.items() if v),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# Reference speed.  On a shared 2-core machine the CPU speed drifted by up
# to 1.7x over tens of seconds, for all code alike, so every time the benchmark reports is
# scaled to a machine on which ``calibrate()`` takes CAL_REF_S: raw seconds
# times CAL_REF_S over the calibration time measured around them.  Raw
# times are kept in the full result file.
CAL_REF_S = 0.010


def calibrate() -> float:
    """Time a fixed mix of interpreter work and small numpy operations, the
    two kinds of work raikit's runs consist of.  Never change this routine:
    every reported time is relative to it."""
    import numpy as np

    start = perf_counter()
    total = 0
    for j in range(150_000):
        total += j
    a = np.ones(3)
    for _ in range(3_000):
        a = a * 1.0000001 + 0.0
    return perf_counter() - start


def speed_factor() -> float:
    """CAL_REF_S over the median of three calibrations."""
    return CAL_REF_S / sorted(calibrate() for _ in range(3))[1]


class Runner:
    """Runs operations and passes, counting attempts and failures.

    In an untraced pass every operation is bracketed by calibrations, and
    its time is scaled by the mean of the two; the pass time is the sum of
    its operations' scaled run-and-verify times (calibration excluded)."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.rec = None  # a tracing.Recorder during traced passes
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.records: dict[str, bytes | None] = {}
        self._reported = 0

    def _failure(self, what: str, exc: bool = False) -> None:
        self.failed += 1
        if self._reported < 3:
            self._reported += 1
            print(f"operation failed: {what}", file=sys.stderr)
            if exc:
                traceback.print_exc(file=sys.stderr)

    def run_op(self, op) -> tuple[float, float]:
        """Run and verify one operation; return (run, run + verify) seconds."""
        self.attempted += 1
        start = perf_counter()
        run_s = None
        try:
            result = self.wl.run(op)
            run_s = perf_counter() - start
            record, ok = self.wl.verify(op, result)
            del result
        except Exception:
            self.records[op.name] = None
            self._failure(op.name, exc=True)
            total_s = perf_counter() - start
            return (total_s if run_s is None else run_s), total_s
        total_s = perf_counter() - start
        self.records[op.name] = record
        if not ok:
            self._failure(op.name)
        return run_s, total_s

    def run_pass(self) -> tuple[float, float]:
        """Untraced pass; returns (scaled, raw) seconds."""
        gc.collect()
        scaled = raw = 0.0
        before = calibrate()
        for op in self.wl.ops:
            run_s, total_s = self.run_op(op)
            after = calibrate()
            factor = 2 * CAL_REF_S / (before + after)
            self.latency[op.name].append(run_s * factor)
            scaled += total_s * factor
            raw += total_s
            before = after
        return scaled, raw

    def run_traced_pass(self) -> tuple[float, float]:
        """Traced pass, calibrated before and after; returns (factor, raw)."""
        rec = self.rec
        gc.collect()
        before = calibrate()
        rec.reset()
        rec.enter("bench.pass")
        start = perf_counter()
        for op in self.wl.ops:
            rec.begin_op(op.name)
            self.run_op(op)
            rec.end_op()
        raw = perf_counter() - start
        rec.exit()
        return 2 * CAL_REF_S / (before + calibrate()), raw

    def run_cli_pass(self, out_root: Path) -> tuple[float, float]:
        """Scenario files through the console script, one process each;
        returns (scaled, raw) seconds."""
        done = []
        scaled = raw = 0.0
        before = calibrate()
        for c in self.wl.cli_ops:
            out = out_root / c.name
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CONSOLE, "--out-dir", str(out), c.command, c.ref],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CLI_TIMEOUT_S,
            )
            elapsed = perf_counter() - start
            after = calibrate()
            scaled += elapsed * 2 * CAL_REF_S / (before + after)
            raw += elapsed
            before = after
            done.append((c, proc, out))
        for c, proc, out in done:
            self.attempted += 1
            try:
                ok = self.wl.verify_cli(c, proc.returncode, out, self.records.get(c.op.name))
            except Exception:
                print(proc.stderr.decode(errors="replace"), file=sys.stderr, end="")
                self._failure(f"cli {c.command} {c.ref}", exc=True)
                continue
            if not ok:
                print(proc.stderr.decode(errors="replace"), file=sys.stderr, end="")
                self._failure(f"cli {c.command} {c.ref}")
        return scaled, raw


class PassTimer:
    """Starts another pass only if one more, at the median length so far,
    still ends within the run's time; the run then ends on time instead of
    overrunning by up to a pass."""

    def __init__(self, begin: float) -> None:
        self.begin = begin
        self.lengths: list[float] = []

    def timed(self, fn):
        start = perf_counter()
        out = fn()
        self.lengths.append(perf_counter() - start)
        return out

    def another(self, until_s: float) -> bool:
        lengths = sorted(self.lengths) or [0.0]
        return perf_counter() - self.begin + lengths[len(lengths) // 2] <= until_s


def main(argv: list[str] | None = None) -> int:
    t0 = perf_counter()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    work = Path(args.work_dir)
    wl = workloads.make(args.workload, args.seed, work)
    runner = Runner(wl)
    runner.run_op(wl.warmup_op())
    setup_raw = perf_counter() - t0
    result = {
        "setup_s": setup_raw * speed_factor(),
        "setup_raw_s": setup_raw,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    begin = perf_counter()
    timer = PassTimer(begin)
    walls = []
    while len(walls) < MIN_PASSES or timer.another(INPROC_SHARE[args.workload] * args.seconds):
        walls.append(timer.timed(runner.run_pass))
    result.update(walls=[w[0] for w in walls], raw_walls=[w[1] for w in walls],
                  op_latency_s=runner.latency)

    if args.trace:
        import tracing

        untraced_records = dict(runner.records)
        runner.rec = rec = tracing.Recorder()
        tracer = tracing.Tracer(rec)
        passes = []
        tracer.install()
        try:
            timer = PassTimer(begin)
            while not passes or timer.another(args.seconds):
                factor, raw = timer.timed(runner.run_traced_pass)
                layers = {
                    k: v * factor if k.endswith(("_s", "_us")) else v
                    for k, v in tracing.layer_metrics(rec, raw).items()
                }
                passes.append((raw * factor, raw, layers, tracing.accounted_s(rec),
                               dict(rec.hits), rec.records))
        finally:
            tracer.uninstall()
        passes.sort(key=lambda x: x[0])
        _, raw, layers, accounted, hits, spans = passes[(len(passes) - 1) // 2]
        result.update(
            traced_walls=[x[0] for x in passes],
            layers=layers,
            traced_raw_s=raw,
            accounted_raw_s=accounted,
            hits=hits,
            spans=spans,
            records_match=runner.records == untraced_records,
        )
    else:
        cli = []
        timer = PassTimer(begin)
        while not cli or timer.another(args.seconds):
            cli.append(timer.timed(lambda: runner.run_cli_pass(work / "cli")))
        result.update(cli_walls=[c[0] for c in cli], raw_cli_walls=[c[1] for c in cli])

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        provenance=provenance(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

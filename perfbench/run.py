"""raikit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh child processes (``worker.py``) with
BLAS threads pinned to 1: a few that only set up, for the median set-up
time, then one that measures for ``--seconds``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full result, with provenance and raw samples, is also written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("bundled", "ensemble", "balance_checks")
SETUP_RUNS = 5     # set-up samples per run: the measuring child plus four set-up-only ones
DEADLINE_S = 170   # whole run, all children included
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cli_wall_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"_s": "s", "_us": "us", "_mb": "MB", "_bytes": "bytes", "_share": "ratio"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> tuple[dict, list[str]]:
    work = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setups = [
            run_child([*common, "--work-dir", str(work / f"setup{i}"), "--setup-only"], deadline)
            for i in range(SETUP_RUNS - 1)
        ]
        main = run_child([*common, "--trace", str(trace), "--work-dir", str(work / "main")], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_samples = [s["setup_s"] for s in setups] + [main["setup_s"]]
    attempted = main["attempted"] + sum(s["attempted"] for s in setups)
    failed = main["failed"] + sum(s["failed"] for s in setups)
    walls = main["walls"]
    lines = [f"{'metric':<28}{'value':>14}  unit   detail"]

    def line(name, value, unit, detail=""):
        lines.append(f"{name:<28}{value:>14.6g}  {unit:<6} {detail}")

    metrics: dict[str, dict] = {}
    correct = failed == 0
    if trace:
        layers = dict(main["layers"])
        layers["trace.overhead_s"] = statistics.median(main["traced_walls"]) - statistics.median(walls)
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            line(name, value, layer_unit(name))
        raw, summed = main["traced_raw_s"], main["accounted_raw_s"]
        accounted = abs(summed - raw) <= 1e-3 * raw + 1e-4
        lines.append(
            f"layer self times + unattributed = {summed:.6f} s, traced pass = {raw:.6f} s "
            f"(raw seconds; {'adds up' if accounted else 'DOES NOT ADD UP'}); "
            f"unattributed share {layers['trace.unattributed_share']:.2%}"
        )
        lines.append(f"traced verdicts identical to untraced: {main['records_match']}")
        correct = correct and accounted and main["records_match"]
    else:
        per_op = [statistics.median(v) * 1e3 for v in main["op_latency_s"].values()]
        values = [
            ("setup_s", statistics.median(setup_samples), f"median of {len(setup_samples)} set-ups"),
            ("wall_s", statistics.median(walls), f"median of {len(walls)} passes"),
            ("op_ms_p50", statistics.median(per_op),
             f"{len(per_op)} operations, each its median over {len(walls)} passes"),
            ("op_ms_p90", statistics.quantiles(per_op, n=10, method="inclusive")[8],
             f"same {len(per_op)} operations"),
            ("cli_wall_s", statistics.median(main["cli_walls"]),
             f"median of {len(main['cli_walls'])} CLI passes"),
            ("peak_rss_mb", main["peak_rss_mb"], "ru_maxrss of the measuring process"),
        ]
        for name, value, detail in values:
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
            line(name, value, E2E_UNITS[name], detail)
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "worker": main,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    lines.insert(0, "provenance " + json.dumps(main["provenance"], sort_keys=True))
    return full, lines


def main(argv: list[str] | None = None) -> int:
    start = monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "raikit" / "__init__.py").is_file():
        print(f"error: no raikit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = start + DEADLINE_S * (len(results) + 1)
            full, lines = measure(name, args.seed, args.seconds, args.trace, deadline)
            print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
            print("\n".join(lines), flush=True)
            results.append(full)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

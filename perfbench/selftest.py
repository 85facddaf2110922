"""Tests of the benchmark harness itself (not part of the package suite).

    python3 -m pytest perfbench/selftest.py -q

Takes about half a minute: it runs one untraced and one traced pass of every
workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import raikit  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

COMMON = {
    "raikit.matrices.RowStochasticMatrix.__post_init__",
    "raikit.sequences.MatrixSequence.matrix",
}
# Which wrapped callables each workload must reach, and only these.
EXPECTED_HITS = {
    "bundled": COMMON | {
        "raikit.cli.run_scenario",
        "raikit.matrices.SubstochasticMatrix.__post_init__",
        "raikit.matrices.check_sia",
        "raikit.matrices.is_primitive",
        "raikit.matrices.spectral_radius",
        "raikit.matrices.schur_stability_by_reachability",
        "raikit.sequences.gossip_sequence",
        "raikit.graphs.strong_components",
        "raikit.graphs.is_aperiodic",
        "raikit.engine.run_rai",
        "raikit.engine.run_delayed_rai",
        "raikit.engine.classify",
        "raikit.engine.Trajectory.to_csv",
        "raikit.opinions.run_hk",
        "raikit.opinions.run_altafini",
        "raikit.opinions.modulus_consensus_verdict",
        "raikit.opinions.recover_structural_balance",
        "raikit.solvers.solve",
        "raikit.solvers.SolveResult.history_csv",
    },
    "ensemble": COMMON | {
        "raikit.sequences.gossip_sequence",
        "raikit.engine.run_rai",
        "raikit.engine.classify",
        "raikit.opinions.run_hk",
    },
    "balance_checks": COMMON | {
        "raikit.cli.run_scenario",
        "raikit.sequences.persistent_graph",
        "raikit.sequences.check_reciprocity",
        "raikit.sequences.check_uniform_cut_balance",
        "raikit.sequences.check_arc_balance",
        "raikit.graphs.all_cuts",
        "raikit.graphs.strong_components",
        "raikit.graphs.is_aperiodic",
        "raikit.graphs.cut_balance_certificate",
    },
}
# Per-layer metrics that must read zero where the workload bypasses the layer.
EXPECTED_ZERO = {
    "bundled": ["graphs.cuts_enumerated", "graphs.certificate_s", "sequences.check_s"],
    "ensemble": ["graphs.cuts_enumerated", "engine.export_s", "engine.trajectory_mb",
                 "cli.self_s", "solvers.iterations"],
    "balance_checks": ["solvers.iterations", "engine.steps", "engine.export_s", "opinions.hk_s"],
}


def _bindings() -> dict:
    """Every (module, name) -> object of the package's namespaces."""
    return {
        (mod.__name__, name): value
        for mod in tracing._raikit_modules()
        for name, value in vars(mod).items()
        if callable(value)
    }


def _methods() -> dict:
    return {
        (m, c, f): getattr(sys.modules[m], c).__dict__[f] for m, c, f, _, _ in tracing.METHODS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    a = workloads.make(name, 7, tmp_path / "a")
    b = workloads.make(name, 7, tmp_path / "b")
    c = workloads.make(name, 8, tmp_path / "c")
    assert a.input_bytes() == b.input_bytes()
    assert a.input_bytes() != c.input_bytes()
    files_a = sorted((tmp_path / "a").rglob("*.json"))
    files_b = sorted((tmp_path / "b").rglob("*.json"))
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrappers_fire_where_expected_and_leave_verdicts_alone(name, tmp_path):
    wl = workloads.make(name, 3, tmp_path)
    runner = Runner(wl)
    runner.run_pass()
    untraced = dict(runner.records)
    before, methods = _bindings(), _methods()

    runner.rec = rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        # no package namespace still holds an unwrapped original
        originals = {id(v) for v in before.values()}
        wrapped = {id(before[k]) for k, v in _bindings().items() if v is not before.get(k)}
        assert wrapped, "nothing was wrapped"
        assert not {id(v) for v in _bindings().values()} & wrapped
        _, raw = runner.run_traced_pass()
    finally:
        tracer.uninstall()

    assert _bindings() == before and _methods() == methods
    assert originals == {id(v) for v in _bindings().values()}
    assert set(rec.hits) == EXPECTED_HITS[name]
    assert runner.failed == 0
    assert runner.records == untraced
    assert abs(tracing.accounted_s(rec) - raw) <= 1e-3 * raw + 1e-4
    metrics = tracing.layer_metrics(rec, raw)
    for key in EXPECTED_ZERO[name]:
        assert metrics[key] == 0, key
    assert metrics["matrices.validations"] > 0 and metrics["sequences.lookups"] > 0


def test_every_wrapper_fires_on_some_workload():
    assert set(tracing.TARGETS) == set().union(*EXPECTED_HITS.values())


def _wrong_classify(traj):
    verdict = raikit.engine.classify(traj)
    return type(verdict)(
        statuses=verdict.statuses,
        consensus=not verdict.consensus,
        consensus_value=verdict.consensus_value,
        residual_vanishes=verdict.residual_vanishes,
        common_divergence=verdict.common_divergence,
    )


def test_wrong_verdicts_and_exceptions_count_as_failures(tmp_path, monkeypatch):
    ensemble = workloads.make("ensemble", 5, tmp_path / "e")
    bundled = workloads.make("bundled", 5, tmp_path / "b")
    gossip = next(op for op in ensemble.ops if op.kind == "gossip")
    hk = next(op for op in ensemble.ops if op.kind == "hk")
    sim = next(op for op in bundled.ops if op.name == "french_leader_chain")

    monkeypatch.setattr(raikit, "classify", _wrong_classify)
    monkeypatch.setattr(raikit.cli, "classify", _wrong_classify)
    monkeypatch.setattr(raikit, "run_hk", lambda *a, **k: 1 / 0)
    runner = Runner(ensemble)
    runner.run_op(gossip)
    runner.run_op(hk)
    assert (runner.failed, runner.attempted) == (2, 2)
    runner = Runner(bundled)
    runner.run_op(sim)
    assert (runner.failed, runner.attempted) == (1, 1)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = tracing.layer_metrics(tracing.Recorder(), 1.0)
    names = list(layers) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

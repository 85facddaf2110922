"""Command line behavior: exit codes, artifacts, determinism, catalog."""

import ast
import json
import os
import subprocess
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

import raikit.cli
from raikit import Trajectory, WeightedDigraph, strong_components
from raikit.cli import SCHEMA_VERSION, list_bundled, main, run_scenario

BUNDLED = [
    "altafini_balanced",
    "altafini_unbalanced",
    "delay_2agent_oscillation",
    "delayed_ring_period4",
    "french_leader_chain",
    "gossip_silence_ring",
    "hk_pure",
    "hk_truth_seekers",
    "quasi_strong_rai_oscillation",
    "solve_linear_convex_blend",
    "solve_linear_double_project",
    "solve_linear_pre_project",
    "static_sia_family",
    "substochastic_stability_grid",
]


def _write(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _rai_scenario(name="tiny", steps=500, seed=0, **extra):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "kind": "simulate_rai",
        "seed": seed,
        "parameters": {
            "sequence": {"kind": "constant", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "x0": [1.0, 0.0],
            "steps": steps,
            "policy": {"kind": "vanishing_random", "scale": 0.01, "decay": 0.9},
        },
    }
    sc.update(extra)
    return sc


def test_list_covers_all_bundled(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUNDLED:
        assert name in out


def test_list_json_catalog(capsys):
    assert main(["--format", "json", "list"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(r["name"] for r in rows) == BUNDLED
    assert all(r["kind"] and r["description"] for r in rows)


def test_bundled_convergent_scenario_exit_zero(tmp_path):
    assert main(["--out-dir", str(tmp_path), "simulate", "french_leader_chain"]) == 0
    assert (tmp_path / "french_leader_chain.verdict.json").exists()
    assert (tmp_path / "french_leader_chain.trajectory.csv").exists()
    verdict = json.loads((tmp_path / "french_leader_chain.verdict.json").read_text())
    assert verdict["exit_code"] == 0
    assert verdict["verdict"]["consensus"] is True


def test_bundled_oscillation_exit_three(tmp_path):
    assert main(["--out-dir", str(tmp_path), "simulate", "delayed_ring_period4"]) == 3


def test_malformed_json_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["--out-dir", str(tmp_path), "simulate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad-json:")
    assert err.count("\n") == 1


def test_schema_version_checked(tmp_path, capsys):
    ref = _write(tmp_path, _rai_scenario(schema_version=99))
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err.startswith("error: schema:")


def test_unknown_kind_rejected(tmp_path, capsys):
    ref = _write(tmp_path, _rai_scenario(kind="simulate_weather"))
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err.startswith("error: schema:")


def test_subcommand_kind_mismatch(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "analyze", "french_leader_chain"]) == 2
    assert "not handled" in capsys.readouterr().err


def test_missing_scenario_exit_two(capsys):
    assert main(["simulate", "no_such_scenario_anywhere"]) == 2
    assert capsys.readouterr().err.startswith("error: io:")


def test_invalid_parameters_exit_two(tmp_path, capsys):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "bad_hk",
        "kind": "simulate_hk",
        "parameters": {"x0": [0.0, 1.0], "epsilon": -2.0},
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err.startswith("error: validation:")


def test_empty_initial_vector_exit_two(tmp_path, capsys):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "empty_hk",
        "kind": "simulate_hk",
        "parameters": {"x0": [], "epsilon": 1.0},
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err == "error: validation: initial vector must be nonempty\n"
    assert not (tmp_path / "empty_hk.verdict.json").exists()


def test_delay_period_not_matching_tables_exit_two(tmp_path, capsys):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "bad_delays",
        "kind": "simulate_rai",
        "parameters": {
            "sequence": {"kind": "constant", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "delays": {"d_star": 1, "period": 3, "tables": [[[0, 1], [0, 0]]]},
            "history": [[0.0, 1.0], [1.0, 0.0]],
            "steps": 100,
        },
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1
    assert not (tmp_path / "bad_delays.verdict.json").exists()


def test_byte_determinism_and_seed_override(tmp_path):
    ref = _write(tmp_path, _rai_scenario(seed=4))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_scenario(ref, out_dir=a) == 0
    assert run_scenario(ref, out_dir=b) == 0
    assert (a / "tiny.trajectory.csv").read_bytes() == (b / "tiny.trajectory.csv").read_bytes()
    assert (a / "tiny.verdict.json").read_bytes() == (b / "tiny.verdict.json").read_bytes()
    assert run_scenario(ref, out_dir=c, seed=5) == 0
    assert (a / "tiny.trajectory.csv").read_bytes() != (c / "tiny.trajectory.csv").read_bytes()


@pytest.mark.parametrize(
    "name",
    ["gossip_silence_ring", "delay_2agent_oscillation", "altafini_unbalanced", "hk_truth_seekers"],
)
def test_trajectory_csv_is_streamed_with_the_bytes_of_to_csv(name, tmp_path, monkeypatch):
    runs = []
    csv_blocks = Trajectory.csv_blocks

    def recorded(traj):
        runs.append(traj)
        return csv_blocks(traj)

    def whole_text(traj):
        raise AssertionError("the CLI built the whole CSV in one string")

    monkeypatch.setattr(Trajectory, "csv_blocks", recorded)
    monkeypatch.setattr(Trajectory, "to_csv", whole_text)
    run_scenario(name, out_dir=tmp_path)
    monkeypatch.undo()
    assert len(runs) == 1
    written = (tmp_path / f"{name}.trajectory.csv").read_bytes()
    assert written == runs[0].to_csv().encode()


def test_json_trajectory_format(tmp_path):
    ref = _write(tmp_path, _rai_scenario())
    assert run_scenario(ref, out_dir=tmp_path, fmt="json") == 0
    obj = json.loads((tmp_path / "tiny.trajectory.json").read_text())
    assert len(obj["states"]) == 501


def test_output_name_overrides(tmp_path):
    sc = _rai_scenario(outputs={"verdict": "v.json", "trajectory": "t.csv"})
    ref = _write(tmp_path, sc)
    assert run_scenario(ref, out_dir=tmp_path) == 0
    assert (tmp_path / "v.json").exists()
    assert (tmp_path / "t.csv").exists()


def test_analyze_graph_scenario(tmp_path):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "leader_graph",
        "kind": "analyze_graph",
        "parameters": {
            "graph": {
                "n": 3,
                "weights": [[1.0, 0, 0], [0.5, 0.5, 0], [0, 0.5, 0.5]],
            }
        },
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "analyze", ref]) == 0
    v = json.loads((tmp_path / "leader_graph.verdict.json").read_text())
    assert v["is_quasi_strong"] is True
    assert v["is_strong"] is False
    assert v["cut_balance"]["balanced"] is False
    assert v["cut_balance"]["witness_cut"] is not None


def test_check_sequence_scenario(tmp_path):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "gossip_check",
        "kind": "check_sequence",
        "parameters": {
            "sequence": {
                "kind": "gossip",
                "n": 3,
                "schedule": [[0, 1], [1, 2], [2, 0]],
                "alphas": 0.5,
                "fire_times": [0, 1, 2],
                "period": 3,
            },
            "M": 3,
            "T": 0,
            "L": 2,
        },
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "check", ref]) == 0
    v = json.loads((tmp_path / "gossip_check.verdict.json").read_text())
    assert v["reciprocity"]["holds"] is True
    assert v["reciprocity"]["exact"] is True
    assert sorted(map(tuple, v["persistent_arcs"])) == sorted(
        [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)]
    )


def test_check_goes_through_the_four_public_checkers(tmp_path, monkeypatch):
    calls = []
    names = ("persistent_graph", "check_reciprocity", "check_uniform_cut_balance", "check_arc_balance")
    for name in names:
        checker = getattr(raikit.cli, name)

        def counted(*args, _name=name, _checker=checker):
            calls.append(_name)
            return _checker(*args)

        monkeypatch.setattr(raikit.cli, name, counted)
    rng = np.random.default_rng(7)
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "generated_check",
        "kind": "check_sequence",
        "parameters": {
            "sequence": {
                "kind": "gossip",
                "n": 4,
                "schedule": [[i, (i + 1) % 4] for i in range(4)] * 3,
                "alphas": [float(a) for a in rng.uniform(0.1, 0.9, 12)],
                "fire_times": sorted(int(t) for t in rng.choice(40, 12, replace=False)),
            },
            "M": 2,
            "T": 1,
            "L": 3,
        },
    }
    assert main(["--out-dir", str(tmp_path), "check", _write(tmp_path, sc)]) == 0
    assert calls == list(names)
    v = json.loads((tmp_path / "generated_check.verdict.json").read_text())
    assert {"reciprocity", "uniform_cut_balance", "arc_balance"} <= set(v)


def test_cli_imports_no_private_name_from_sequences():
    cli = Path(__file__).resolve().parents[1] / "src" / "raikit" / "cli.py"
    imported = [
        alias.name
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "sequences" and node.level == 1
        for alias in node.names
    ]
    assert "persistent_graph" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_every_bundled_scenario_has_a_golden():
    golden = Path(__file__).resolve().parents[1] / "src" / "raikit" / "scenarios" / "golden"
    for name in BUNDLED:
        assert (golden / f"{name}.verdict.json").exists(), name


def test_solver_scenario_writes_history(tmp_path):
    assert main(["--out-dir", str(tmp_path), "solve", "solve_linear_pre_project"]) == 0
    hist = (tmp_path / "solve_linear_pre_project.history.csv").read_text()
    assert hist.splitlines()[0] == "iteration,disagreement,violation"


def test_ball_center_of_the_wrong_rank_exit_two(tmp_path, capsys):
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "flat_ball",
        "kind": "solve_fixedpoint",
        "parameters": {
            "W": {"kind": "constant", "matrix": [[1.0]]},
            "algorithm": "pre_project",
            "initial": [[3.0, 4.0]],
            "sets": [{"kind": "ball", "center": [[0.0, 0.0]], "r": 1.0}],
        },
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "solve", ref]) == 2
    assert capsys.readouterr().err == "error: validation: ball center must be a 1-D vector, got shape (1, 2)\n"
    assert not (tmp_path / "flat_ball.verdict.json").exists()


def _overflow_scenario():
    """A cyclic weight matrix with a huge constant disturbance: the state
    passes -1.8e308 and becomes non-finite at step 351 (seed 0)."""
    sc = _rai_scenario(name="overflow", steps=400)
    sc["parameters"].update(
        sequence={"kind": "constant", "matrix": [[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]]},
        x0=[1.0, 2.0, 3.0],
        policy={"kind": "constant_random", "scale": 1e306},
    )
    return sc


def test_non_finite_state_exit_two(tmp_path, capsys):
    ref = _write(tmp_path, _overflow_scenario())
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err == "error: validation: state became non-finite at step 351\n"
    assert not (tmp_path / "overflow.verdict.json").exists()


def test_non_finite_state_console_stderr_is_one_line(tmp_path):
    """Run as a process, numpy's overflow warnings must not reach stderr."""
    ref = _write(tmp_path, _overflow_scenario())
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from raikit.cli import main; sys.exit(main())",
         "--out-dir", str(tmp_path), "simulate", ref],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: validation: state became non-finite at step 351\n"


def test_trajectory_shorter_than_tail_window_exit_two(tmp_path, capsys):
    ref = _write(tmp_path, _rai_scenario(name="short", steps=5))
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation: trajectory too short to classify")
    assert err.count("\n") == 1
    assert not (tmp_path / "short.verdict.json").exists()


def test_trajectory_as_long_as_its_tail_window_exit_two(tmp_path, capsys):
    sc = _rai_scenario(name="tail", steps=50)
    sc["parameters"]["policy"] = {"kind": "zero"}
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    err = capsys.readouterr().err
    assert err == "error: validation: trajectory too short to classify: 50 steps, need more than 50\n"
    assert not (tmp_path / "tail.verdict.json").exists()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("vanishing_random", "need a finite scale >= 0 and 0 < decay < 1"),
        ("constant_random", "scale must be a finite number >= 0"),
    ],
)
def test_nan_disturbance_scale_exit_two(tmp_path, capsys, kind, message):
    """Rejected when the policy is built, not blamed on the state later."""
    sc = _rai_scenario(name="nan_scale")
    sc["parameters"]["policy"] = {"kind": kind, "scale": float("nan"), "decay": 0.9}
    ref = _write(tmp_path, sc)
    assert '"scale": NaN' in Path(ref).read_text()
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err == f"error: validation: {message}\n"
    assert not (tmp_path / "nan_scale.verdict.json").exists()


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_policy_seed_exit_two(tmp_path, capsys, seed):
    """Rejected when the policy is built, with the policy's own message."""
    sc = _rai_scenario(name="bad_seed")
    sc["parameters"]["policy"] = {"kind": "constant_random", "scale": 0.1, "seed": seed}
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert capsys.readouterr().err == f"error: validation: seed must be an integer >= 0, got {seed}\n"
    assert not (tmp_path / "bad_seed.verdict.json").exists()


def test_altafini_default_balance_horizon_reads_the_whole_period(tmp_path):
    """The default horizon is the period.  Its last quarter alone (step 3,
    the identity) missed the sign conflict between steps 0 and 1."""
    step0, step1, eye = np.eye(3), np.eye(3), np.eye(3)
    step0[0, :2] = [0.5, -0.5]
    step1[0, :2] = [0.5, 0.5]
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "period_conflict",
        "kind": "simulate_altafini",
        "parameters": {
            "matrices": [m.tolist() for m in (step0, step1, eye, eye)],
            "period": 4,
            "x0": [1.0, -0.5, 0.25],
            "steps": 200,
        },
    }
    run_scenario(_write(tmp_path, sc), out_dir=tmp_path)
    v = json.loads((tmp_path / "period_conflict.verdict.json").read_text())
    assert v["balance"] == {"balanced": False, "gauge": None}


def test_analyze_graph_components_are_sorted(tmp_path):
    """Nodes 1 and 8 form the only nontrivial component; each component is
    written sorted, in the order classification and aperiodic_components use."""
    w = [[0.0] * 9 for _ in range(9)]
    w[1][8] = w[8][1] = 1.0
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "pair",
        "kind": "analyze_graph",
        "parameters": {"graph": {"n": 9, "weights": w}},
    }
    ref = _write(tmp_path, sc)
    assert main(["--out-dir", str(tmp_path), "analyze", ref]) == 0
    v = json.loads((tmp_path / "pair.verdict.json").read_text())
    assert v["components"] == [[0], [1, 8], [2], [3], [4], [5], [6], [7]]
    dec = strong_components(WeightedDigraph(n=9, weights=np.array(w)))
    assert v["components"] == [sorted(c) for c in dec.components]
    assert len(v["classification"]) == len(v["aperiodic_components"]) == 8


@pytest.mark.parametrize(
    "kind, parameters",
    [
        ("check_sequence", {"sequence": {"kind": "explicit", "matrices": []}, "M": 1, "T": 0, "L": 1}),
        (
            "simulate_rai",
            {"sequence": {"kind": "explicit", "matrices": []}, "x0": [1.0, 0.0], "steps": 10},
        ),
        ("simulate_altafini", {"matrices": [], "x0": [1.0, 0.0], "steps": 10}),
    ],
)
def test_empty_explicit_sequence_exit_two(tmp_path, capsys, kind, parameters):
    sc = {"schema_version": SCHEMA_VERSION, "name": "empty", "kind": kind, "parameters": parameters}
    assert run_scenario(_write(tmp_path, sc), out_dir=tmp_path) == 2
    assert capsys.readouterr().err == "error: validation: explicit sequence must be nonempty\n"
    assert not (tmp_path / "empty.verdict.json").exists()


def test_analyze_graph_constant_of_overflowing_cut_flows(tmp_path):
    """Every cut flow of this graph overflows a double; C is 2.0 exactly."""
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "huge_flows",
        "kind": "analyze_graph",
        "parameters": {
            "graph": {"n": 3, "weights": [[0, 1e308, 1e308], [1e308, 0, 0.5], [1e308, 1e308, 0]]}
        },
    }
    assert main(["--out-dir", str(tmp_path), "analyze", _write(tmp_path, sc)]) == 0
    v = json.loads((tmp_path / "huge_flows.verdict.json").read_text())
    assert v["cut_balance"] == {"balanced": True, "constant_C": 2.0, "witness_cut": None}


def test_analyze_graph_constant_beyond_the_double_range_exit_two(tmp_path, capsys):
    """C = 1e300 / 1e-300 has no double: one validation line, no verdict."""
    sc = {
        "schema_version": SCHEMA_VERSION,
        "name": "ratio_overflow",
        "kind": "analyze_graph",
        "parameters": {"graph": {"n": 2, "weights": [[0, 1e300], [1e-300, 0]]}},
    }
    assert main(["--out-dir", str(tmp_path), "analyze", _write(tmp_path, sc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation: cut constant is not finite") and err.count("\n") == 1
    assert not (tmp_path / "ratio_overflow.verdict.json").exists()


def test_run_too_large_to_allocate_exit_two(tmp_path, capsys):
    """10^15 steps need petabytes of states: the allocation fails at once,
    before anything is allocated, and ends in a validation error."""
    sc = _rai_scenario(name="huge", steps=10**15)
    sc["parameters"]["policy"] = {"kind": "zero"}
    ref = _write(tmp_path, sc)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    assert main(["--out-dir", str(tmp_path), "simulate", ref]) == 2
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 50 * 1024
    err = capsys.readouterr().err
    assert err.startswith("error: validation: Unable to allocate ") and err.count("\n") == 1
    assert not (tmp_path / "huge.verdict.json").exists()

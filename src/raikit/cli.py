"""Config-driven command line front door.

Scenarios are JSON files ({"schema_version": 1, "name", "kind",
"parameters", "seed", "outputs"}) dispatched to the library modules; each
run writes a verdict JSON and, for simulations, a trajectory artifact.
Exit codes: 0 success, 2 validation error (one machine-parsable line on
stderr; a run whose state becomes non-finite ends here too, since it has
no verdict), 3 mathematical non-convergence (the run itself is fine, but
some agent failed to converge or the solver gave up).  Identical scenario and
seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .engine import POLICY_KINDS, DelaySpec, DisturbancePolicy, classify, run_delayed_rai, run_rai
from .graphs import (
    WeightedDigraph,
    cut_balance_certificate,
    dump_json,
    graph_from_edgelist,
    is_aperiodic,
    json_form,
    strong_components,
)
from .matrices import (
    RowStochasticMatrix,
    SubstochasticMatrix,
    check_sia,
    is_primitive,
    schur_stability_by_reachability,
    spectral_radius,
)
from .opinions import (
    HkConfig,
    SignedMatrixSequence,
    hk_weights,
    modulus_consensus_verdict,
    recover_structural_balance,
    run_altafini,
    run_hk,
)
from .sequences import (
    MatrixSequence,
    check_arc_balance,
    check_reciprocity,
    check_uniform_cut_balance,
    gossip_sequence,
    persistent_graph,
)
from .solvers import ConvexProjector, MultiAgentProblem, solve
from .tolerances import MAX_ITERS, SOLVER_TOL, hk_step_cap

SCHEMA_VERSION = 1
SUBCOMMAND_KINDS = {
    "analyze": ("analyze_graph", "analyze_matrix"),
    "check": ("check_sequence",),
    "simulate": ("simulate_rai", "simulate_hk", "simulate_altafini"),
    "solve": ("solve_fixedpoint",),
}

_SCENARIO_DIR = Path(__file__).parent / "scenarios"


class ScenarioError(Exception):
    """Validation failure; rendered as the one-line exit-2 error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float), "integer": int}
# Exact types, as json.loads makes them, so a bool is no integer here.
_ARRAY_ITEMS = {"integer array": {int, list}, "number array": {int, float, list}}
_REQUIRED = object()


def _is_json(value, kind: str) -> bool:
    if " or " in kind:
        return any(_is_json(value, k) for k in kind.split(" or "))
    if kind in _ARRAY_ITEMS:
        if type(value) is not list:
            return False
        while (types := set(map(type, value))) == {list}:  # a regular nest: one level at a time
            value = list(chain.from_iterable(value))
        nested = list in types and not all(type(v) is not list or _is_json(v, kind) for v in value)
        return types <= _ARRAY_ITEMS[kind] and not nested
    return isinstance(value, _TYPES[kind]) and (kind == "boolean" or not isinstance(value, bool))


def _field(obj, key: str, kind: str, default=_REQUIRED):
    """``obj[key]``, where ``obj`` must be a JSON object and the value a JSON
    ``kind``: only a "boolean" may be a bool, an "integer" is never a float,
    an "integer array" or a "number array" holds integers or numbers at any
    depth, as in [[0, 1]], and "number or number array" takes either.
    ``default`` stands in for an absent key; without one it is an error."""
    if not isinstance(obj, dict):
        raise ScenarioError("schema", f"expected an object with {key!r}, got {reprlib.repr(obj)}")
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError("schema", f"missing parameter {key!r}")
        return default
    if not _is_json(obj[key], kind):
        raise ScenarioError("schema", f"{key!r} must be a JSON {kind}, got {reprlib.repr(obj[key])}")
    return obj[key]


def sequence_from_json_obj(obj: dict) -> MatrixSequence:
    """Build a matrix sequence from its JSON config.  Kinds: constant,
    explicit, gossip, hk_induced (the averaging matrices realized along a
    truth-free bounded-confidence run, frozen once the run freezes)."""
    kind = obj.get("kind")
    if kind == "constant":
        return MatrixSequence.constant(np.asarray(_field(obj, "matrix", "number array"), dtype=float))
    if kind == "explicit":
        mats = [np.asarray(m, dtype=float) for m in _field(obj, "matrices", "number array")]
        return MatrixSequence.explicit(mats, period=_field(obj, "period", "integer", 0))
    if kind == "gossip":
        return gossip_sequence(
            n=_field(obj, "n", "integer"),
            schedule=_field(obj, "schedule", "integer array"),
            alphas=_field(obj, "alphas", "number or number array"),
            fire_times=_field(obj, "fire_times", "integer array"),
            eta=float(_field(obj, "eta", "number", 0.05)),
            period=_field(obj, "period", "integer", 0),
        )
    if kind == "hk_induced":
        epsilon = float(_field(obj, "epsilon", "number"))
        x0 = np.asarray(_field(obj, "x0", "number array"), dtype=float)
        max_steps = _field(obj, "max_steps", "integer", hk_step_cap(x0.shape[0]))
        traj, _ = run_hk(x0, HkConfig(epsilon=epsilon), max_steps)
        states = traj.states
        last = states.shape[0] - 1

        def induced(k: int):
            return hk_weights(states[min(k, last)], epsilon)

        return MatrixSequence.from_generator(induced, n=x0.shape[0])
    raise ScenarioError("schema", f"unknown sequence kind {kind!r}")


def _policy_from(obj, default_seed: int) -> DisturbancePolicy:
    if obj is None:
        return DisturbancePolicy.zero()
    for key, kind in POLICY_KINDS.get(_field(obj, "kind", "string"), {}).items():
        _field(obj, key, kind, None if key == "seed" else _REQUIRED)
    return DisturbancePolicy.from_json_obj(obj, default_seed)


def _projector_from(obj: dict) -> ConvexProjector:
    kind = _field(obj, "kind", "string")
    if kind == "hyperplane":
        return ConvexProjector.hyperplane(_field(obj, "a", "number array"), _field(obj, "b", "number"))
    if kind == "halfspace":
        return ConvexProjector.halfspace(_field(obj, "a", "number array"), _field(obj, "b", "number"))
    if kind == "ball":
        return ConvexProjector.ball(_field(obj, "center", "number array"), _field(obj, "r", "number"))
    if kind == "box":
        return ConvexProjector.box(_field(obj, "lo", "number array"), _field(obj, "hi", "number array"))
    if kind == "affine_subspace":
        return ConvexProjector.affine_subspace(_field(obj, "A", "number array"), _field(obj, "b", "number array"))
    raise ScenarioError("schema", f"unknown set kind {kind!r}")


def _graph_from(params: dict) -> WeightedDigraph:
    if "graph" in params:
        g = _field(params, "graph", "object")
        weights = np.asarray(_field(g, "weights", "number array"), dtype=float)
        return WeightedDigraph(n=_field(g, "n", "integer"), weights=weights)
    if "edgelist" in params:
        n = _field(params, "n", "integer", None)
        return graph_from_edgelist(_field(params, "edgelist", "string"), n=n)
    raise ScenarioError("schema", "analyze_graph needs 'graph' or 'edgelist'")


def _run_analyze_graph(params: dict, seed: int) -> tuple[dict, int, dict]:
    g = _graph_from(params)
    dec = strong_components(g)
    verdict = {
        "n": g.n,
        "components": [sorted(c) for c in dec.components],
        "classification": list(dec.classification),
        "is_strong": dec.is_strong,
        "is_quasi_strong": dec.is_quasi_strong,
        "aperiodic_components": [is_aperiodic(g, comp) for comp in dec.components],
        "cut_balance": cut_balance_certificate(g).to_json_obj(),
    }
    return verdict, 0, {}


def _run_analyze_matrix(params: dict, seed: int) -> tuple[dict, int, dict]:
    results = []
    for entry in _field(params, "matrices", "array"):
        name = _field(entry, "name", "string", f"matrix_{len(results)}")
        rows = np.asarray(_field(entry, "rows", "number array"), dtype=float)
        if _field(entry, "substochastic", "boolean", False):
            A = SubstochasticMatrix(n=rows.shape[0], entries=rows)
            results.append(
                {
                    "name": name,
                    "substochastic": True,
                    "spectral_radius": spectral_radius(A),
                    **schur_stability_by_reachability(A).to_json_obj(),
                    "deficiency_set": sorted(A.deficiency_set),
                }
            )
        else:
            W = RowStochasticMatrix(n=rows.shape[0], entries=rows)
            results.append(
                {
                    "name": name,
                    "substochastic": False,
                    **check_sia(W).to_json_obj(),
                    "primitive": is_primitive(W),
                }
            )
    return {"results": results}, 0, {}


def _run_check_sequence(params: dict, seed: int) -> tuple[dict, int, dict]:
    seq = sequence_from_json_obj(_field(params, "sequence", "object"))
    M = _field(params, "M", "integer", 1)
    T = _field(params, "T", "integer", 0)
    L = _field(params, "L", "integer", 0)
    pg = persistent_graph(seq)
    reciprocity = check_reciprocity(seq, M, T)
    verdict = {
        "persistent_arcs": json_form(pg.graph.arc_set()),
        "persistent_exact": pg.exact,
        "reciprocity": reciprocity.to_json_obj(),
        "uniform_cut_balance": check_uniform_cut_balance(seq, L).to_json_obj(),
        "arc_balance": check_arc_balance(seq, L).to_json_obj(),
    }
    return verdict, 0, {}


def _run_simulate_rai(params: dict, seed: int) -> tuple[dict, int, dict]:
    seq = sequence_from_json_obj(_field(params, "sequence", "object"))
    steps = _field(params, "steps", "integer")
    policy = _policy_from(_field(params, "policy", "object", None), seed)
    if "delays" in params:
        spec = _field(params, "delays", "object")
        _field(spec, "tables", "integer array")  # DelaySpec checks d_star and period itself
        delays = DelaySpec.from_json_obj(spec)
        history = [np.asarray(h, dtype=float) for h in _field(params, "history", "number array")]
        traj = run_delayed_rai(seq, delays, history, policy, steps)
    else:
        x0 = np.asarray(_field(params, "x0", "number array"), dtype=float)
        traj = run_rai(seq, x0, policy, steps)
    verdict = classify(traj)
    code = 0 if verdict.all_converged() else 3
    return {"verdict": verdict.to_json_obj()}, code, {"trajectory": traj}


def _run_simulate_hk(params: dict, seed: int) -> tuple[dict, int, dict]:
    x0 = np.asarray(_field(params, "x0", "number array"), dtype=float)
    cfg = HkConfig(
        epsilon=float(_field(params, "epsilon", "number")),
        truth=float(_field(params, "truth", "number", 0.0)),
        awareness=tuple(_field(params, "awareness", "number array", ())),
    )
    max_steps = _field(params, "max_steps", "integer", hk_step_cap(x0.shape[0]))
    traj, report = run_hk(x0, cfg, max_steps)
    # A run that froze is settled and is not classified.
    verdict = None if report.terminated_at is not None else classify(traj)
    code = 0 if verdict is None or verdict.all_converged() else 3
    return (
        {"cluster_report": report.to_json_obj(), "verdict": json_form(verdict)},
        code,
        {"trajectory": traj},
    )


def _run_simulate_altafini(params: dict, seed: int) -> tuple[dict, int, dict]:
    mats = [np.asarray(m, dtype=float) for m in _field(params, "matrices", "number array")]
    seq = SignedMatrixSequence.explicit(mats, period=_field(params, "period", "integer", len(mats)))
    x0 = np.asarray(_field(params, "x0", "number array"), dtype=float)
    steps = _field(params, "steps", "integer")
    traj = run_altafini(seq, x0, steps)
    verdict = classify(traj)
    modulus = modulus_consensus_verdict(traj)
    balance = recover_structural_balance(seq, _field(params, "balance_horizon", "integer", seq.period or 1))
    code = 0 if verdict.all_converged() else 3
    return (
        {
            "verdict": verdict.to_json_obj(),
            "modulus": modulus.to_json_obj(),
            "balance": balance.to_json_obj(),
        },
        code,
        {"trajectory": traj},
    )


def _run_solve_fixedpoint(params: dict, seed: int) -> tuple[dict, int, dict]:
    maps = tuple(_projector_from(s) for s in _field(params, "sets", "array"))
    W = sequence_from_json_obj(_field(params, "W", "object"))
    problem = MultiAgentProblem(
        maps=maps,
        W=W,
        algorithm=_field(params, "algorithm", "string"),
        initial=np.asarray(_field(params, "initial", "number array"), dtype=float),
    )
    result = solve(
        problem,
        max_iters=_field(params, "max_iters", "integer", MAX_ITERS),
        tol=float(_field(params, "tol", "number", SOLVER_TOL)),
    )
    code = 0 if result.converged else 3
    return {"result": result.to_json_obj()}, code, {"solve_result": result}


_RUNNERS = {
    "analyze_graph": _run_analyze_graph,
    "analyze_matrix": _run_analyze_matrix,
    "check_sequence": _run_check_sequence,
    "simulate_rai": _run_simulate_rai,
    "simulate_hk": _run_simulate_hk,
    "simulate_altafini": _run_simulate_altafini,
    "solve_fixedpoint": _run_solve_fixedpoint,
}
KINDS = tuple(_RUNNERS)


def _load_scenario(ref: str) -> dict:
    path = Path(ref)
    if not path.exists():
        candidate = _SCENARIO_DIR / f"{ref}.json"
        if candidate.exists():
            path = candidate
        else:
            raise ScenarioError("io", f"no such scenario file or bundled name: {ref}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError("bad-json", f"{path}: {e}") from e
    if not isinstance(obj, dict):
        raise ScenarioError("schema", "scenario must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema_version {obj.get('schema_version')!r}")
    if obj.get("kind") not in KINDS:
        raise ScenarioError("schema", f"unknown kind {obj.get('kind')!r}")
    if not isinstance(obj.get("name"), str) or not obj["name"]:
        raise ScenarioError("schema", "scenario needs a nonempty name")
    if not isinstance(obj.get("parameters"), dict):
        raise ScenarioError("schema", "scenario needs a parameters object")
    return obj


def run_scenario(
    ref: str,
    out_dir: str | Path = ".",
    seed: int | None = None,
    fmt: str = "csv",
    allowed_kinds: tuple = KINDS,
) -> int:
    """Load, dispatch, and write artifacts; returns the process exit code."""
    try:
        scenario = _load_scenario(ref)
        if scenario["kind"] not in allowed_kinds:
            raise ScenarioError(
                "schema",
                f"kind {scenario['kind']!r} is not handled by this subcommand",
            )
        eff_seed = _field(scenario, "seed", "integer", 0) if seed is None else int(seed)
        name = scenario["name"]
        outputs = _field(scenario, "outputs", "object", {})
        exts = {"verdict": "json", "trajectory": "json" if fmt == "json" else "csv", "history": "csv"}
        paths = {key: _field(outputs, key, "string", f"{name}.{key}.{ext}") for key, ext in exts.items()}
        try:
            # An overflow ends in the one-line error below, not in warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                verdict_body, code, artifacts = _RUNNERS[scenario["kind"]](
                    scenario["parameters"], eff_seed
                )
        except (ValueError, KeyError, TypeError, MemoryError) as e:
            raise ScenarioError("validation", str(e)) from e
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        verdict_obj = {
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "kind": scenario["kind"],
            "seed": eff_seed,
            "exit_code": code,
        }
        verdict_obj.update(verdict_body)
        (out / paths["verdict"]).write_text(dump_json(verdict_obj), newline="\n")
        if "trajectory" in artifacts:
            traj = artifacts["trajectory"]
            if fmt == "json":
                (out / paths["trajectory"]).write_text(dump_json(traj.to_json_obj()), newline="\n")
            else:
                with (out / paths["trajectory"]).open("w", newline="\n") as f:
                    f.writelines(traj.csv_blocks())
        if "solve_result" in artifacts:
            (out / paths["history"]).write_text(artifacts["solve_result"].history_csv(), newline="\n")
        return code
    except ScenarioError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 2


def list_bundled(fmt: str = "csv") -> int:
    """Print the bundled scenario catalog (name, kind, description)."""
    rows = []
    for path in sorted(_SCENARIO_DIR.glob("*.json")):
        try:
            obj = _load_scenario(str(path))
        except ScenarioError as e:
            print(f"error: {e.code}: {e}", file=sys.stderr)
            return 2
        rows.append(
            {
                "name": obj["name"],
                "kind": obj["kind"],
                "description": obj.get("description", ""),
            }
        )
    if fmt == "json":
        sys.stdout.write(dump_json(rows))
    else:
        width = max((len(r["name"]) for r in rows), default=4)
        kindw = max((len(r["kind"]) for r in rows), default=4)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['kind']:<{kindw}}  {r['description']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="raikit",
        description="Averaging-inequality toolkit: analyze, check, simulate, solve.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        dest="fmt",
        help="trajectory artifact format (verdict JSON is always written)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("analyze", "check", "simulate", "solve"):
        p = sub.add_parser(cmd, help=f"run a {'/'.join(SUBCOMMAND_KINDS[cmd])} scenario")
        p.add_argument("scenario", help="scenario file path or bundled name")
    sub.add_parser("list", help="list bundled scenarios")
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_bundled(fmt=args.fmt)
    return run_scenario(
        args.scenario,
        out_dir=args.out_dir,
        seed=args.seed,
        fmt=args.fmt,
        allowed_kinds=SUBCOMMAND_KINDS[args.command],
    )


if __name__ == "__main__":
    sys.exit(main())

"""Scenario fields of the wrong JSON type, and non-finite solver input, exit 2
with one `error:` line on stderr, never with a traceback or a silently
truncated value."""

import copy
import json
import math

import pytest

from raikit import DisturbancePolicy
from raikit.cli import _SCENARIO_DIR, SCHEMA_VERSION, run_scenario
from raikit.engine import POLICY_KINDS

INF, NAN = math.inf, math.nan

_TWO_LINES = [{"kind": "hyperplane", "a": [1.0, 0.0], "b": 1.0}, {"kind": "hyperplane", "a": [0.0, 1.0], "b": 1.0}]
_HALF = [[0.5, 0.5], [0.5, 0.5]]

# One small scenario per reader; every one exits 0 or 3 as written.
BASES = {
    "rai": ("simulate_rai", {"sequence": {"kind": "constant", "matrix": _HALF}, "x0": [1.0, 0.0], "steps": 100}),
    "gossip": (
        "simulate_rai",
        {
            "sequence": {
                "kind": "gossip", "n": 3, "schedule": [[0, 1], [1, 2], [2, 0]], "alphas": 0.5,
                "fire_times": [0, 1, 2], "period": 3,
            },
            "x0": [1.0, 0.0, 0.5],
            "steps": 100,
            "policy": {"kind": "vanishing_random", "scale": 0.01, "decay": 0.9},
        },
    ),
    "delayed": (
        "simulate_rai",
        {
            "sequence": {"kind": "constant", "matrix": _HALF},
            "delays": {"d_star": 1, "period": 1, "tables": [[[0, 1], [0, 0]]]},
            "history": [[0.0, 1.0], [1.0, 0.0]],
            "steps": 100,
        },
    ),
    "hk": ("simulate_hk", {"x0": [0.0, 0.4, 3.0], "epsilon": 0.5, "max_steps": 100}),
    "altafini": (
        "simulate_altafini",
        {"matrices": [[[0.5, -0.5], [-0.5, 0.5]]], "period": 1, "x0": [0.8, -0.2], "steps": 100, "balance_horizon": 4},
    ),
    "check": (
        "check_sequence",
        {"sequence": {"kind": "explicit", "matrices": [_HALF], "period": 1}, "M": 1, "T": 0, "L": 1},
    ),
    "solve": (
        "solve_fixedpoint",
        {
            "sets": _TWO_LINES,
            "W": {"kind": "constant", "matrix": _HALF},
            "algorithm": "pre_project",
            "initial": [[0.0, 0.0], [0.0, 0.0]],
            "max_iters": 2000,
        },
    ),
    "graph": ("analyze_graph", {"graph": {"n": 2, "weights": _HALF}}),
    "edgelist": ("analyze_graph", {"edgelist": "0 1 1.0\n1 0 1.0\n", "n": 2}),
    "matrix": ("analyze_matrix", {"matrices": [{"name": "half", "rows": _HALF}]}),
}


def _scenario(base):
    kind, parameters = BASES[base]
    return {
        "schema_version": SCHEMA_VERSION, "name": "typed", "kind": kind, "seed": 0,
        "parameters": copy.deepcopy(parameters),
    }


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _run(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = run_scenario(str(path), out_dir=tmp_path)
    return code, capsys.readouterr().err


P = ("parameters",)

WRONG_TYPES = [
    # a non-object where an object is read
    ("rai", P + ("sequence",), [["kind", "constant"]]),
    ("solve", P + ("W",), []),
    ("rai", ("outputs",), ["verdict.json"]),
    ("rai", P + ("policy",), "zero"),
    ("delayed", P + ("delays",), [1, 1]),
    ("matrix", P + ("matrices", 0), _HALF),
    ("solve", P + ("sets", 0), "hyperplane"),
    ("graph", P + ("graph",), [2]),
    # a non-string where a string is read
    ("edgelist", P + ("edgelist",), ["0 1 1.0", "1 0 1.0"]),
    ("rai", ("outputs",), {"verdict": 5}),
    ("rai", ("outputs",), {"trajectory": None}),
    ("solve", ("outputs",), {"history": ["h.csv"]}),
    ("matrix", P + ("matrices", 0, "name"), 7),
    ("solve", P + ("algorithm",), ["pre_project"]),
    # a non-boolean flag
    ("matrix", P + ("matrices", 0, "substochastic"), "yes"),
    # integer fields: no floats, no bools, no strings
    ("rai", ("seed",), "x"),
    ("rai", ("seed",), 1.5),
    ("rai", ("seed",), True),
    ("check", P + ("M",), 1.5),
    ("check", P + ("T",), 0.5),
    ("check", P + ("L",), 1.0),
    ("check", P + ("sequence", "period"), 1.5),
    ("rai", P + ("steps",), 100.5),
    ("rai", P + ("steps",), True),
    ("hk", P + ("max_steps",), 100.5),
    ("solve", P + ("max_iters",), 2000.5),
    ("altafini", P + ("period",), 1.0),
    ("altafini", P + ("balance_horizon",), 4.5),
    ("altafini", P + ("steps",), "100"),
    ("gossip", P + ("sequence", "n"), 3.0),
    ("gossip", P + ("sequence", "period"), 3.5),
    ("gossip", P + ("sequence", "fire_times"), [0, 1, 2.5]),
    ("gossip", P + ("sequence", "fire_times"), [0, True, 2]),
    ("gossip", P + ("sequence", "schedule"), [[0, 1], [1, 2], [2, 0.0]]),
    ("graph", P + ("graph", "n"), 2.0),
    ("edgelist", P + ("n",), 2.5),
    # policy numbers: no bools, no strings
    ("gossip", P + ("policy", "scale"), True),
    ("gossip", P + ("policy", "scale"), "0.01"),
    ("gossip", P + ("policy", "decay"), True),
    ("gossip", P + ("policy", "decay"), "0.9"),
    ("rai", P + ("policy",), {"kind": "constant_random", "scale": True}),
    ("rai", P + ("policy",), {"kind": "constant_random", "scale": "0.5"}),
    # delay tables: integers at any depth, no strings, floats or bools
    ("delayed", P + ("delays", "tables"), [[["0", 1], [0, 0]]]),
    ("delayed", P + ("delays", "tables"), [[[0, 1.0], [0, 0]]]),
    ("delayed", P + ("delays", "tables"), [[[0, True], [0, 0]]]),
    ("delayed", P + ("delays", "tables"), "x"),
]


@pytest.mark.parametrize("base, path, value", WRONG_TYPES)
def test_wrong_json_type_exits_two(tmp_path, capsys, base, path, value):
    scenario = _scenario(base)
    assert _run(tmp_path, capsys, scenario)[0] in (0, 3)  # as written, the scenario runs
    (tmp_path / "typed.verdict.json").unlink()
    _set(scenario, path, value)
    code, err = _run(tmp_path, capsys, scenario)
    assert code == 2
    assert err.startswith("error: schema:") and err.count("\n") == 1, err
    assert not (tmp_path / "typed.verdict.json").exists()


@pytest.mark.parametrize("key, value", [("d_star", 1.5), ("d_star", True), ("period", 1.5), ("period", "1")])
def test_delay_fields_take_integers_only(tmp_path, capsys, key, value):
    # DelaySpec checks its own fields at construction, so these are validation errors.
    scenario = _scenario("delayed")
    scenario["parameters"]["delays"][key] = value
    code, err = _run(tmp_path, capsys, scenario)
    assert code == 2
    assert err == f"error: validation: {key} must be an integer >= 0, got {value!r}\n"


@pytest.mark.parametrize(
    "path, value",
    [
        (P + ("sets", 0), {"kind": "ball", "center": [1.0, 0.0], "r": NAN}),
        (P + ("sets", 0, "b"), NAN),
        (P + ("sets", 0, "a"), [INF, 0.0]),
        (P + ("initial",), [[0.0, NAN], [0.0, 0.0]]),
        (P + ("initial",), [[0.0, 0.0], [-INF, 0.0]]),
    ],
)
def test_non_finite_solver_input_exits_two(tmp_path, capsys, path, value):
    scenario = _scenario("solve")
    _set(scenario, path, value)
    code, err = _run(tmp_path, capsys, scenario)
    assert code == 2
    assert err.startswith("error: validation:") and err.count("\n") == 1, err
    assert not (tmp_path / "typed.verdict.json").exists()


def test_open_sides_solve_but_closed_infinite_sides_exit_two(tmp_path, capsys):
    scenario = _scenario("solve")
    # x = 1 with a box open below, and y = 1 with a halfspace and a ball open outward
    scenario["parameters"]["sets"] = [
        {"kind": "box", "lo": [-INF, 0.0], "hi": [1.0, INF]},
        {"kind": "halfspace", "a": [0.0, 1.0], "b": INF},
    ]
    code, err = _run(tmp_path, capsys, scenario)
    assert (code, err) == (0, "")
    scenario["parameters"]["sets"][1] = {"kind": "ball", "center": [0.0, 0.0], "r": INF}
    assert _run(tmp_path, capsys, scenario) == (0, "")
    for closed in ({"kind": "box", "lo": [INF, 0.0], "hi": [INF, 1.0]}, {"kind": "halfspace", "a": [0.0, 1.0], "b": -INF}):
        scenario["parameters"]["sets"][1] = closed
        code, err = _run(tmp_path, capsys, scenario)
        assert code == 2 and err.startswith("error: validation:"), err


def _wrong(value):
    """A value of another JSON type: an object becomes [], an array or a
    number "x", an integer 2.5, a string 0 and a boolean "x"."""
    if isinstance(value, dict):
        return []
    if isinstance(value, bool):
        return "x"
    if isinstance(value, int):
        return 2.5
    if isinstance(value, str):
        return 0
    return "x"


def _key_paths(obj, prefix=()):
    """Every key path under ``obj``, recursing into objects, also those held
    in arrays (the entries of ``sets`` or of ``matrices``)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


def test_every_bundled_parameter_of_a_wrong_type_exits_two(tmp_path, capsys):
    """The exit-code contract, swept over each key of each bundled scenario."""
    bundled = sorted(_SCENARIO_DIR.glob("*.json"))
    assert len(bundled) == 14
    failures = []
    for source in bundled:
        original = json.loads(source.read_text())
        for path in _key_paths(original["parameters"]):
            scenario = copy.deepcopy(original)
            node = scenario["parameters"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = _wrong(node[path[-1]])
            try:
                code, err = _run(tmp_path, capsys, scenario)
            except Exception as e:  # a traceback at the console
                code, err = f"raised {type(e).__name__}: {e}", ""
            lines = err.splitlines()
            if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
                failures.append((source.stem, path, node[path[-1]], code, err))
    assert not failures, "\n".join(map(repr, failures))


def test_solver_breakdown_exits_two_without_an_artifact(tmp_path, capsys):
    # Finite starts whose difference overflows: no verdict, and no NaN in JSON.
    scenario = _scenario("solve")
    scenario["parameters"].update(
        sets=[{"kind": "hyperplane", "a": [1.0, 1.0], "b": 0.0}, {"kind": "hyperplane", "a": [1.0, -1.0], "b": 0.0}],
        algorithm="convex_blend",
        initial=[[1e308, 1e308], [-1e308, 1e308]],
    )
    code, err = _run(tmp_path, capsys, scenario)
    assert (code, err) == (2, "error: validation: solver state became non-finite at iteration 0\n")
    assert not (tmp_path / "typed.verdict.json").exists() and not (tmp_path / "typed.history.csv").exists()


def _gossip_ring(**changes):
    scenario = json.loads((_SCENARIO_DIR / "gossip_silence_ring.json").read_text())
    scenario["parameters"]["steps"] = 200
    scenario["parameters"]["sequence"].update(changes.pop("sequence", {}))
    scenario["parameters"].update(changes)
    return scenario


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param(
            {"sequence": {"alphas": "0.5"}, "x0": ["0.9", "-0.3", "0.4", "-0.7"]},
            "'alphas' must be a JSON number or number array, got '0.5'",
            id="string-alphas-and-x0",
        ),
        pytest.param({"x0": [True, False, 0, 1]}, "'x0' must be a JSON number array, got [True, False, 0, 1]", id="bool-x0"),
    ],
)
def test_numeric_strings_and_bools_exit_two(tmp_path, capsys, changes, message):
    assert _run(tmp_path, capsys, _gossip_ring()) == (3, "")  # as written, the copy runs
    (tmp_path / "gossip_silence_ring.verdict.json").unlink()
    code, err = _run(tmp_path, capsys, _gossip_ring(**changes))
    assert code == 2 and err.startswith(f"error: schema: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "gossip_silence_ring.verdict.json").exists()


def test_missing_alphas_is_named(tmp_path, capsys):
    scenario = _gossip_ring()
    del scenario["parameters"]["sequence"]["alphas"]
    assert _run(tmp_path, capsys, scenario) == (2, "error: schema: missing parameter 'alphas'\n")


# Each numeric array the CLI reads, first with a number and then with a
# string or a bool that np.asarray(..., dtype=float) would have parsed.
_BALL = {"kind": "ball", "center": [1.0, 0.0], "r": 0.5}
_BOX = {"kind": "box", "lo": [1.0, 0.0], "hi": [1.0, 2.0]}
_AFFINE = {"kind": "affine_subspace", "A": [[1.0, 0.0]], "b": [1.0]}
_REPLAY = {"kind": "adversarial_replay", "deltas": [[0.0, 0.0]]}
_INDUCED = {"kind": "hk_induced", "epsilon": 0.5, "x0": [0.0, 0.4]}
NUMBER_LEAVES = [
    ("rai", P + ("sequence", "matrix"), _HALF, [[0.5, "0.5"], [0.5, 0.5]]),
    ("check", P + ("sequence", "matrices"), [_HALF], [[[0.5, 0.5], [True, 0]]]),
    ("check", P + ("sequence",), _INDUCED, dict(_INDUCED, x0=[0.0, "0.4"])),
    ("matrix", P + ("matrices", 0, "rows"), _HALF, [["0.5", 0.5], [0.5, 0.5]]),
    ("graph", P + ("graph", "weights"), _HALF, [[0.5, 0.5], [0.5, "0.5"]]),
    ("rai", P + ("x0",), [1.0, 0.0], [True, False]),
    ("rai", P + ("policy",), _REPLAY, dict(_REPLAY, deltas=[[0.0, "0"]])),
    ("delayed", P + ("history",), [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [True, 0.0]]),
    ("hk", P + ("x0",), [0.0, 0.4, 3.0], [0.0, "0.4", 3.0]),
    ("hk", P + ("awareness",), [0.0, 0.5, 0.0], [0.0, "0.5", 0.0]),
    ("altafini", P + ("matrices",), [[[0.5, -0.5], [-0.5, 0.5]]], [[[0.5, "-0.5"], [-0.5, 0.5]]]),
    ("altafini", P + ("x0",), [0.8, -0.2], ["0.8", -0.2]),
    ("gossip", P + ("sequence", "alphas"), [0.5, 0.5, 0.5], [0.5, "0.5", 0.5]),
    ("solve", P + ("initial",), [[0.0, 0.0], [0.0, 0.0]], [[0.0, "0"], [0.0, 0.0]]),
    ("solve", P + ("sets", 0, "a"), [1.0, 0.0], [True, 0.0]),
    ("solve", P + ("sets", 0), {"kind": "halfspace", "a": [1.0, 0.0], "b": 1.0}, {"kind": "halfspace", "a": ["1", 0.0], "b": 1.0}),
    ("solve", P + ("sets", 0), _BALL, dict(_BALL, center=[1.0, "0"])),
    ("solve", P + ("sets", 0), _BOX, dict(_BOX, lo=[True, 0.0])),
    ("solve", P + ("sets", 0), _BOX, dict(_BOX, hi=[1.0, "2"])),
    ("solve", P + ("sets", 0), _AFFINE, dict(_AFFINE, A=[[1.0, "0"]])),
    ("solve", P + ("sets", 0), _AFFINE, dict(_AFFINE, b=["1"])),
]


@pytest.mark.parametrize("base, path, good, bad", NUMBER_LEAVES)
def test_number_array_leaves_must_be_json_numbers(tmp_path, capsys, base, path, good, bad):
    scenario = _scenario(base)
    _set(scenario, path, good)
    assert _run(tmp_path, capsys, scenario)[0] in (0, 3)  # with numbers, the scenario runs
    (tmp_path / "typed.verdict.json").unlink()
    _set(scenario, path, bad)
    code, err = _run(tmp_path, capsys, scenario)
    assert code == 2
    assert err.startswith("error: schema:") and "number" in err and err.count("\n") == 1, err
    assert not (tmp_path / "typed.verdict.json").exists()


# One valid value of each policy field; every field of every kind in the
# table must have one, so a new kind of known fields is covered as it is.
POLICY_VALUES = {"scale": 0.01, "decay": 0.5, "seed": 3, "deltas": [[0.01, 0.0]]}
POLICY_FIELDS = [(kind, field) for kind, fields in POLICY_KINDS.items() for field in fields]
SEEDED = sorted(kind for kind, fields in POLICY_KINDS.items() if "seed" in fields)


def _policy(kind):
    return {"kind": kind, **{field: POLICY_VALUES[field] for field in POLICY_KINDS[kind]}}


def test_the_policy_table_names_every_kind():
    assert sorted(POLICY_KINDS) == ["adversarial_replay", "constant_random", "vanishing_random", "zero"]
    assert SEEDED == ["constant_random", "vanishing_random"]


@pytest.mark.parametrize("kind, field", POLICY_FIELDS)
def test_every_policy_field_of_the_wrong_json_type_exits_two(tmp_path, capsys, kind, field):
    scenario = _scenario("rai")
    scenario["parameters"]["policy"] = _policy(kind)
    assert _run(tmp_path, capsys, scenario)[0] in (0, 3)
    (tmp_path / "typed.verdict.json").unlink()
    scenario["parameters"]["policy"][field] = "x"
    code, err = _run(tmp_path, capsys, scenario)
    assert (code, err) == (2, f"error: schema: {field!r} must be a JSON {POLICY_KINDS[kind][field]}, got 'x'\n")
    assert not (tmp_path / "typed.verdict.json").exists()


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_every_policy_kind_round_trips_through_json(kind):
    policy = DisturbancePolicy.from_json_obj(_policy(kind))
    assert policy.kind == kind
    assert policy.to_json_obj() == _policy(kind)
    assert DisturbancePolicy.from_json_obj(policy.to_json_obj()) == policy


@pytest.mark.parametrize("kind", SEEDED)
def test_a_seeded_policy_without_a_seed_takes_the_scenario_seed(tmp_path, capsys, kind):
    unseeded = {key: value for key, value in _policy(kind).items() if key != "seed"}

    def trajectory(scenario_seed, policy):
        scenario = _scenario("rai")
        scenario["seed"] = scenario_seed
        scenario["parameters"]["policy"] = policy
        assert _run(tmp_path, capsys, scenario)[0] in (0, 3)
        return (tmp_path / "typed.trajectory.csv").read_bytes()

    assert trajectory(7, unseeded) == trajectory(0, dict(unseeded, seed=7)) != trajectory(7, dict(unseeded, seed=8))
    assert DisturbancePolicy.from_json_obj(unseeded, 7).seed == 7
    assert DisturbancePolicy.from_json_obj(unseeded).seed == 0

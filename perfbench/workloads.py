"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is built from a seed alone: the same seed gives the same
operations, byte for byte (see ``Workload.input_bytes``).  The package is
driven only through its public entry points (``raikit.cli.run_scenario``,
``raikit.run_rai``, ``raikit.run_hk``, ``raikit.classify`` and the public
constructors), always resolved as attributes of the imported module at call
time, so the tracing wrappers in ``tracing.py`` see every call.

Each operation is checked against how its inputs were constructed, never
against a digest of an earlier run of the code under test, except for the
bundled scenarios, whose goldens are the package's own byte contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import raikit
import raikit.cli
from raikit import tolerances

WORKLOADS = ("bundled", "ensemble", "balance_checks")


@dataclass
class Op:
    """One benchmark operation: its name, its inputs and what its
    construction says the output must be."""

    name: str
    kind: str
    spec: dict
    expect: dict = field(default_factory=dict)


@dataclass
class CliOp:
    """A scenario file run through the console script, with the in-process
    operation whose record its verdict must reproduce."""

    command: str
    ref: str
    name: str
    op: Op


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _read_verdict(out_dir: Path, name: str) -> bytes:
    return (out_dir / f"{name}.verdict.json").read_bytes()


class Workload:
    """Base: a list of operations, run one after another in a pass."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.ops: list[Op] = []
        self.cli_ops: list[CliOp] = []

    def input_bytes(self) -> bytes:
        """Canonical serialization of every generated input."""
        return _dump([[op.name, op.kind, op.spec] for op in self.ops])

    def warmup_op(self) -> Op:
        """The untimed operation that ends set-up."""
        return self.ops[0]

    def run(self, op: Op):
        raise NotImplementedError

    def verify(self, op: Op, result) -> tuple[bytes, bool]:
        """Return the operation's output record and whether it is correct."""
        raise NotImplementedError

    def verify_cli(self, cli_op: CliOp, code: int, out_dir: Path, expected: bytes | None) -> bool:
        raise NotImplementedError


# --------------------------------------------------------------------------
# bundled: the 14 bundled scenarios against their goldens


class Bundled(Workload):
    """The bundled scenarios through ``run_scenario``, artifacts written to
    disk, verdicts compared byte for byte with ``scenarios/golden``.  The
    seed only fixes the order in which the scenarios run."""

    name = "bundled"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        scenario_dir = Path(raikit.__file__).parent / "scenarios"
        names = sorted(p.stem for p in scenario_dir.glob("*.json"))
        order = np.random.default_rng(seed).permutation(len(names))
        for idx in order:
            name = names[int(idx)]
            scenario = json.loads((scenario_dir / f"{name}.json").read_text())
            golden = (scenario_dir / "golden" / f"{name}.verdict.json").read_bytes()
            op = Op(
                name=name,
                kind=scenario["kind"],
                spec={"scenario": name},
                expect={"golden": golden},
            )
            self.ops.append(op)
            command = next(
                cmd for cmd, kinds in raikit.cli.SUBCOMMAND_KINDS.items() if op.kind in kinds
            )
            self.cli_ops.append(CliOp(command=command, ref=name, name=name, op=op))

    def warmup_op(self) -> Op:
        # the same scenario whatever the order, so set-up does not vary with the seed
        return min(self.ops, key=lambda op: op.name)

    def run(self, op: Op):
        return raikit.cli.run_scenario(op.spec["scenario"], out_dir=self.work_dir / "out" / op.name)

    def verify(self, op: Op, result) -> tuple[bytes, bool]:
        produced = _read_verdict(self.work_dir / "out" / op.name, op.name)
        code = json.loads(op.expect["golden"])["exit_code"]
        return produced, result == code and produced == op.expect["golden"]

    def verify_cli(self, cli_op, code, out_dir, expected) -> bool:
        produced = _read_verdict(out_dir, cli_op.name)
        golden = cli_op.op.expect["golden"]
        return code == json.loads(golden)["exit_code"] and produced == golden


# --------------------------------------------------------------------------
# ensemble: many seeded library runs, results only read

GOSSIP_STEPS = 20_000
GOSSIP_MEMBERS = 8
DECAY_STEPS = 1_000
DECAY_MEMBERS = 24
HK_N = 64
HK_MAX_STEPS = 4_000
HK_MEMBERS = 24

# ac06: directed-ring gossip with silence gaps 1, 10, 100, period 444
RING_ARCS = [(0, 1), (1, 2), (2, 3), (3, 0)]
RING_FIRES = [0, 1, 11, 111, 112, 122, 222, 223, 233, 333, 334, 344]
RING_SCHEDULE = [RING_ARCS[i % 4] for i in range(12)]
RING_PERIOD = 444
GOSSIP_CONSENSUS = 1e-6  # ac06 final-diameter threshold
DECAY_TAIL = 1e-6        # ac05 tail residual-sum threshold
HK_TRUTH = 1e-6          # ac08 distance of aware agents to the truth
HK_GAP_ZERO = 1e-7       # ac08: terminal gaps are below this ...
HK_GAP_SLACK = 1e-6      # ... or at least epsilon minus this


def _decay_matrix(k: int):
    # ac05: symmetric triangle whose coupling decays like 1/(k+2)
    w = 0.45 / (k + 2)
    W = np.full((3, 3), w)
    np.fill_diagonal(W, 1 - 2 * w)
    return raikit.RowStochasticMatrix(n=3, entries=W)


def _hk_member(rng) -> dict:
    # ac08 truth seekers at n = HK_N: aware agents start within eps/4 of
    # the truth, unaware ones sit in clusters at least 2(eps+1) away.
    n = HK_N
    eps = float(rng.choice([0.5, 1.0]))
    t = float(rng.uniform(0.0, 5.0))
    k_seek = int(rng.integers(1, n // 3))
    awareness = np.zeros(n)
    awareness[:k_seek] = rng.uniform(0.2, 0.9, k_seek)
    x0 = np.empty(n)
    x0[:k_seek] = t + rng.uniform(-eps / 4, eps / 4, k_seek)
    n_clusters = int(rng.integers(1, 4))
    for i in range(n - k_seek):
        c = i % n_clusters
        side = 1 if c % 2 == 0 else -1
        center = t + side * (c // 2 + 1) * (eps + 1.0) * 2
        x0[k_seek + i] = center + rng.uniform(-eps / 5, eps / 5)
    return {
        "x0": x0.tolist(),
        "epsilon": eps,
        "truth": t,
        "awareness": awareness.tolist(),
        "k_seek": k_seek,
        "max_steps": HK_MAX_STEPS,
    }


class Ensemble(Workload):
    """Seeded members run in memory with ``run_rai`` or ``run_hk`` and then
    classified, nothing exported.  Three member shapes from the acceptance
    tests: ``gossip`` (ac06, engine-step bound), ``decay`` (ac05,
    generator-backed, every W(k) validated) and ``hk`` (ac08 truth seekers
    at n = 64, validation at size)."""

    name = "ensemble"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        for i in range(GOSSIP_MEMBERS):
            spec = {
                "x0": (rng.random(4) * 2 - 1).tolist(),
                "policy_seed": int(rng.integers(2**31)),
                "steps": GOSSIP_STEPS,
            }
            self.ops.append(Op(name=f"gossip-{i:02d}", kind="gossip", spec=spec))
        for i in range(DECAY_MEMBERS):
            spec = {
                "x0": rng.uniform(-5.0, 5.0, 3).tolist(),
                "policy_seed": int(rng.integers(2**31)),
                "steps": DECAY_STEPS,
            }
            self.ops.append(Op(name=f"decay-{i:02d}", kind="decay", spec=spec))
        for i in range(HK_MEMBERS):
            self.ops.append(Op(name=f"hk-{i:02d}", kind="hk", spec=_hk_member(rng)))
        # The shapes with a scenario form also run through the console
        # script; decay members have none (their weights come from a function).
        self._write_cli_scenarios()

    def _write_cli_scenarios(self) -> None:
        inputs = self.work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        gossip = next(op for op in self.ops if op.kind == "gossip")
        hk = next(op for op in self.ops if op.kind == "hk")
        sequence = {
            "kind": "gossip",
            "n": 4,
            "schedule": [list(a) for a in RING_SCHEDULE],
            "alphas": [0.5] * len(RING_FIRES),
            "fire_times": RING_FIRES,
            "eta": 0.05,
            "period": RING_PERIOD,
        }
        policy = {"kind": "vanishing_random", "scale": 1e-3, "decay": 0.999,
                  "seed": gossip.spec["policy_seed"]}
        scenarios = [
            (gossip, "simulate_rai", {"sequence": sequence, "x0": gossip.spec["x0"],
                                      "steps": gossip.spec["steps"], "policy": policy}),
            (hk, "simulate_hk", {key: hk.spec[key]
                                 for key in ("x0", "epsilon", "truth", "awareness", "max_steps")}),
        ]
        for op, kind, params in scenarios:
            path = inputs / f"{op.name}.json"
            body = {"schema_version": 1, "name": op.name, "kind": kind, "seed": 0, "parameters": params}
            path.write_bytes(_dump(body))
            self.cli_ops.append(CliOp(command="simulate", ref=str(path), name=op.name, op=op))

    def run(self, op: Op):
        spec = op.spec
        if op.kind == "gossip":
            seq = raikit.gossip_sequence(
                4, RING_SCHEDULE, 0.5, RING_FIRES, eta=0.05, period=RING_PERIOD
            )
            policy = raikit.DisturbancePolicy.vanishing_random(1e-3, 0.999, seed=spec["policy_seed"])
            traj = raikit.run_rai(seq, np.array(spec["x0"]), policy, spec["steps"])
            return traj, raikit.classify(traj)
        if op.kind == "decay":
            seq = raikit.MatrixSequence.from_generator(_decay_matrix, n=3)
            policy = raikit.DisturbancePolicy.vanishing_random(1e-3, 0.9, seed=spec["policy_seed"])
            traj = raikit.run_rai(seq, np.array(spec["x0"]), policy, spec["steps"])
            return traj, raikit.classify(traj)
        cfg = raikit.HkConfig(
            epsilon=spec["epsilon"], truth=spec["truth"], awareness=tuple(spec["awareness"])
        )
        traj, report = raikit.run_hk(np.array(spec["x0"]), cfg, spec["max_steps"])
        # As the CLI does: a run that froze is settled and is not classified.
        verdict = None if report.terminated_at is not None else raikit.classify(traj)
        return traj, (report, verdict)

    def verify(self, op: Op, result) -> tuple[bytes, bool]:
        traj, out = result
        x0 = np.array(op.spec["x0"])
        if op.kind == "hk":
            report, verdict = out
            record = {
                "cluster_report": report.to_json_obj(),
                "verdict": None if verdict is None else verdict.to_json_obj(),
            }
            return _dump(record), _hk_ok(op.spec, traj, report)
        verdict = out
        record = {"verdict": verdict.to_json_obj()}
        drift_ok = traj.max_drift() <= tolerances.FEAS_TOL * max(1.0, float(np.abs(x0).max()))
        feasible = traj.feasibility_margin() >= 0.0
        final = traj.states[-1]
        if op.kind == "gossip":
            # ac06: consensus within 1e-6; the limit lies in the hull of the
            # start shifted down by at most the total disturbance.
            total = float(traj.residuals.sum(axis=0).max())
            ok = (
                float(final.max() - final.min()) < GOSSIP_CONSENSUS
                and verdict.consensus
                and all(verdict.residual_vanishes)
                and x0.min() - total - GOSSIP_CONSENSUS
                <= verdict.consensus_value
                <= x0.max() + GOSSIP_CONSENSUS
            )
        else:
            # ac05: the weights are symmetric, so the sum of the state drops
            # by exactly the disturbance mass; the tail of the summable
            # disturbance series is below 1e-6.
            steps = traj.steps
            mass = float(x0.sum() - final.sum() - traj.residuals.sum())
            tail = float(traj.residuals[steps // 2 :].sum(axis=0).max())
            ok = (
                abs(mass) <= 1e-9 * max(1.0, float(np.abs(x0).sum()))
                and tail < DECAY_TAIL
                and all(verdict.residual_vanishes)
                and not any(s.kind == "diverging_to_minus_infinity" for s in verdict.statuses)
            )
        return _dump(record), bool(ok and drift_ok and feasible)

    def verify_cli(self, cli_op, code, out_dir, expected) -> bool:
        produced = json.loads(_read_verdict(out_dir, cli_op.name))
        if code != 0 or produced.get("exit_code") != 0 or expected is None:
            return False
        want = json.loads(expected)
        return all(produced.get(key) == value for key, value in want.items())


def _hk_ok(spec: dict, traj, report) -> bool:
    final = traj.states[-1]
    k = spec["k_seek"]
    n = final.shape[0]
    eps = spec["epsilon"]
    if float(np.abs(final[:k] - spec["truth"]).max()) >= HK_TRUTH:
        return False
    if not set(range(k, n)) <= set(report.frozen_agents):
        return False
    gaps = np.abs(final[:, None] - final[None, :])
    return bool(np.all((gaps < HK_GAP_ZERO) | (gaps >= eps - HK_GAP_SLACK)))


# --------------------------------------------------------------------------
# balance_checks: generated check_sequence and analyze_graph scenarios

BALANCE_SIZES = (6, 8, 9, 10, 11, 12, 13)
# One-way cases stop at the first cut and cost about the same at any n, so a
# few sizes cover them.  Both lists keep the median operation one where the
# cut work, not a millisecond of file I/O, dominates.
ONE_WAY_SIZES = (4, 8, 13)
BALANCE_PERIOD = 3
C_TOL = 1e-12  # a symmetric construction has flow ratio 1 up to rounding


def _ring(nodes) -> list[tuple[int, int]]:
    m = len(nodes)
    return [(int(nodes[t]), int(nodes[(t + 1) % m])) for t in range(m)]


def _symmetric_period(rng, n: int, nodes, p: int):
    """p symmetric row-stochastic matrices: ring edge t over ``nodes`` is
    active in step t mod p with its own weight in [0.05, 0.3].  Every node
    is in at most two edges per step, so the diagonal (>= 0.4) stays the
    largest entry of its row and keeps any exact-row-sum nudge."""
    mats = [np.eye(n) for _ in range(p)]
    weight = {}
    for t, (a, b) in enumerate(_ring(nodes)):
        s = t % p
        w = float(rng.uniform(0.05, 0.3))
        weight[(a, b)] = w
        mats[s][a, b] += w
        mats[s][b, a] += w
        mats[s][a, a] -= w
        mats[s][b, b] -= w
    return mats, weight


def _persistent_arcs(mats) -> list[list[int]]:
    total = sum(mats)
    ii, jj = np.nonzero(total)
    return sorted([int(j), int(i)] for i, j in zip(ii, jj))


def _check_sequence_case(rng, n: int, family: str) -> tuple[dict, dict]:
    p = BALANCE_PERIOD
    if family == "balanced":
        nodes = rng.permutation(n)
        mats, weight = _symmetric_period(rng, n, nodes, p)
        arc_weights = list(weight.values())
    else:
        # Agent 0 listens to agent 1 at every step and nobody listens to
        # agent 0: the first cut, {0} against the rest, is one-way.
        nodes = 1 + rng.permutation(n - 1)
        mats, weight = _symmetric_period(rng, n, nodes, p)
        listen = rng.uniform(0.05, 0.3, p)
        for s in range(p):
            mats[s][0, 1] += listen[s]
            mats[s][0, 0] -= listen[s]
        arc_weights = list(weight.values()) + [float(listen.sum())]
    params = {
        "sequence": {"kind": "explicit", "matrices": [m.tolist() for m in mats], "period": p},
        "M": 1,
        "T": 0,
        "L": p - 1,
    }
    rest = list(range(1, n))
    expect = {
        "persistent_arcs": _persistent_arcs(mats),
        # every window spans a whole period, so each arc's windowed weight
        # is its weight over one period
        "arc_C": max(arc_weights) / min(arc_weights),
        "one_way_cut": None if family == "balanced" else [[0], rest],
    }
    return params, expect


def _graph_case(rng, n: int, family: str) -> tuple[dict, dict]:
    w = np.zeros((n, n))
    nodes = rng.permutation(n) if family == "balanced" else 1 + rng.permutation(n - 1)
    # ring plus one chord closing a triangle: strongly connected, aperiodic
    edges = _ring(nodes) + [(int(nodes[0]), int(nodes[2]))]
    for a, b in edges:
        u = float(rng.uniform(0.1, 1.0))
        w[a, b] = w[b, a] = u
    if family == "oneway":
        w[0, 1] = float(rng.uniform(0.1, 1.0))
    params = {"graph": {"n": n, "weights": w.tolist()}}
    return params, {"one_way_cut": None if family == "balanced" else [[0], list(range(1, n))]}


class BalanceChecks(Workload):
    """``check_sequence`` and ``analyze_graph`` scenario files generated
    from the seed, n from 4 to 13, run through ``run_scenario``.  Balanced
    periodic families hold, so every checker visits every cut; one-way
    families fail on the first cut with a witness."""

    name = "balance_checks"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        inputs = self.work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        largest = max(BALANCE_SIZES)
        cases = [(n, "balanced") for n in BALANCE_SIZES] + [(n, "oneway") for n in ONE_WAY_SIZES]
        for n, family in sorted(cases):
            for kind, make in (("check_sequence", _check_sequence_case), ("analyze_graph", _graph_case)):
                params, expect = make(rng, n, family)
                name = f"{kind}-{family}-n{n:02d}"
                scenario = {"schema_version": 1, "name": name, "kind": kind, "seed": 0, "parameters": params}
                path = inputs / f"{name}.json"
                path.write_bytes(_dump(scenario))
                expect.update(n=n, family=family, weights=params.get("graph", {}).get("weights"))
                op = Op(name=name, kind=kind, spec={"scenario": str(path), "body": scenario}, expect=expect)
                self.ops.append(op)
                if n == largest:
                    command = "check" if kind == "check_sequence" else "analyze"
                    self.cli_ops.append(CliOp(command=command, ref=str(path), name=name, op=op))

    def input_bytes(self) -> bytes:
        return _dump([[op.name, op.kind, op.spec["body"]] for op in self.ops])

    def run(self, op: Op):
        return raikit.cli.run_scenario(op.spec["scenario"], out_dir=self.work_dir / "out" / op.name)

    def verify(self, op: Op, result) -> tuple[bytes, bool]:
        produced = _read_verdict(self.work_dir / "out" / op.name, op.name)
        return produced, result == 0 and _balance_ok(op, json.loads(produced))

    def verify_cli(self, cli_op, code, out_dir, expected) -> bool:
        produced = _read_verdict(out_dir, cli_op.name)
        return code == 0 and _balance_ok(cli_op.op, json.loads(produced))


def _close(value, want: float, rel: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value - want) <= rel * want


def _balance_ok(op: Op, v: dict) -> bool:
    e = op.expect
    n = e["n"]
    one_way = e["one_way_cut"]
    if op.kind == "check_sequence":
        rec, ucb, ab = v["reciprocity"], v["uniform_cut_balance"], v["arc_balance"]
        common = (
            v["persistent_arcs"] == e["persistent_arcs"]
            and v["persistent_exact"]
            and rec["exact"]
            and ucb["exact"]
            and ab["holds"]
            and _close(ab["C"], e["arc_C"], 1e-9)
        )
        if one_way is None:
            return bool(
                common
                and rec["holds"]
                and rec["violating_cut"] is None
                and ucb["holds"]
                and _close(ucb["C"], 1.0, C_TOL)
                and ucb["witness"] is None
            )
        return bool(
            common
            and not rec["holds"]
            and rec["violating_cut"] == one_way
            and rec["violating_window"] == [0, 0]
            and not ucb["holds"]
            and ucb["C"] is None
            and ucb["witness"] == [one_way, 0]
        )
    comps = sorted(sorted(c) for c in v["components"])
    cb = v["cut_balance"]
    if one_way is None:
        return bool(
            comps == [list(range(n))]
            and v["classification"] == ["isolated"]
            and v["is_strong"]
            and v["aperiodic_components"] == [True]
            and cb["balanced"]
            and _close(cb["constant_C"], 1.0, C_TOL)
            and cb["witness_cut"] is None
        )
    # The witness must carry flow one way only, read off the weights.
    w = np.asarray(e["weights"])
    left, right = cb["witness_cut"] or ([], [])
    into_left = float(w[np.ix_(left, right)].sum()) if left and right else 0.0
    out_of_left = float(w[np.ix_(right, left)].sum()) if left and right else 0.0
    keys = [tuple(sorted(c)) for c in v["components"]]
    rest = tuple(range(1, n))
    return bool(
        comps == [[0], list(rest)]
        and dict(zip(keys, v["classification"])) == {(0,): "sink", rest: "source"}
        and dict(zip(keys, v["aperiodic_components"])) == {(0,): False, rest: True}
        and not v["is_strong"]
        and v["is_quasi_strong"]
        and not cb["balanced"]
        and cb["constant_C"] is None
        and [left, right] == one_way
        and into_left > 0.0
        and out_of_left == 0.0
    )


def make(name: str, seed: int, work_dir: Path) -> Workload:
    cls = {"bundled": Bundled, "ensemble": Ensemble, "balance_checks": BalanceChecks}[name]
    return cls(seed, work_dir)

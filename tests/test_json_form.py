"""The field-walking JSON form of results, against the hand-written
serializers it replaced (kept here as reference oracles): the CLI's verdict
builders and the ClusterReport, SiaVerdict and Trajectory methods must give
the same bytes."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raikit import (
    Cut,
    DelaySpec,
    DisturbancePolicy,
    HkConfig,
    MatrixSequence,
    RowStochasticMatrix,
    SubstochasticMatrix,
    WeightedDigraph,
    check_arc_balance,
    check_reciprocity,
    check_sia,
    check_uniform_cut_balance,
    cut_balance_certificate,
    graph_to_json,
    is_aperiodic,
    is_primitive,
    persistent_graph,
    run_delayed_rai,
    run_hk,
    run_rai,
    schur_stability_by_reachability,
    spectral_radius,
    strong_components,
)
from raikit.cli import _run_analyze_graph, _run_analyze_matrix, _run_check_sequence
from raikit.graphs import Report, dump_json, fields_equal, json_form


# ---------------------------------------------------------------------------
# Reference oracles: the dicts as they were built by hand.


def _oracle_analyze_graph(g):
    dec = strong_components(g)
    aperiodic = [is_aperiodic(g, comp) for comp in dec.components]
    cert = cut_balance_certificate(g)
    return {
        "n": g.n,
        "components": [list(c) for c in dec.components],
        "classification": list(dec.classification),
        "is_strong": dec.is_strong,
        "is_quasi_strong": dec.is_quasi_strong,
        "aperiodic_components": aperiodic,
        "cut_balance": {
            "balanced": cert.balanced,
            "constant_C": cert.constant_C,
            "witness_cut": None
            if cert.witness_cut is None
            else [sorted(cert.witness_cut.left), sorted(cert.witness_cut.right)],
        },
    }


def _oracle_check_sequence(seq, M, T, L):
    pg = persistent_graph(seq)
    rec = check_reciprocity(seq, M, T)
    ucb = check_uniform_cut_balance(seq, L)
    ab = check_arc_balance(seq, L)
    return {
        "persistent_arcs": sorted([int(j), int(i)] for (j, i) in pg.graph.arc_set()),
        "persistent_exact": pg.exact,
        "reciprocity": {
            "holds": rec.holds,
            "M": rec.M,
            "T": rec.T,
            "violating_cut": None
            if rec.violating_cut is None
            else [sorted(rec.violating_cut.left), sorted(rec.violating_cut.right)],
            "violating_window": None
            if rec.violating_window is None
            else list(rec.violating_window),
            "exact": rec.exact,
        },
        "uniform_cut_balance": {
            "holds": ucb.holds,
            "C": ucb.C,
            "witness": None
            if ucb.witness is None
            else [[sorted(ucb.witness[0].left), sorted(ucb.witness[0].right)], ucb.witness[1]],
            "exact": ucb.exact,
        },
        "arc_balance": {"holds": ab.holds, "C": ab.C, "exact": ab.exact},
    }


def _oracle_analyze_matrix(entries):
    results = []
    for entry in entries:
        name = entry.get("name", f"matrix_{len(results)}")
        rows = np.asarray(entry["rows"], dtype=float)
        if entry.get("substochastic", False):
            A = SubstochasticMatrix(n=rows.shape[0], entries=rows)
            stab = schur_stability_by_reachability(A)
            results.append(
                {
                    "name": name,
                    "substochastic": True,
                    "spectral_radius": spectral_radius(A),
                    "stable": stab.stable,
                    "unreachable_nodes": sorted(stab.unreachable_nodes),
                    "deficiency_set": sorted(A.deficiency_set),
                }
            )
        else:
            W = RowStochasticMatrix(n=rows.shape[0], entries=rows)
            sia = check_sia(W)
            results.append(
                {
                    "name": name,
                    "substochastic": False,
                    "is_sia": sia.is_sia,
                    "reason": sia.reason,
                    "pi": None if sia.pi is None else [float(v) for v in sia.pi],
                    "primitive": is_primitive(W),
                }
            )
    return {"results": results}


def _oracle_sia(v):
    return {
        "is_sia": v.is_sia,
        "pi": None if v.pi is None else [float(x) for x in v.pi],
        "reason": v.reason,
    }


def _oracle_cluster(r):
    return {
        "clusters": [list(c) for c in r.clusters],
        "values": list(r.values),
        "min_gap": None if np.isinf(r.min_gap) else r.min_gap,
        "truth_cluster": list(r.truth_cluster),
        "frozen_agents": list(r.frozen_agents),
        "terminated_at": r.terminated_at,
    }


def _oracle_trajectory(t):
    obj = {
        "states": [[float(v) for v in row] for row in t.states],
        "residuals": [[float(v) for v in row] for row in t.residuals],
        "M": [float(v) for v in t.M],
        "m": [float(v) for v in t.m],
        "d": [float(v) for v in t.d],
    }
    if t.window_max is not None:
        obj["window_max"] = [float(v) for v in t.window_max]
    return obj


def _same_bytes(oracle, new):
    assert dump_json(new) == dump_json(oracle)


# ---------------------------------------------------------------------------
# Inputs: small sparse weights, n <= 8.

WEIGHTS = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1 / 3, 0.1])


def _weights(draw, n, symmetric=False):
    w = np.array([[draw(WEIGHTS) for _ in range(n)] for _ in range(n)])
    if symmetric:
        w = np.triu(w) + np.triu(w, 1).T  # balanced: every component isolated
    return w


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    return WeightedDigraph(n=n, weights=_weights(draw, n, draw(st.booleans())))


def _stochastic(w):
    """Row-normalize nonnegative weights after adding a positive diagonal."""
    w = w + np.eye(len(w))
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def periodic_sequences(draw):
    """One period of 1 to 3 matrices on n <= 8 nodes; symmetric periods
    satisfy every balance condition, the others mostly fail one."""
    n, p, symmetric = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.booleans())
    return [_stochastic(_weights(draw, n, symmetric)) for _ in range(p)], p


@st.composite
def matrix_entries(draw):
    entries = []
    for idx in range(draw(st.integers(1, 3))):
        w = _weights(draw, draw(st.integers(1, 8)))
        if draw(st.booleans()):
            sums = w.sum(axis=1, keepdims=True)
            rows = np.where(sums > 1, w / np.maximum(sums, 1), w)
            entries.append({"name": f"sub{idx}", "rows": rows.tolist(), "substochastic": True})
        else:
            entries.append({"rows": _stochastic(w).tolist()})
    return entries


# ---------------------------------------------------------------------------
# The CLI's verdict builders against their oracles.


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_analyze_graph_verdict_matches_hand_built(g):
    params = {"graph": {"n": g.n, "weights": g.weights.tolist()}}
    verdict, code, _ = _run_analyze_graph(params, 0)
    assert code == 0
    _same_bytes(_oracle_analyze_graph(g), verdict)


def test_analyze_graph_both_certificate_branches():
    chain = WeightedDigraph.from_weights([[0, 0, 0], [1.0, 0, 0], [0, 0.5, 0]])
    pair = WeightedDigraph.from_weights([[0, 1.0, 0], [2.0, 0, 0], [0, 0, 0]])
    for g, balanced in ((chain, False), (pair, True)):
        verdict, _, _ = _run_analyze_graph({"graph": {"n": g.n, "weights": g.weights.tolist()}}, 0)
        assert verdict["cut_balance"]["balanced"] is balanced
        assert (verdict["cut_balance"]["witness_cut"] is None) is balanced
        _same_bytes(_oracle_analyze_graph(g), verdict)


@settings(max_examples=40, deadline=None)
@given(
    periodic_sequences(),
    st.integers(1, 2),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_check_sequence_verdict_matches_hand_built(mats_p, M, T, L):
    mats, p = mats_p
    params = {
        "sequence": {"kind": "explicit", "matrices": [m.tolist() for m in mats], "period": p},
        "M": M,
        "T": T,
        "L": L,
    }
    verdict, code, _ = _run_check_sequence(params, 0)
    assert code == 0
    seq = MatrixSequence.explicit(mats, period=p)
    _same_bytes(_oracle_check_sequence(seq, M, T, L), verdict)


def test_check_sequence_witness_and_no_witness_branches():
    one_way = _stochastic(np.array([[0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]))
    both_ways = _stochastic(np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]]))
    for mats, holds in (([one_way], False), ([both_ways, np.eye(3)], True)):
        params = {
            "sequence": {"kind": "explicit", "matrices": [m.tolist() for m in mats], "period": len(mats)},
            "M": 1,
            "T": 0,
            "L": 1,
        }
        verdict, _, _ = _run_check_sequence(params, 0)
        assert verdict["reciprocity"]["holds"] is holds
        assert verdict["uniform_cut_balance"]["holds"] is holds
        assert (verdict["reciprocity"]["violating_cut"] is None) is holds
        assert (verdict["uniform_cut_balance"]["witness"] is None) is holds
        seq = MatrixSequence.explicit(mats, period=len(mats))
        _same_bytes(_oracle_check_sequence(seq, 1, 0, 1), verdict)


@settings(max_examples=40, deadline=None)
@given(matrix_entries())
def test_analyze_matrix_entries_match_hand_built(entries):
    verdict, code, _ = _run_analyze_matrix({"matrices": entries}, 0)
    assert code == 0
    _same_bytes(_oracle_analyze_matrix(entries), verdict)


def test_analyze_matrix_both_entry_kinds():
    entries = [
        {"name": "leak", "rows": [[0.5, 0.25], [0.0, 1.0]], "substochastic": True},
        {"name": "sia", "rows": [[1.0, 0.0], [0.5, 0.5]]},
        {"name": "periodic", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        {"name": "two_sources", "rows": [[1.0, 0.0], [0.0, 1.0]]},
    ]
    verdict, _, _ = _run_analyze_matrix({"matrices": entries}, 0)
    assert [r.get("reason") for r in verdict["results"]] == [
        None, "ok", "periodic_source", "multiple_sources"
    ]
    _same_bytes(_oracle_analyze_matrix(entries), verdict)


# ---------------------------------------------------------------------------
# The remaining hand-written methods against their oracles.


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_sia_verdict_matches_hand_built(g):
    W = RowStochasticMatrix(n=g.n, entries=_stochastic(np.abs(g.weights)))
    v = check_sia(W)
    _same_bytes(_oracle_sia(v), v.to_json_obj())


@pytest.mark.parametrize(
    "x0, epsilon",
    [([0.0, 0.1, 0.2, 0.3], 0.5), ([0.0, 0.1, 5.0, 5.1], 0.5)],
    ids=["one_cluster", "two_clusters"],
)
def test_cluster_report_matches_hand_built(x0, epsilon):
    _, report = run_hk(np.array(x0), HkConfig(epsilon=epsilon), 400)
    obj = report.to_json_obj()
    assert (obj["min_gap"] is None) is (len(report.clusters) == 1)
    _same_bytes(_oracle_cluster(report), obj)


def test_trajectory_json_matches_hand_built():
    seq = MatrixSequence.constant(_stochastic(np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])))
    policy = DisturbancePolicy.vanishing_random(0.1, 0.9, seed=3)
    plain = run_rai(seq, [1.0, -2.0, 3.0], policy, 60)
    delays = DelaySpec.constant([[0, 1, 0], [0, 0, 2], [1, 0, 0]])
    delayed = run_delayed_rai(seq, delays, [[1.0, -2.0, 3.0]] * 3, policy, 60)
    assert "window_max" not in plain.to_json_obj()
    assert "window_max" in delayed.to_json_obj()
    for traj in (plain, delayed):
        _same_bytes(_oracle_trajectory(traj), traj.to_json_obj())


def test_graph_to_json_matches_hand_built():
    g = WeightedDigraph.from_weights([[0.5, -0.0, 1e-300], [0.25, -0.75, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    oracle = json.dumps(
        {"n": g.n, "weights": [[float(x) for x in row] for row in g.weights]}, sort_keys=True
    )
    assert graph_to_json(g) == oracle


# ---------------------------------------------------------------------------
# The rules themselves.


@dataclass(frozen=True)
class _Inner:
    cut: Cut
    nodes: frozenset


@dataclass(frozen=True)
class _Outer(Report):
    inner: _Inner
    pairs: tuple
    vector: np.ndarray
    missing: object = None


def test_json_form_rules():
    value = _Outer(
        inner=_Inner(cut=Cut.of([3, 1], 4), nodes=frozenset({9, 2, 5})),
        pairs=((1, 2), [3, (4,)]),
        vector=np.array([[0.5, -0.0], [1e-300, 2.0]]),
    )
    assert value.to_json_obj() == {
        "inner": {"cut": [[1, 3], [0, 2]], "nodes": [2, 5, 9]},
        "pairs": [[1, 2], [3, [4]]],
        "vector": [[0.5, -0.0], [1e-300, 2.0]],
        "missing": None,
    }
    assert value.to_json() == dump_json(value.to_json_obj())
    assert json_form({(2, 1), (1, 5)}) == [[1, 5], [2, 1]]
    assert json_form("text") == "text" and json_form(None) is None


def test_fields_equal_walks_every_field():
    @dataclass(frozen=True, eq=False)
    class Holder:
        label: str
        values: np.ndarray

        __eq__ = fields_equal
        __hash__ = None

    a = Holder("a", np.arange(3.0))
    assert a == Holder("a", np.arange(3.0))
    assert a != Holder("b", np.arange(3.0))
    assert a != Holder("a", np.arange(4.0))
    assert fields_equal(a, "a") is NotImplemented

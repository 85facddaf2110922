"""Counts (lengths, periods, window lengths and ends, delay bounds, node
counts) have one check, ``graphs._check_count``: an integer >= 0, a numpy
integer included, and never a bool, a float or a string.  A wrong count
raises ValueError where it is read, not a TypeError steps later, and is
never truncated."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from raikit import (
    DelaySpec,
    DisturbancePolicy,
    HkConfig,
    MatrixSequence,
    MultiAgentProblem,
    SignedMatrixSequence,
    WeightedDigraph,
    arc_count,
    paracontraction_audit,
    check_arc_balance,
    check_reciprocity,
    check_uniform_cut_balance,
    flow_contraction_bound_delayed,
    gossip_sequence,
    graph_from_edgelist,
    graph_from_json,
    persistent_graph,
    recover_structural_balance,
    run_altafini,
    run_delayed_rai,
    run_hk,
    run_rai,
    solve,
    xiao_stack,
)
from raikit.graphs import Cut
from raikit.matrices import RowStochasticMatrix
from raikit.solvers import ConvexProjector

SRC = Path(__file__).resolve().parents[1] / "src" / "raikit"
COUNT_NAMES = {
    "steps", "max_steps", "max_iters", "d_star", "period", "M", "T", "L", "k0", "k1", "horizon", "samples",
}
HALF = np.full((2, 2), 0.5)


def _negative_tests(tree: ast.AST) -> list:
    """(line, name) for each ``<count> < 0`` outside ``_check_count``, in
    source order."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_check_count":
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                name = getattr(left, "id", getattr(left, "attr", None))
                if isinstance(op, ast.Lt) and name in COUNT_NAMES and getattr(right, "value", None) == 0:
                    found.append((node.lineno, name))
        found += _negative_tests(node)
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_tests_a_count_but_the_count_check(name):
    assert _negative_tests(ast.parse((SRC / name).read_text())) == []


def test_the_check_sees_a_count_test():
    source = "if steps < 0:\n    pass\nok = self.period < 0 or 0 <= d_star < 0\n"
    assert _negative_tests(ast.parse(source)) == [(1, "steps"), (3, "period"), (3, "d_star")]
    inside = "def _check_count(name, period):\n    return period < 0\n"
    assert _negative_tests(ast.parse(inside)) == []


WRONG_COUNTS = [2.0, 2.5, True, "2", None, np.float64(2.0)]


@pytest.mark.parametrize("n", WRONG_COUNTS + [-1])
def test_node_counts_must_be_integers(n):
    message = re.escape(f"n must be an integer >= 0, got {n!r}")
    with pytest.raises(ValueError, match=message):
        MatrixSequence(n=n, period=1, matrices=(np.eye(2),))
    with pytest.raises(ValueError, match=message):
        SignedMatrixSequence(n=n, period=1, matrices=(np.eye(2),))
    with pytest.raises(ValueError, match=message):
        WeightedDigraph(n=n, weights=np.eye(2))
    if n is not None:  # no n: the edge list's own node count
        with pytest.raises(ValueError, match=message):
            graph_from_edgelist("0 1 1.0\n", n=n)
    with pytest.raises(ValueError, match=message):
        gossip_sequence(n=n, schedule=[], alphas=[], fire_times=[])


def test_zero_nodes_keep_their_positivity_messages():
    with pytest.raises(ValueError, match="^n must be positive$"):
        MatrixSequence(n=0, matrices=(np.eye(1),))
    with pytest.raises(ValueError, match="^node count must be at least 1$"):
        WeightedDigraph(n=0, weights=np.zeros((0, 0)))
    assert MatrixSequence(n=np.int64(2), period=1, matrices=(np.eye(2),)).n == 2
    assert WeightedDigraph(n=np.int64(2), weights=np.eye(2)).n == 2


@pytest.mark.parametrize("n", [2.9, "2", 2.0, True])
def test_graph_json_node_count_is_not_truncated(n):
    weights = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 0, got {n!r}")):
        graph_from_json(json.dumps({"n": n, "weights": weights}))
    assert graph_from_json(json.dumps({"n": 2, "weights": weights})).n == 2


@pytest.mark.parametrize("horizon", [2.5, -1, True, "3"])
def test_a_horizon_is_checked_where_it_is_read(horizon):
    seq = MatrixSequence.from_generator(lambda k: HALF, n=2, horizon_K=horizon)  # accepted until read
    with pytest.raises(ValueError, match="^horizon_K must be an integer >= 0"):
        persistent_graph(seq)
    with pytest.raises(ValueError, match="^horizon_K must be an integer >= 0"):
        check_uniform_cut_balance(seq, 1)


def _problem():
    line = ConvexProjector.hyperplane(np.array([1.0, 0.0]), 1.0)
    return MultiAgentProblem((line, line), MatrixSequence.constant(HALF), "pre_project", np.zeros((2, 2)))


# Each reader of a count: the count's name, and a call that passes it.
RUNS = {
    "run_rai": ("steps", lambda c: run_rai(MatrixSequence.constant(HALF), [1.0, 0.0], DisturbancePolicy.zero(), c)),
    "run_delayed_rai": ("steps", lambda c: run_delayed_rai(
        MatrixSequence.constant(HALF), DelaySpec.constant(np.zeros((2, 2), int)), [[1.0, 0.0]],
        DisturbancePolicy.zero(), c,
    )),
    "run_altafini": ("steps", lambda c: run_altafini(SignedMatrixSequence.constant(HALF), [1.0, 0.0], c)),
    "run_hk": ("max_steps", lambda c: run_hk([0.0, 0.1, 1.0], HkConfig(epsilon=0.3), c)),
    "solve": ("max_iters", lambda c: solve(_problem(), c)),
    "flow_contraction_bound_delayed": ("d_star", lambda c: flow_contraction_bound_delayed(
        MatrixSequence.constant(HALF), Cut.of([0], 2), 0, 0, 1, 0.5, c
    )),
    "xiao_stack": ("d_star", lambda c: xiao_stack(RowStochasticMatrix(n=2, entries=HALF), np.zeros((2, 2), int), c)),
    "DelaySpec.constant": ("d_star", lambda c: DelaySpec.constant(np.zeros((2, 2), int), d_star=c)),
    "check_reciprocity M": ("M", lambda c: check_reciprocity(MatrixSequence.constant(HALF), c, 0)),
    "check_reciprocity T": ("T", lambda c: check_reciprocity(MatrixSequence.constant(HALF), 1, c)),
    "check_arc_balance": ("L", lambda c: check_arc_balance(MatrixSequence.constant(HALF), c)),
    "check_uniform_cut_balance": ("L", lambda c: check_uniform_cut_balance(MatrixSequence.constant(HALF), c)),
    "arc_count k0": ("k0", lambda c: arc_count(MatrixSequence.constant(HALF), [0], [1], c, 2)),
    "arc_count k1": ("k1", lambda c: arc_count(MatrixSequence.constant(HALF), [0], [1], 0, c)),
    "recover_structural_balance": ("horizon", lambda c: recover_structural_balance(
        SignedMatrixSequence.constant(HALF), c
    )),
    "paracontraction_audit": ("samples", lambda c: paracontraction_audit(
        ConvexProjector.hyperplane(np.array([1.0, 0.0]), 1.0), c
    )),
}


@pytest.mark.parametrize("count", [3.0, 1.5, True, "3", -1])
@pytest.mark.parametrize("reader", sorted(RUNS))
def test_every_count_argument_is_an_integer(reader, count):
    name, call = RUNS[reader]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
        call(count)
    call(np.int64(1))

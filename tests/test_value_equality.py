"""One value equality for every result type: ``==`` between two instances
of any dataclass that ``raikit`` exports returns a bool, True for a deep
copy and False once one field differs, whether the fields hold arrays,
tuples of arrays, other results or plain values."""

import copy
import dataclasses

import numpy as np
import pytest

import raikit as r
from raikit.graphs import ArrayFields

HALF = np.full((2, 2), 0.5)
SEQ = r.MatrixSequence.constant(HALF)
SWAP = r.MatrixSequence.constant([[0.0, 1.0], [1.0, 0.0]])
GRAPH = r.WeightedDigraph.from_weights([[0.0, 0.3], [0.2, 0.0]])
SIGNED = r.SignedMatrixSequence.constant([[0.5, -0.5], [-0.5, 0.5]])
PROBLEM = r.MultiAgentProblem(
    maps=(r.ConvexProjector.hyperplane([1.0, 1.0], 1.0), r.ConvexProjector.ball([0.0, 0.0], 2.0)),
    W=SEQ,
    algorithm="pre_project",
    initial=np.array([[1.0, 2.0], [-1.0, 0.5]]),
)

# name: (the sample, the field to change, its new value)
SAMPLES = {
    "Trajectory": lambda: (r.run_degroot(SEQ, [1.0, 0.0], 3), "residuals", np.ones((3, 2))),
    "DisturbancePolicy": lambda: (r.DisturbancePolicy.constant_random(0.1, seed=1), "seed", 2),
    "DelaySpec": lambda: (r.DelaySpec.constant([[0, 1], [1, 0]]), "tables", (np.array([[0, 0], [1, 0]]),)),
    "AgentStatus": lambda: (r.AgentStatus(kind="converged", limit=1.0), "limit", 2.0),
    "ConvergenceVerdict": lambda: (r.classify(r.run_degroot(SEQ, [1.0, 0.0], 60)), "consensus_value", 0.25),
    "WeightedDigraph": lambda: (GRAPH, "weights", np.zeros((2, 2))),
    "Cut": lambda: (r.Cut(left=frozenset({0}), right=frozenset({1, 2})), "right", frozenset({1})),
    "SccDecomposition": lambda: (r.strong_components(GRAPH), "classification", ("x",)),
    "CutBalanceCertificate": lambda: (r.cut_balance_certificate(GRAPH), "constant_C", 2.0),
    "RowStochasticMatrix": lambda: (SEQ.matrix(0), "entries", np.eye(2)),
    "SubstochasticMatrix": lambda: (r.SubstochasticMatrix.from_rows([[0.5, 0.0], [0.2, 0.3]]), "entries", np.eye(2)),
    "SiaVerdict": lambda: (r.check_sia(SEQ.matrix(0)), "pi", None),
    "StabilityVerdict": lambda: (
        r.schur_stability_by_reachability(r.SubstochasticMatrix.from_rows([[0.5, 0.0], [0.0, 1.0]])),
        "unreachable_nodes",
        frozenset(),
    ),
    "HkConfig": lambda: (r.HkConfig(epsilon=0.3, truth=0.5, awareness=(0.1, 0.2)), "epsilon", 0.4),
    "SignedMatrixSequence": lambda: (SIGNED, "matrices", (np.eye(2),)),
    "ClusterReport": lambda: (r.run_hk([0.0, 0.1, 1.0], r.HkConfig(epsilon=0.3), 50)[1], "values", (0.0, 1.0)),
    "ModulusConsensusVerdict": lambda: (
        r.modulus_consensus_verdict(r.run_altafini(SIGNED, [1.0, -0.5], 60)),
        "degenerate",
        True,
    ),
    "StructuralBalanceReport": lambda: (r.recover_structural_balance(SIGNED, 8), "gauge", (1, 1)),
    "MatrixSequence": lambda: (SEQ, "horizon_K", 7),
    "PersistentGraphEstimate": lambda: (r.persistent_graph(SEQ), "partial_sums", np.zeros((2, 2))),
    "ReciprocityReport": lambda: (r.check_reciprocity(SWAP, 1, 0), "T", 1),
    "UniformCutBalanceReport": lambda: (r.check_uniform_cut_balance(SWAP, 1), "C", 2.0),
    "ArcBalanceReport": lambda: (r.check_arc_balance(SWAP, 1), "C", 2.0),
    "Paracontraction": lambda: (r.Paracontraction(dimension=2, apply=np.negative), "dimension", 3),
    "ConvexProjector": lambda: (PROBLEM.maps[1], "dimension", 3),
    "MultiAgentProblem": lambda: (PROBLEM, "initial", np.zeros((2, 2))),
    "SolveResult": lambda: (r.solve(PROBLEM, max_iters=5), "disagreement_history", (0.0,)),
    "AuditReport": lambda: (r.paracontraction_audit(PROBLEM.maps[0], 4), "fixed_point", np.ones(2)),
}

DATACLASSES = sorted(
    name for name in r.__all__ if isinstance(getattr(r, name), type) and dataclasses.is_dataclass(getattr(r, name))
)


def test_every_exported_dataclass_has_a_sample():
    assert sorted(SAMPLES) == DATACLASSES


@pytest.mark.parametrize("name", DATACLASSES)
def test_equal_to_a_deep_copy_and_unequal_after_one_field_changes(name):
    x, field, value = SAMPLES[name]()
    assert type(x) is getattr(r, name)
    assert (x == copy.deepcopy(x)) is True
    assert (x != copy.deepcopy(x)) is False
    changed = copy.copy(x)
    object.__setattr__(changed, field, value)
    assert (x == changed) is False and (changed == x) is False
    assert (x != changed) is True
    assert x != "x"


# The dataclasses whose fields hold arrays, directly or in tuples.
ARRAY_HOLDERS = {
    "AuditReport", "DelaySpec", "MatrixSequence", "MultiAgentProblem", "PersistentGraphEstimate",
    "RowStochasticMatrix", "SiaVerdict", "SignedMatrixSequence", "SolveResult", "SubstochasticMatrix",
    "SccDecomposition", "Trajectory", "WeightedDigraph",
}


@pytest.mark.parametrize("name", DATACLASSES)
def test_the_array_holders_share_one_unhashable_equality(name):
    cls = getattr(r, name)
    assert issubclass(cls, ArrayFields) == (name in ARRAY_HOLDERS)
    if name in ARRAY_HOLDERS:
        assert cls.__eq__ is ArrayFields.__eq__ and cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(SAMPLES[name]()[0])


def test_nested_tuples_of_arrays_and_none_against_an_array_compare_by_value():
    a = r.SignedMatrixSequence.explicit([np.eye(2), np.full((2, 2), 0.5)], period=2)
    assert a == r.SignedMatrixSequence.explicit([np.eye(2), np.full((2, 2), 0.5)], period=2)
    assert a != r.SignedMatrixSequence.explicit([np.eye(2), np.eye(2)], period=2)
    assert a != r.SignedMatrixSequence.explicit([np.eye(2)], period=1)
    sia = r.check_sia(SEQ.matrix(0))
    assert sia != r.SiaVerdict(is_sia=True, pi=None, reason="ok")
    assert r.SiaVerdict(is_sia=True, pi=None, reason="ok") != sia
